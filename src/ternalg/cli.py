"""Command-line verification and construction tool.

Exit codes: 0 all selected laws pass, 1 at least one violation,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .algebra import TernaryHomAlgebra
from .bialgebra import (
    TernaryBialgebra,
    check_bialgebra,
    check_compatibility,
    dualize_bialgebra,
    sign_variant,
)
from .coalgebra import TernaryHomCoalgebra
from .duality import dualize_algebra, dualize_coalgebra
from .matched_pair import MatchedPairData, bicrossed_product, check_matched_pair
from .report import Report
from .serialization import (
    ModuleBundle,
    StructureFileError,
    dump_file,
    dump_text,
    load_file,
)
from .trimodule import check_trimodule, semidirect_product

LAWS = ("assoc", "coassoc", "multiplicative", "compat", "bialgebra",
        "trimodule", "matchedpair", "all")


class UsageError(Exception):
    pass


def _bialgebra_multiplicative(bi, args):
    report = bi.alg.check_multiplicativity()
    report.extend(bi.coalg.check_comultiplicativity())
    return report


def _trimodule(m, args):
    if args.mode == "weak":
        raise UsageError("trimodule laws have no weak mode")
    return check_trimodule(m.algebra, m.module, m.actions, args.mode,
                           "full" if args.full else "quasi")


def _matched_pair(mp, args):
    if args.mode == "weak":
        raise UsageError("matched-pair laws have no weak mode")
    return check_matched_pair(mp, args.mode, args.full)


# structure type -> {law: check(obj, args)}, in report order
CHECKS = {
    TernaryHomAlgebra: {
        "assoc": lambda alg, args: alg.check_associativity(args.mode),
        "multiplicative": lambda alg, args: alg.check_multiplicativity()},
    TernaryHomCoalgebra: {
        "coassoc": lambda co, args: co.check_coassociativity(args.mode),
        "multiplicative": lambda co, args: co.check_comultiplicativity()},
    TernaryBialgebra: {
        "assoc": lambda bi, args: bi.alg.check_associativity(args.mode),
        "coassoc": lambda bi, args: bi.coalg.check_coassociativity(args.mode),
        "multiplicative": _bialgebra_multiplicative,
        "compat": lambda bi, args: check_compatibility(bi),
        "bialgebra": lambda bi, args: check_bialgebra(bi, args.mode)},
    ModuleBundle: {
        "assoc": lambda m, args: m.algebra.check_associativity(args.mode),
        "multiplicative": lambda m, args: m.algebra.check_multiplicativity(),
        "trimodule": _trimodule},
    MatchedPairData: {"matchedpair": _matched_pair},
}


def _twist(alg, args):
    rho = load_file(args.endo)
    if not isinstance(rho, list):
        raise UsageError("--endo expects a map file")
    try:
        return alg.yau_twist(rho)
    except ValueError as exc:
        # another size or radicand, not an endomorphism, or a twisted algebra
        raise UsageError(str(exc)) from exc


def _signflip(bi, args):
    if not (args.mu or args.delta):
        raise UsageError("signflip needs --mu and/or --delta")
    return sign_variant(bi, args.mu, args.delta)


# command -> (help, {input type: construction}, message for any other
# input, the command's own options as (flag, add_argument keywords))
BUILDS = {
    "twist": ("twist a classical algebra along an endomorphism",
              {TernaryHomAlgebra: _twist},
              "twist expects an algebra file",
              (("--endo", {"required": True}),)),
    "dualize": ("transpose onto the dual basis",
                {TernaryHomAlgebra: lambda alg, args: dualize_algebra(alg),
                 TernaryHomCoalgebra: lambda co, args: dualize_coalgebra(co),
                 TernaryBialgebra: lambda bi, args: dualize_bialgebra(bi)},
                "dualize expects an algebra, coalgebra, or bialgebra", ()),
    "semidirect": ("build the algebra-plus-module block product",
                   {ModuleBundle: lambda m, args: semidirect_product(
                       m.algebra, m.module, m.actions)},
                   "semidirect expects a module file", ()),
    "doublecross": ("build the bicrossed product of a matched pair",
                    {MatchedPairData: lambda mp, args: bicrossed_product(mp)},
                    "doublecross expects a matched_pair file", ()),
    "signflip": ("negate structure tensors of a bialgebra",
                 {TernaryBialgebra: _signflip},
                 "signflip expects a bialgebra file",
                 (("--mu", {"action": "store_true",
                            "help": "negate the product"}),
                  ("--delta", {"action": "store_true",
                               "help": "negate the coproduct"}))),
}


def cmd_check(args) -> int:
    obj = load_file(args.file)
    checks = CHECKS.get(type(obj))
    if not checks:
        raise UsageError("file kind supports no checks")
    if args.law == "all":
        # the composite bialgebra law repeats assoc/coassoc/compat
        selected = [law for law in checks if law != "bialgebra"]
    elif args.law in checks:
        selected = [args.law]
    else:
        raise UsageError(f"law {args.law!r} does not apply to this file kind")
    report = Report()
    for law in selected:
        report.extend(checks[law](obj, args))

    if args.json:
        digest = hashlib.sha256(Path(args.file).read_bytes()).hexdigest()
        doc = {"tool": "ternalg", "version": __version__,
               "input": {"path": args.file, "sha256": digest},
               "mode": args.mode, **report.as_dict()}
        print(json.dumps(doc, indent=2))
    else:
        for lr in report.laws:
            line = f"{'pass' if lr.passed else 'FAIL'}  {lr.law}"
            if not lr.passed:
                v = lr.violations[0]
                line += f"  first violation at {v.index}: {v.residual}"
                if lr.truncated:
                    line += "  (truncated)"
            print(line)
    return 0 if report.passed else 1


def cmd_build(args) -> int:
    _, builds, expects, _ = BUILDS[args.command]
    obj = load_file(args.file)
    build = builds.get(type(obj))
    if build is None:
        raise UsageError(expects)
    result = build(obj, args)
    if args.out:
        try:
            dump_file(result, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(dump_text(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternalg",
        description="verify and construct ternary hom-algebra structures")
    parser.add_argument("--version", action="version",
                        version=f"ternalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify laws of a structure file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("total", "partial", "weak"),
                   default="total")
    p.add_argument("--law", choices=LAWS, default="all")
    p.add_argument("--full", action="store_true",
                   help="include braiding and intertwining extras")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report")

    for name, (help_text, _, _, options) in BUILDS.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("file")
        q.add_argument("--out", help="write the result here instead of stdout")
        for flag, keywords in options:
            q.add_argument(flag, **keywords)
    return parser


_parser = functools.cache(build_parser)  # built on first use, then shared


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return (cmd_check if args.command == "check" else cmd_build)(args)
    except (StructureFileError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
