"""Command-line verification and construction tool.

Exit codes: 0 all selected laws pass, 1 at least one violation,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .algebra import NotEndomorphism, TernaryHomAlgebra
from .bialgebra import (
    TernaryBialgebra,
    check_bialgebra,
    check_compatibility,
    sign_variant,
)
from .coalgebra import TernaryHomCoalgebra
from .duality import dualize_algebra, dualize_coalgebra
from .matched_pair import MatchedPairData, bicrossed_product, check_matched_pair
from .report import Report
from .serialization import (
    ModuleBundle,
    StructureFileError,
    dump_text,
    load_file,
)
from .trimodule import check_trimodule, semidirect_product

LAWS = ("assoc", "coassoc", "multiplicative", "compat", "bialgebra",
        "trimodule", "matchedpair", "all")


class UsageError(Exception):
    pass


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _applicable_laws(obj) -> list[str]:
    if isinstance(obj, TernaryHomAlgebra):
        return ["assoc", "multiplicative"]
    if isinstance(obj, TernaryHomCoalgebra):
        return ["coassoc", "multiplicative"]
    if isinstance(obj, TernaryBialgebra):
        return ["assoc", "coassoc", "multiplicative", "compat", "bialgebra"]
    if isinstance(obj, ModuleBundle):
        return ["assoc", "multiplicative", "trimodule"]
    if isinstance(obj, MatchedPairData):
        return ["matchedpair"]
    return []


def _check_law(obj, law, mode, level, full) -> Report:
    if law == "assoc":
        alg = obj.algebra if isinstance(obj, ModuleBundle) else \
            obj.alg if isinstance(obj, TernaryBialgebra) else obj
        return alg.check_associativity(mode)
    if law == "coassoc":
        co = obj.coalg if isinstance(obj, TernaryBialgebra) else obj
        return co.check_coassociativity(mode)
    if law == "multiplicative":
        if isinstance(obj, TernaryBialgebra):
            rep = obj.alg.check_multiplicativity()
            rep.extend(obj.coalg.check_comultiplicativity())
            return rep
        if isinstance(obj, ModuleBundle):
            return obj.algebra.check_multiplicativity()
        if isinstance(obj, TernaryHomCoalgebra):
            return obj.check_comultiplicativity()
        return obj.check_multiplicativity()
    if law == "compat":
        return check_compatibility(obj)
    if law == "bialgebra":
        return check_bialgebra(obj, mode)
    if law == "trimodule":
        if mode == "weak":
            raise UsageError("trimodule laws have no weak mode")
        return check_trimodule(obj.algebra, obj.module, obj.actions, mode,
                               level)
    if law == "matchedpair":
        if mode == "weak":
            raise UsageError("matched-pair laws have no weak mode")
        return check_matched_pair(obj, mode, full)
    raise UsageError(f"unknown law {law!r}")


def cmd_check(args) -> int:
    obj = load_file(args.file)
    laws = _applicable_laws(obj)
    if not laws:
        raise UsageError("file kind supports no checks")
    if args.law == "all":
        # the composite bialgebra law repeats assoc/coassoc/compat
        selected = [law for law in laws if law != "bialgebra"]
    else:
        selected = [args.law]
    for law in selected:
        if law not in laws:
            raise UsageError(
                f"law {law!r} does not apply to this file kind")
    level = "full" if args.full else "quasi"
    report = Report()
    for law in selected:
        report.extend(_check_law(obj, law, args.mode, level, args.full))

    if args.json:
        doc = {
            "tool": "ternalg",
            "version": __version__,
            "input": {"path": args.file, "sha256": _digest(args.file)},
            "mode": args.mode,
        }
        doc.update(report.as_dict())
        print(json.dumps(doc, indent=2))
    else:
        for lr in report.laws:
            status = "pass" if lr.passed else "FAIL"
            line = f"{status}  {lr.law}"
            if not lr.passed:
                v = lr.violations[0]
                line += f"  first violation at {v.index}: {v.residual}"
                if lr.truncated:
                    line += "  (truncated)"
            print(line)
    return 0 if report.passed else 1


def _emit(obj, args):
    text = dump_text(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_twist(args) -> int:
    alg = load_file(args.file)
    if not isinstance(alg, TernaryHomAlgebra):
        raise UsageError("twist expects an algebra file")
    rho = load_file(args.endo)
    if not isinstance(rho, list):
        raise UsageError("--endo expects a map file")
    return _emit(alg.yau_twist(rho), args)


def cmd_dualize(args) -> int:
    obj = load_file(args.file)
    if isinstance(obj, TernaryHomAlgebra):
        return _emit(dualize_algebra(obj), args)
    if isinstance(obj, TernaryHomCoalgebra):
        return _emit(dualize_coalgebra(obj), args)
    if isinstance(obj, TernaryBialgebra):
        from .bialgebra import dualize_bialgebra

        return _emit(dualize_bialgebra(obj), args)
    raise UsageError("dualize expects an algebra, coalgebra, or bialgebra")


def cmd_semidirect(args) -> int:
    obj = load_file(args.file)
    if not isinstance(obj, ModuleBundle):
        raise UsageError("semidirect expects a module file")
    return _emit(semidirect_product(obj.algebra, obj.module, obj.actions),
                 args)


def cmd_doublecross(args) -> int:
    obj = load_file(args.file)
    if not isinstance(obj, MatchedPairData):
        raise UsageError("doublecross expects a matched_pair file")
    return _emit(bicrossed_product(obj), args)


def cmd_signflip(args) -> int:
    obj = load_file(args.file)
    if not isinstance(obj, TernaryBialgebra):
        raise UsageError("signflip expects a bialgebra file")
    if not (args.mu or args.delta):
        raise UsageError("signflip needs --mu and/or --delta")
    return _emit(sign_variant(obj, args.mu, args.delta), args)


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
    p.set_defaults(run=cmd_check)

    def construction(name, help_text, configure=None):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("file")
        q.add_argument("--out", help="write the result here instead of stdout")
        if configure:
            configure(q)
        return q

    construction("twist", "twist a classical algebra along an endomorphism",
                 lambda q: q.add_argument("--endo", required=True)
                 ).set_defaults(run=cmd_twist)
    construction("dualize", "transpose onto the dual basis"
                 ).set_defaults(run=cmd_dualize)
    construction("semidirect", "build the algebra-plus-module block product"
                 ).set_defaults(run=cmd_semidirect)
    construction("doublecross", "build the bicrossed product of a matched pair"
                 ).set_defaults(run=cmd_doublecross)

    def signflip_args(q):
        q.add_argument("--mu", action="store_true", help="negate the product")
        q.add_argument("--delta", action="store_true",
                       help="negate the coproduct")

    construction("signflip", "negate structure tensors of a bialgebra",
                 signflip_args).set_defaults(run=cmd_signflip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (StructureFileError, UsageError, NotEndomorphism) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
