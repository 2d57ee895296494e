"""Golden digests of the violation lists every checker reports.

Each group hashes the ``(law, tag, passed, violations)`` lists of the
reports it covers, in report order; ``truncated`` is left out (it is
tested on its own).  The groups cover

* every fixture under every mode and every ``--law`` of ``ternalg check
  --json`` (exit code included), and
* a seeded corpus of algebras, coalgebras, bialgebras, modules and
  matched pairs of dimensions 1 to 3, through every checker in every
  mode at violation caps 1, 10 and unlimited, with random (failing)
  actions at the full trimodule and matched-pair levels, and
* the canonical dumps of semidirect and bicrossed products over seeded
  random modules and matched pairs of dimensions 1 to 3, and
* the canonical dump of a seeded object of every structure kind, of
  dimensions 1 to 3 and radicands 1 and 2, and the dump of that document
  reloaded.

Regenerate the digests with ``PYTHONPATH=src python
tests/test_golden_reports.py --record`` only when a change of reported
violations is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import random
import sys

from ternalg.algebra import (
    NotEndomorphism,
    TernaryHomAlgebra,
    check_algebra_morphism,
)
from ternalg.bialgebra import (
    bialgebra,
    check_bialgebra,
    check_bialgebra_equivalence,
    check_compatibility,
    check_compatibility_sigma_form,
    compatibility_identity_check,
    sign_variant,
)
from ternalg.cli import main
from ternalg.coalgebra import TernaryHomCoalgebra, check_coalgebra_morphism
from ternalg.linalg import mat_identity
from ternalg.matched_pair import (
    MatchedPairData,
    bicrossed_product,
    check_matched_pair,
)
from ternalg.scalars import QuadScalar
from ternalg.serialization import (
    ModuleBundle,
    dump_structure,
    dump_text,
    load_structure,
)
from ternalg.trimodule import (
    BihomModule,
    TrimoduleActions,
    check_trimodule,
    regular_actions,
    semidirect_product,
)

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden_reports.json"

MODES = ("total", "partial", "weak")
CLI_LAWS = ("assoc", "coassoc", "multiplicative", "compat", "bialgebra",
            "trimodule", "matchedpair", "all")
CAPS = (1, 10, 10 ** 9)
SEED = 20261018


def _laws(report) -> list:
    return [[lr.law, lr.tag, lr.passed,
             [[list(v.index), v.residual] for v in lr.violations]]
            for lr in report.laws]


def _digest(entries) -> str:
    text = json.dumps(entries, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- command line over the fixtures -------------------------------------


def _cli_entries(path) -> list:
    out = []
    for mode in MODES:
        for law in CLI_LAWS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(["check", str(path), "--mode", mode,
                             "--law", law, "--json"])
            laws = None
            if code != 2:
                laws = [[lr["law"], lr["tag"], lr["passed"],
                         [[v["index"], v["residual"]]
                          for v in lr["violations"]]]
                        for lr in json.loads(stdout.getvalue())["laws"]]
            out.append([mode, law, code, laws])
    return out


# -- seeded corpus --------------------------------------------------------


def _scalar(rng, radicand):
    num = rng.choice((-2, -1, 1, 1, 2, 3))
    den = rng.choice((1, 1, 1, 2))
    if radicand != 1 and rng.random() < 0.4:
        return QuadScalar(0, f"{num}/{den}", radicand)
    return QuadScalar(f"{num}/{den}")


def _tensor(rng, dims, out_dim, density, radicand) -> dict:
    """Sparse product-shaped tensor over the argument ranges ``dims``."""
    out = {}
    for key in itertools.product(*(range(d) for d in dims)):
        if rng.random() < density:
            out[key] = {rng.randrange(out_dim): _scalar(rng, radicand)
                        for _ in range(rng.choice((1, 1, 2)))}
    return out


def _coproduct(rng, n, density, radicand) -> dict:
    delta = {}
    for key in itertools.product(range(n), repeat=3):
        if rng.random() < density:
            delta.setdefault(rng.randrange(n), {})[key] = \
                _scalar(rng, radicand)
    return delta


def _matrix(rng, n, radicand):
    kind = rng.choice(("identity", "diagonal", "dense"))
    if kind == "identity":
        return mat_identity(n)
    if kind == "diagonal":
        return [[QuadScalar(rng.choice((1, -1, 2))) if i == j else
                 QuadScalar(0) for j in range(n)] for i in range(n)]
    return [[_scalar(rng, radicand) if rng.random() < 0.5 else QuadScalar(0)
             for _ in range(n)] for _ in range(n)]


# (dim, radicand): one rational instance and one radical one per dimension
INSTANCES = [(n, d) for n in (1, 2, 3) for d in (1, 2)]


def _algebra_entries(rng) -> dict:
    groups = {}
    for n, d in INSTANCES:
        a1, a2 = _matrix(rng, n, d), _matrix(rng, n, d)
        alg = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.4, d), a1, a2,
                                d)
        other = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.4, d), a1,
                                  a2, d)
        f = _matrix(rng, n, d)
        rho = _matrix(rng, n, d)
        classical = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.3, d),
                                      mat_identity(n), mat_identity(n), d)
        entries = []
        for cap in CAPS:
            for mode in MODES:
                entries.append(_laws(alg.check_associativity(mode, cap)))
            entries.append(_laws(alg.check_multiplicativity(cap)))
            entries.append(_laws(check_algebra_morphism(f, alg, other, cap)))
            entries.append(_laws(check_algebra_morphism(
                mat_identity(n), alg, alg, cap)))
        for endo in (rho, mat_identity(n)):
            try:
                twisted = dump_structure(classical.yau_twist(endo))
            except NotEndomorphism as exc:
                twisted = ["not-endomorphism", list(exc.triple)]
            entries.append(twisted)
        groups[f"algebra/d{n}r{d}"] = entries
    return groups


def _coalgebra_entries(rng) -> dict:
    groups = {}
    for n, d in INSTANCES:
        a1, a2 = _matrix(rng, n, d), _matrix(rng, n, d)
        co = TernaryHomCoalgebra(n, _coproduct(rng, n, 0.3, d), a1, a2, d)
        other = TernaryHomCoalgebra(n, _coproduct(rng, n, 0.3, d), a1, a2, d)
        f = _matrix(rng, n, d)
        entries = []
        for cap in CAPS:
            for mode in MODES:
                entries.append(_laws(co.check_coassociativity(mode, cap)))
                entries.append(_laws(co.structure_identity_check(mode, cap)))
            entries.append(_laws(co.check_comultiplicativity(cap)))
            entries.append(_laws(check_coalgebra_morphism(f, co, other, cap)))
        groups[f"coalgebra/d{n}r{d}"] = entries
    return groups


def _bialgebra_entries(rng) -> dict:
    groups = {}
    for n, d in INSTANCES:
        a1 = a2 = _matrix(rng, n, d)
        bi = bialgebra(n, _tensor(rng, (n,) * 3, n, 0.3, d),
                       _coproduct(rng, n, 0.3, d), a1, a2, d)
        f = _matrix(rng, n, d)
        entries = []
        for cap in CAPS:
            for mode in MODES:
                entries.append(_laws(check_bialgebra(bi, mode, cap)))
            entries.append(_laws(check_compatibility(bi, cap)))
            entries.append(_laws(check_compatibility_sigma_form(bi, cap)))
            # n^10 tuples: the unlimited cap stays at dims 1 and 2
            if n < 3 or cap < 10 ** 9:
                entries.append(_laws(compatibility_identity_check(bi, cap)))
            entries.append(_laws(check_bialgebra_equivalence(
                f, bi, sign_variant(bi, True, False), cap)))
        groups[f"bialgebra/d{n}r{d}"] = entries
    return groups


def _actions(rng, n, m, density, radicand) -> TrimoduleActions:
    return TrimoduleActions(
        _tensor(rng, (n, n, m), m, density, radicand),
        _tensor(rng, (m, n, n), m, density, radicand),
        _tensor(rng, (n, m, n), m, density, radicand))


# (algebra dim, module dim, radicand); the full trimodule level runs
# n^6 * m tuples and the full matched pair adds m^6 * n more, so both stay
# at small dimensions
MODULE_INSTANCES = [(1, 2, 1), (2, 1, 2), (2, 2, 1), (3, 1, 2)]


def _trimodule_entries(rng) -> dict:
    groups = {}
    for n, m, d in MODULE_INSTANCES:
        alg = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.3, d),
                                _matrix(rng, n, d), _matrix(rng, n, d), d)
        mod = BihomModule(m, _matrix(rng, m, d), _matrix(rng, m, d))
        cases = [(alg, mod, _actions(rng, n, m, 0.3, d))]
        if n < 3:
            base = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.3, d),
                                     mat_identity(n), mat_identity(n), d)
            cases.append((base,) + regular_actions(base, "lmr"))
        levels = ("quasi", "full") if n < 3 else ("quasi",)
        entries = []
        for a, v, act in cases:
            for cap in CAPS:
                for mode in ("total", "partial"):
                    for level in levels:
                        entries.append(_laws(check_trimodule(
                            a, v, act, mode, level, cap)))
        groups[f"trimodule/d{n}x{m}r{d}"] = entries
    return groups


def _matched_pair_entries(rng) -> dict:
    groups = {}
    for n, m, d in MODULE_INSTANCES:
        a = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.3, d),
                              _matrix(rng, n, d), _matrix(rng, n, d), d)
        b = TernaryHomAlgebra(m, _tensor(rng, (m,) * 3, m, 0.3, d),
                              _matrix(rng, m, d), _matrix(rng, m, d), d)
        mp = MatchedPairData(a, b, _actions(rng, n, m, 0.4, d),
                             _actions(rng, m, n, 0.4, d))
        entries = []
        for cap in CAPS:
            for mode in ("total", "partial"):
                for full in (False, True) if n + m < 4 else (False,):
                    entries.append(_laws(check_matched_pair(
                        mp, mode, full, cap)))
        groups[f"matched_pair/d{n}x{m}r{d}"] = entries
    return groups


def _with_zero_entries(act: TrimoduleActions) -> TrimoduleActions:
    """The actions with an empty and an all-zero vector, which the
    constructions must drop."""
    act.M[(0, 0, 0)] = {}
    act.R[(0, 0, 0)] = {0: QuadScalar(0)}
    return act


def _construction_entries(rng) -> dict:
    groups = {}
    for n, m, d in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
        alg = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.4, d),
                                _matrix(rng, n, d), _matrix(rng, n, d), d)
        mod = BihomModule(m, _matrix(rng, m, d), _matrix(rng, m, d))
        semi = semidirect_product(
            alg, mod, _with_zero_entries(_actions(rng, n, m, 0.4, d)))
        b = TernaryHomAlgebra(m, _tensor(rng, (m,) * 3, m, 0.4, d),
                              _matrix(rng, m, d), _matrix(rng, m, d), d)
        mp = MatchedPairData(alg, b,
                             _with_zero_entries(_actions(rng, n, m, 0.4, d)),
                             _with_zero_entries(_actions(rng, m, n, 0.4, d)))
        groups[f"constructions/d{n}x{m}r{d}"] = [
            dump_text(semi), dump_text(bicrossed_product(mp))]
    return groups


def _dump_entries(rng) -> dict:
    """Each kind's dump, and the dump of that document loaded back."""
    groups = {}
    for n, m, d in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
        alg = TernaryHomAlgebra(n, _tensor(rng, (n,) * 3, n, 0.4, d),
                                _matrix(rng, n, d), _matrix(rng, n, d), d)
        b = TernaryHomAlgebra(m, _tensor(rng, (m,) * 3, m, 0.4, d),
                              _matrix(rng, m, d), _matrix(rng, m, d), d)
        a1, a2 = _matrix(rng, n, d), _matrix(rng, n, d)
        objs = [
            ModuleBundle(alg, BihomModule(m, b.alpha1, b.alpha2),
                         _actions(rng, n, m, 0.4, d)),
            MatchedPairData(alg, b, _actions(rng, n, m, 0.4, d),
                            _actions(rng, m, n, 0.4, d))]
        if m == 1:  # the one-space kinds vary n and d only
            objs += [
                _matrix(rng, n, d), alg,
                TernaryHomCoalgebra(n, _coproduct(rng, n, 0.3, d), a1, a2, d),
                bialgebra(n, _tensor(rng, (n,) * 3, n, 0.3, d),
                          _coproduct(rng, n, 0.3, d), a1, a2, d)]
        texts = [dump_text(obj) for obj in objs]
        groups[f"dumps/d{n}x{m}r{d}"] = texts + [
            dump_text(load_structure(json.loads(text))) for text in texts]
    return groups


def compute() -> dict:
    digests = {}
    for path in sorted(FIXTURES.glob("*.json")):
        digests[f"cli/{path.stem}"] = _digest(_cli_entries(path))
    rng = random.Random(SEED)
    for family in (_algebra_entries, _coalgebra_entries, _bialgebra_entries,
                   _trimodule_entries, _matched_pair_entries,
                   _construction_entries, _dump_entries):
        for name, entries in family(rng).items():
            digests[name] = _digest(entries)
    return digests


def test_golden_reports():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"reports changed in groups {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_reports.py --record")
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
