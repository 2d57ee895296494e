"""Matched pairs of ternary hom-algebras and the bicrossed product.

A matched pair couples two algebras A and B through six cross actions:
actA lets A act on B (module twists are B's), actB lets B act on A.
Both action triples use the standard trimodule slot layout, so
``actA.op_R(x, y, b)`` evaluates the B x A x A action with the B element
in the first tensor slot, and so on.

The twenty coupling conditions are written out once, in ``CONDITIONS``, as
chained identities in Python syntax over three forms of term: a slot
letter (a basis vector), a twist applied to a slot letter (its column),
and a product or action applied to three terms.
``report.compile_identity`` turns each into closures on first use.  The
bicrossed product below is the independent oracle for that table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TernaryHomAlgebra
from .report import (
    DEFAULT_MAX_VIOLATIONS,
    VECTOR,
    LawReport,
    Report,
    check_identities,
    check_mode,
    mode_residuals,
)
from .scalars import ONE
from .trimodule import (
    BihomModule,
    TrimoduleActions,
    block_product,
    braiding_laws,
    check_trimodule,
    intertwining_laws,
    module_vec_str,
)


@dataclass
class MatchedPairData:
    A: TernaryHomAlgebra
    B: TernaryHomAlgebra
    actA: TrimoduleActions  # A x A x B -> B and friends
    actB: TrimoduleActions  # B x B x A -> A and friends


# The coupling conditions as written identities (report.compile_identity):
# x, y, z run over the basis of A and a, b, c over that of B; A1, A2, B1,
# B2 are their twists, muA, muB their products, LA, RA, MA the actions of
# A on B and LB, RB, MB those of B on A.
CONDITIONS = {
    "1": "muA(LB(a, b, x), A1(y), A2(z)) == LB(B1(a), RA(x, y, b), A2(z))"
         " == LB(B1(a), B2(b), muA(x, y, z))",
    "2": "muA(MB(a, b, x), A1(y), A2(z)) == LB(B1(a), MA(x, y, b), A2(z))"
         " == MB(B1(a), RA(y, z, b), A2(x))",
    "3": "muA(RB(a, b, x), A1(y), A2(z)) == muA(A1(x), LB(a, b, y), A2(z))"
         " == RB(B2(a), RA(y, z, b), A1(x))",
    "4": "LB(LA(x, y, a), B1(b), A2(z)) == muA(A1(x), RB(a, b, y), A2(z))"
         " == muA(A1(x), A2(y), LB(a, b, z))",
    "5": "LB(MA(x, y, a), B1(b), A2(z)) == muA(A1(x), MB(a, b, y), A2(z))"
         " == RB(B2(a), MA(y, z, b), A1(x))",
    "6": "LB(RA(x, y, a), B1(b), A2(z)) == LB(B1(a), LA(x, y, b), A2(z))"
         " == MB(B1(a), MA(y, z, b), A2(x))",
    "7": "MB(LA(x, y, a), B2(b), A1(z)) == RB(MA(y, z, a), B2(b), A1(x))"
         " == muA(A1(x), A2(y), MB(a, b, z))",
    "8": "MB(MA(x, y, a), B2(b), A1(z)) == RB(RA(y, z, a), B2(b), A1(x))"
         " == RB(B2(a), LA(y, z, b), A1(x))",
    "9": "MB(RA(x, y, a), B2(b), A1(z)) == MB(B1(a), B2(b), muA(x, y, z))"
         " == MB(B1(a), LA(y, z, b), A2(x))",
    "10": "RB(B1(a), B2(b), muA(x, y, z)) == RB(LA(y, z, a), B2(b), A1(x))"
          " == muA(A1(x), A2(y), RB(a, b, z))",
    "11": "muB(LA(x, y, a), B1(b), B2(c)) == LA(A1(x), RB(a, b, y), B2(c))"
          " == LA(A1(x), A2(y), muB(a, b, c))",
    "12": "muB(MA(x, y, a), B1(b), B2(c)) == LA(A1(x), MB(a, b, y), B2(c))"
          " == MA(A1(x), RB(b, c, y), B2(a))",
    "13": "muB(RA(x, y, a), B1(b), B2(c)) == muB(B1(a), LA(x, y, b), B2(c))"
          " == RA(A2(x), RB(b, c, y), B1(a))",
    "14": "LA(LB(a, b, x), A1(y), B2(c)) == muB(B1(a), RA(x, y, b), B2(c))"
          " == muB(B1(a), B2(b), LA(x, y, c))",
    "15": "LA(MB(a, b, x), A1(y), B2(c)) == muB(B1(a), MA(x, y, b), B2(c))"
          " == RA(A2(x), MB(b, c, y), B1(a))",
    "16": "LA(RB(a, b, x), A1(y), B2(c)) == LA(A1(x), LB(a, b, y), B2(c))"
          " == MA(A1(x), MB(b, c, y), B2(a))",
    "17": "MA(LB(a, b, x), A2(y), B1(c)) == RA(MB(b, c, x), A2(y), B1(a))"
          " == muB(B1(a), B2(b), MA(x, y, c))",
    "18": "MA(MB(a, b, x), A2(y), B1(c)) == RA(RB(b, c, x), A2(y), B1(a))"
          " == RA(A2(x), LB(b, c, y), B1(a))",
    "19": "MA(RB(a, b, x), A2(y), B1(c)) == MA(A1(x), A2(y), muB(a, b, c))"
          " == MA(A1(x), LB(b, c, y), B2(a))",
    "20": "RA(A1(x), A2(y), muB(a, b, c)) == RA(LB(b, c, x), A2(y), B1(a))"
          " == muB(B1(a), B2(b), RA(x, y, c))",
}


def check_matched_pair(mp: MatchedPairData, mode: str = "total",
                       full: bool = False,
                       max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    check_mode(mode, ("total", "partial"))
    report = Report()

    # prerequisite: each action triple is a quasi-trimodule over its algebra
    modB = BihomModule(mp.B.dim, mp.B.alpha1, mp.B.alpha2)
    modA = BihomModule(mp.A.dim, mp.A.alpha1, mp.A.alpha2)
    for label, alg, mod, act in (("actA", mp.A, modB, mp.actA),
                                 ("actB", mp.B, modA, mp.actB)):
        for lr in check_trimodule(alg, mod, act, mode, "quasi",
                                  max_violations).laws:
            lr.law = f"matchedpair.prereq.{label}.{lr.law}"
            report.add(lr)

    ea = [{i: ONE} for i in range(mp.A.dim)]
    eb = [{i: ONE} for i in range(mp.B.dim)]
    names = dict(dict.fromkeys("xyz", ea), **dict.fromkeys("abc", eb),
                 A1=mp.A._alpha1_cols, A2=mp.A._alpha2_cols,
                 B1=mp.B._alpha1_cols, B2=mp.B._alpha2_cols,
                 muA=mp.A.mu_vec, muB=mp.B.mu_vec,
                 LA=mp.actA.op_L, RA=mp.actA.op_R, MA=mp.actA.op_M,
                 LB=mp.actB.op_L, RB=mp.actB.op_R, MB=mp.actB.op_M)
    prefix = "mp" if mode == "total" else "pp"
    conditions = [LawReport(f"matchedpair.{mode}.{prefix}{num}",
                            f"{prefix}{num}") for num in CONDITIONS]
    report.laws += conditions
    check_identities(conditions, CONDITIONS.values(), "xyzabc", names,
                     mode_residuals(mode, VECTOR, chained=True)[0],
                     module_vec_str, max_violations)

    if full:
        # the braiding and intertwining laws of both action triples
        def laws(nums):
            added = [LawReport(f"matchedpair.full.{prefix}{num}.i{k}",
                               f"{prefix}{num}") for num in nums for k in (1, 2)]
            report.laws.extend(added)
            return added

        cap = max_violations
        braiding_laws(mp.A, modB, mp.actA, laws(["21"]), cap)
        braiding_laws(mp.B, modA, mp.actB, laws(["22"]), cap)
        intertwining_laws(mp.A, modB, mp.actA, laws(["23", "24", "25"]), cap)
        intertwining_laws(mp.B, modA, mp.actB, laws(["26", "27", "28"]), cap)
    return report


def bicrossed_product(mp: MatchedPairData) -> TernaryHomAlgebra:
    """The eight-term block product on A + B; no laws are checked here."""
    return block_product(mp.A, mp.B, mp.actA, mp.actB)
