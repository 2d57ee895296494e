"""Bihom-modules, trimodule actions, and the block products built on them.

A bihom-module is a space with two designated self-maps.  Trimodule
actions of an algebra A on a module V are stored uncurried and sparse:

    L[(a, b, w)]  image of e_a x e_b x f_w   (A x A x V -> V)
    R[(w, a, b)]  image of f_w x e_a x e_b   (V x A x A -> V)
    M[(a, w, b)]  image of e_a x f_w x e_b   (A x V x A -> V)

each value a sparse vector over the V basis.  The curried operator calls
mirror the algebra side: op_L(x, y)(v), op_R(x, y)(v) with v in the first
tensor slot, op_M(x, y)(v) with v in the middle slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .algebra import MuTensor, TernaryHomAlgebra, intertwining
from .linalg import (
    Matrix,
    SparseVec,
    mat_block_diag,
    mat_check_size,
    mat_columns,
    trilinear,
)
from .report import (
    DEFAULT_MAX_VIOLATIONS,
    VECTOR,
    LawReport,
    Report,
    check_identities,
    check_mode,
    difference,
    mode_residuals,
    vec_str,
)
from .scalars import ONE

ActionTensor = dict  # dict[tuple[int, int, int], SparseVec]


class NotMultiplicative(ValueError):
    """Regular actions require twist maps respecting the product."""


@dataclass
class BihomModule:
    dim: int
    beta1: Matrix
    beta2: Matrix

    def __post_init__(self):
        mat_check_size(self.beta1, self.dim)
        mat_check_size(self.beta2, self.dim)


@dataclass
class TrimoduleActions:
    L: ActionTensor = field(default_factory=dict)
    R: ActionTensor = field(default_factory=dict)
    M: ActionTensor = field(default_factory=dict)

    def op_L(self, x: SparseVec, y: SparseVec, v: SparseVec) -> SparseVec:
        return trilinear(self.L, x, y, v)

    def op_R(self, x: SparseVec, y: SparseVec, v: SparseVec) -> SparseVec:
        return trilinear(self.R, v, x, y)

    def op_M(self, x: SparseVec, y: SparseVec, v: SparseVec) -> SparseVec:
        return trilinear(self.M, x, v, y)


# residuals on the module's basis f1, f2, ...
module_vec_str = partial(vec_str, basis="f")


# The trimodule laws as written identities (``report.compile_identity``):
# a, b, c, d run over the basis of A and v over that of V; a1, a2 are the
# twists of A, b1, b2 those of V, and mu is the product of A.
TRIMODULE = {
    "1": "L(a1(a), a2(b), L(c, d, v)) == L(mu(a, b, c), a1(d), b2(v))"
         " == L(a1(a), mu(b, c, d), b2(v))",
    "2": "R(a1(c), a2(d), R(a, b, v)) == R(a2(a), mu(b, c, d), b1(v))"
         " == R(mu(a, b, c), a2(d), b1(v))",
    "4": "M(a1(a), a2(d), L(b, c, v)) == L(a1(a), a2(b), M(c, d, v))"
         " == M(mu(a, b, c), a2(d), b1(v))",
    "5": "M(a1(a), a2(d), R(b, c, v)) == R(a1(c), a2(d), M(a, b, v))"
         " == M(a1(a), mu(b, c, d), b2(v))",
    "6": "R(a1(c), a2(d), L(a, b, v)) == L(a1(a), a2(b), R(c, d, v))"
         " == M(a1(a), a2(d), M(b, c, v))",
}
# The braiding of the middle action, law 3 with beta1 and law 3.2 with
# beta2; x, y and z run over the basis of A too.
BRAIDING = [
    "M(a1(a), a2(z), M(a1(b), a2(y), M(a1(c), a2(x), b1(v))))"
    " == M(mu(a1(a), a1(b), a1(c)), mu(a2(x), a2(y), a2(z)), b1(v))",
    "M(a1(a), a2(z), M(a1(b), a2(y), M(a1(c), a2(x), b2(v))))"
    " == M(mu(a1(a), a1(b), a1(c)), mu(a2(x), a2(y), a2(z)), b2(v))",
]


def _names(alg: TernaryHomAlgebra, mod: BihomModule,
           act: TrimoduleActions) -> dict:
    """The namespace ``TRIMODULE`` and ``BRAIDING`` are written in."""
    ea = [{i: ONE} for i in range(alg.dim)]
    return dict(dict.fromkeys("abcdxyz", ea),
                v=[{i: ONE} for i in range(mod.dim)],
                a1=alg._alpha1_cols, a2=alg._alpha2_cols,
                b1=mat_columns(mod.beta1), b2=mat_columns(mod.beta2),
                mu=alg.mu_vec, L=act.op_L, R=act.op_R, M=act.op_M)


def check_trimodule(alg: TernaryHomAlgebra, mod: BihomModule,
                    act: TrimoduleActions, mode: str = "total",
                    level: str = "quasi",
                    max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    """Verify the compatibility equations of the actions, one sub-law each.

    mode 'total' checks the chained equalities, 'partial' the three-term
    sums; level 'full' adds the braiding and twist-intertwining equations
    (identical in both modes).
    """
    check_mode(mode, ("total", "partial"))
    if level not in ("quasi", "full"):
        raise ValueError(f"unknown level {level!r}")
    prefix = "tr" if mode == "total" else "pr"
    report = Report([LawReport(f"trimodule.{prefix}{num}", f"{prefix}{num}")
                     for num in TRIMODULE])
    check_identities(report.laws, TRIMODULE.values(), "abcdv",
                     _names(alg, mod, act),
                     mode_residuals(mode, VECTOR, chained=True)[0],
                     module_vec_str, max_violations)

    if level == "full":
        braids = [LawReport(f"trimodule.{prefix}{num}", f"{prefix}{num}")
                  for num in ("3", "3.2")]
        twines = [LawReport(f"trimodule.{prefix}{num}.{which}",
                            f"{prefix}{num}")
                  for num in ("7", "8", "9") for which in ("beta1", "beta2")]
        report.laws += braids + twines
        braiding_laws(alg, mod, act, braids, max_violations)
        intertwining_laws(alg, mod, act, twines, max_violations)
    return report


def braiding_laws(alg: TernaryHomAlgebra, mod: BihomModule,
                  act: TrimoduleActions, laws: list[LawReport],
                  cap: int) -> None:
    """The two ``BRAIDING`` identities, for beta = beta1 and beta2."""
    check_identities(laws, BRAIDING, "abcxyzv", _names(alg, mod, act),
                     difference, module_vec_str, cap)


def intertwining_laws(alg: TernaryHomAlgebra, mod: BihomModule,
                      act: TrimoduleActions, laws: list[LawReport],
                      cap: int) -> None:
    """gamma op(a, b, v) = op(a1 a, a2 b, gamma v), one law per pair of
    op = L, M, R and gamma = beta1, beta2, in that order."""
    # each action keyed in the order its index runs, (a, b, v)
    ops = (act.L, {(a, b, v): vec for (a, v, b), vec in act.M.items()},
           {(a, b, v): vec for (v, a, b), vec in act.R.items()})
    twists = alg._alpha1_cols, alg._alpha2_cols
    pairs = product(ops, (mat_columns(mod.beta1), mat_columns(mod.beta2)))
    for _ in intertwining(((lr, gamma, op, op, (*twists, gamma))
                           for lr, (op, gamma) in zip(laws, pairs)),
                          cap, "f"):
        pass


def regular_actions(alg: TernaryHomAlgebra, which: str = "lmr"
                    ) -> tuple[BihomModule, TrimoduleActions]:
    """Actions of the algebra on itself by the three multiplications."""
    if which not in ("left", "right", "lmr"):
        raise ValueError(f"unknown action choice {which!r}")
    if not alg.check_multiplicativity(max_violations=1).passed:
        raise NotMultiplicative("twist maps do not respect the product")
    mod = BihomModule(alg.dim, alg.alpha1, alg.alpha2)
    # L, R and M are each a copy of mu, or empty, as ``which`` asks
    copies = [{key: dict(out) for key, out in alg.mu.items()} if on else {}
              for on in (which != "right", which != "left", which == "lmr")]
    return mod, TrimoduleActions(*copies)


def block_product(A: TernaryHomAlgebra, B: TernaryHomAlgebra,
                  actA: TrimoduleActions, actB: TrimoduleActions
                  ) -> TernaryHomAlgebra:
    """The product on A + B built from mu_A, mu_B and the six actions.

    ``actA`` lets A act on B and ``actB`` lets B act on A, in the slot
    layout of ``TrimoduleActions``.  The eight tensors say which slots
    index B in eight different ways, so each fills a block of its own.
    """
    n = A.dim
    mu: MuTensor = {}
    # (tensor, offsets of its three argument slots, offset of its output)
    for tensor, (i, j, k), out in (
            (A.mu, (0, 0, 0), 0), (B.mu, (n, n, n), n),
            (actB.L, (n, n, 0), 0), (actB.M, (n, 0, n), 0),
            (actB.R, (0, n, n), 0),
            (actA.L, (0, 0, n), n), (actA.M, (0, n, 0), n),
            (actA.R, (n, 0, 0), n)):
        for (r, s, t), vec in tensor.items():
            mu[(i + r, j + s, k + t)] = {out + l: c for l, c in vec.items()}
    return TernaryHomAlgebra(n + B.dim, mu,
                             mat_block_diag(A.alpha1, B.alpha1),
                             mat_block_diag(A.alpha2, B.alpha2), A.radicand)


def semidirect_product(alg: TernaryHomAlgebra, mod: BihomModule,
                       act: TrimoduleActions) -> TernaryHomAlgebra:
    """The block product of A with V as the zero algebra twisted by beta."""
    zero = TernaryHomAlgebra(mod.dim, {}, mod.beta1, mod.beta2)
    return block_product(alg, zero, act, TrimoduleActions())
