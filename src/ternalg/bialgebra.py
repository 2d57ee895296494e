"""Ternary infinitesimal bialgebras over shared twist maps.

The compatibility law between product and coproduct is implemented three
times on purpose: as the element-form identity with the three
multiplication operators (normative), as the exchange-operator rewriting
that permutes a rank-5 tensor (secondary oracle), and as the published
structure-constant identity evaluated verbatim over its free indices
(secondary oracle).  The verdicts of the secondary encodings are compared
against the first, never substituted for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import TernaryHomAlgebra, morphism_laws
from .coalgebra import TernaryHomCoalgebra, Tensor3, comorphism_laws
from .duality import dualize_algebra, dualize_coalgebra
from .linalg import (
    PAIR_ZERO,
    Matrix,
    mat_invertible,
    pair_add_scaled,
    pair_first_two,
    pair_nonzero,
    vec_add_at,
)
from .report import (
    DEFAULT_MAX_VIOLATIONS,
    LawReport,
    Report,
    Violation,
    check_laws,
    difference,
    itself,
)
from .scalars import ONE, ZERO, lift, unlift


class MismatchedStructures(ValueError):
    """Product and coproduct must live on one space with shared twists."""


@dataclass
class TernaryBialgebra:
    alg: TernaryHomAlgebra
    coalg: TernaryHomCoalgebra

    def __post_init__(self):
        a, c = self.alg, self.coalg
        if a.dim != c.dim:
            raise MismatchedStructures("dimension mismatch")
        if a.alpha1 != c.alpha1 or a.alpha2 != c.alpha2:
            raise MismatchedStructures("twist maps differ")
        if a.radicand != c.radicand:
            raise MismatchedStructures("radicand mismatch")

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def alpha1(self) -> Matrix:
        return self.alg.alpha1

    @property
    def alpha2(self) -> Matrix:
        return self.alg.alpha2


def bialgebra(dim, mu, delta, alpha1, alpha2, radicand=1) -> TernaryBialgebra:
    return TernaryBialgebra(
        TernaryHomAlgebra(dim, mu, alpha1, alpha2, radicand),
        TernaryHomCoalgebra(dim, delta, alpha1, alpha2, radicand))


def _t3_str(t: Tensor3) -> str:
    return "{" + ", ".join(
        f"({k[0] + 1},{k[1] + 1},{k[2] + 1}): {t[k]}" for k in sorted(t)) + "}"


def check_compatibility(bi: TernaryBialgebra,
                        max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    """Coproduct of a product equals the three-operator expansion.

    Both sides run on int pairs, each table lifted once.
    Delta(mu(e_i, e_j, e_k)) carries the denominators D_mu D_Delta and each
    operator term D_mu D_Delta (D_a1 D_a2)^2, so the left side is scaled by
    (D_a1 D_a2)^2.  An operator's columns are built once per pair of
    arguments, and only where the coproduct slot it acts on is nonempty.
    """
    n, alg = bi.dim, bi.alg
    d, (dm, mu), (dd, delta), (d1, a1), (d2, a2) = lift(
        alg.mu, bi.coalg.delta, alg._alpha1_cols, alg._alpha2_cols)
    left = (d1 * d2) ** 2
    scale = dm * dd * left
    # L, M and R as tensors keyed (x, y, z) for z -> op(x, y, z), with
    # their columns by (operator, x, y) from first use
    ops = (mu, {(r, s, z): vec for (r, z, s), vec in mu.items()},
           {(r, s, z): vec for (z, r, s), vec in mu.items()})
    built = {}

    def members(key):
        i, j, k = key
        out = {}
        for l, (a, b) in mu.get(key, {}).items():
            if l in delta:
                pair_add_scaled(out, delta[l], a * left, b * left, d)
        # L(a1 e_i, a2 e_j) on Delta(e_k) in the first tensor slot,
        # M(a1 e_i, a2 e_k) on Delta(e_j) in the middle one and
        # R(a1 e_j, a2 e_k) on Delta(e_i) in the last one
        for op, p, q, r in ((0, i, j, k), (1, i, k, j), (2, j, k, i)):
            if r in delta:
                cols = built.get((op, p, q))
                if cols is None:
                    cols = built[op, p, q] = pair_first_two(
                        ops[op], a1[p], a2[q], n, d)
                maps = [a1, a2]
                maps.insert(op, cols)
                _subtract_applied(out, *maps, delta[r], d)
        return pair_nonzero(out)

    lr = LawReport("compat", "cp1")
    check_laws([lr], [itself], itertools.product(range(n), repeat=3),
               members,
               lambda res: _t3_str(unlift(res, scale, d)),
               max_violations)
    return Report([lr])


def _subtract_applied(out: dict, cols1, cols2, cols3, t: dict,
                      d: int) -> None:
    """out -= (f1 x f2 x f3) t for the maps given by their lifted columns,
    over int pairs."""
    for (r, s, u), (ca, cb) in t.items():
        for i, (xa, xb) in cols1[r].items():
            pa, pb = ca * xa + d * cb * xb, ca * xb + cb * xa
            for j, (ya, yb) in cols2[s].items():
                qa, qb = pa * ya + d * pb * yb, pa * yb + pb * ya
                for k, (za, zb) in cols3[u].items():
                    oa, ob = out.get((i, j, k), PAIR_ZERO)
                    out[i, j, k] = (oa - qa * za - d * qb * zb,
                                    ob - qa * zb - qb * za)


def check_compatibility_sigma_form(bi: TernaryBialgebra,
                                   max_violations: int = DEFAULT_MAX_VIOLATIONS
                                   ) -> Report:
    """The exchange-operator rewriting, evaluated by literal composition.

    Each summand is expanded to a rank-5 tensor, permuted where the
    rewriting inserts the slot swap, and contracted back to rank 3.
    """
    alg, co = bi.alg, bi.coalg
    n = bi.dim
    basis = [{i: ONE} for i in range(n)]
    a1c, a2c = alg._alpha1_cols, alg._alpha2_cols

    def members(key):
        i, j, k = key
        lhs = co.delta_vec(alg.mu_basis(i, j, k))
        rhs: Tensor3 = {}
        xa, xb, xc, xb1 = a1c[i], a2c[j], a2c[k], a1c[j]

        # (mu x a1 x a2)(a1 x a2 x Delta)
        for (r, s, t), cf in co.delta_basis(k).items():
            head = alg.mu_vec(xa, xb, basis[r])
            for l, hv in head.items():
                for u, uv in a1c[s].items():
                    for v, vv in a2c[t].items():
                        vec_add_at(rhs, (l, u, v), cf * hv * uv * vv)
        # (a1 x mu x a2)(sigma x id x sigma)(a1 x Delta x a2)
        five = {}
        for p, pv in xa.items():
            for (r, s, t), cf in co.delta_basis(j).items():
                for q, qv in xc.items():
                    # slots after the swaps: (b1, a1 a, b2, a2 c, b3)
                    five[(r, p, s, q, t)] = pv * cf * qv
        for (r, p, s, q, t), cf in five.items():
            mid = alg.mu_basis(p, s, q)
            for u, uv in a1c[r].items():
                for l, lv in mid.items():
                    for v, vv in a2c[t].items():
                        vec_add_at(rhs, (u, l, v), cf * uv * lv * vv)
        # (a1 x a2 x mu)(Delta x a1 x a2)
        for (r, s, t), cf in co.delta_basis(i).items():
            tail = alg.mu_vec(basis[t], xb1, xc)
            for u, uv in a1c[r].items():
                for v, vv in a2c[s].items():
                    for l, lv in tail.items():
                        vec_add_at(rhs, (u, v, l), cf * uv * vv * lv)
        return lhs, rhs

    lr = LawReport("compat:sigma", "cp1s")
    check_laws([lr], [difference], itertools.product(range(n), repeat=3),
               members, _t3_str, max_violations)
    return Report([lr])


def compatibility_identity_check(bi: TernaryBialgebra,
                                 max_violations: int = DEFAULT_MAX_VIOLATIONS
                                 ) -> Report:
    """The published structure-constant identity, evaluated verbatim.

    Only the displayed summation index is contracted; every other index
    ranges free, including the ones a faithful re-derivation would bind.
    """
    alg, co = bi.alg, bi.coalg
    n = bi.dim

    def c(l, i, j, k):
        return alg.mu.get((i, j, k), {}).get(l, ZERO)

    def a(r, s, t, l):
        return co.delta.get(l, {}).get((r, s, t), ZERO)

    alpha1, alpha2 = alg.alpha1, alg.alpha2
    csum = {key: sum(out.values(), ZERO) for key, out in alg.mu.items()}
    y1sum = [sum((alpha1[l][r] for l in range(n)), ZERO) for r in range(n)]

    rng = range(n)

    @lru_cache(maxsize=1)
    def head_terms(head):
        i, j, k, r, s, t = head
        last = ZERO
        for l in rng:
            last = last + a(r, s, t, l) * c(l, i, j, k)
        return last, a(r, s, t, k), a(r, s, t, j), a(r, s, t, i)

    def residual(idx):
        i, j, k, r, s, t, p, q, u, v = idx
        last, a_k, a_j, a_i = head_terms(idx[:6])
        total = -last
        if a_k:
            total = total + a_k * csum.get((p, q, r), ZERO) * \
                alpha1[p][i] * alpha2[q][j] * alpha1[u][s] * alpha2[v][t]
        if a_j:
            total = total + a_j * c(u, p, s, q) * \
                alpha1[p][i] * alpha2[q][k] * y1sum[r] * alpha2[v][t]
        if a_i:
            total = total + a_i * c(v, t, p, q) * \
                alpha1[p][j] * alpha2[q][k] * y1sum[r] * alpha2[u][s]
        return total

    # a head whose four terms all vanish has only zero residuals
    indices = (head + tail for head in itertools.product(rng, repeat=6)
               if any(head_terms(head))
               for tail in itertools.product(rng, repeat=4))
    lr = LawReport("compat:constants", "cp4")
    check_laws([lr], [itself], indices, residual, str, max_violations)
    return Report([lr])


def check_bialgebra(bi: TernaryBialgebra, mode: str = "total",
                    max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    """Associativity, coassociativity, and compatibility, per mode."""
    report = Report()
    report.extend(bi.alg.check_associativity(mode, max_violations))
    report.extend(bi.coalg.check_coassociativity(mode, max_violations))
    report.extend(check_compatibility(bi, max_violations))
    return report


def sign_variant(bi: TernaryBialgebra, flip_mu: bool,
                 flip_delta: bool) -> TernaryBialgebra:
    mu = bi.alg.mu
    if flip_mu:
        mu = {key: {l: -v for l, v in out.items()} for key, out in mu.items()}
    delta = bi.coalg.delta
    if flip_delta:
        delta = {l: {key: -v for key, v in t.items()}
                 for l, t in delta.items()}
    return bialgebra(bi.dim, mu, delta, bi.alpha1, bi.alpha2,
                     bi.alg.radicand)


def dualize_bialgebra(bi: TernaryBialgebra) -> TernaryBialgebra:
    """Product and coproduct trade places on the dual basis."""
    return TernaryBialgebra(dualize_coalgebra(bi.coalg),
                            dualize_algebra(bi.alg))


def check_bialgebra_equivalence(f: Matrix, b1: TernaryBialgebra,
                                b2: TernaryBialgebra,
                                max_violations: int = DEFAULT_MAX_VIOLATIONS
                                ) -> Report:
    laws = [*morphism_laws(f, b1.alg, b2.alg, max_violations),
            *comorphism_laws(f, b1.coalg, b2.coalg, max_violations)]
    for lr in laws:
        lr.law = f"equivalence:{lr.law}"
    singular = [] if mat_invertible(f) else [Violation((), "map is singular")]
    return Report([LawReport("equivalence:invertible", "equiv0", singular),
                   *laws])


def is_bialgebra_equivalence(f: Matrix, b1: TernaryBialgebra,
                             b2: TernaryBialgebra) -> bool:
    laws = itertools.chain(morphism_laws(f, b1.alg, b2.alg, 1),
                           comorphism_laws(f, b1.coalg, b2.coalg, 1))
    return all(lr.passed for lr in laws) and mat_invertible(f)
