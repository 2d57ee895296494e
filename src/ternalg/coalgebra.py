"""Finite-dimensional ternary hom-coalgebras given by structure constants.

A coalgebra of dimension ``n`` stores its coproduct as a sparse tensor
``delta[l][(r, s, t)]`` (0-based): the coefficient of ``e_r x e_s x e_t``
in ``Delta(e_l)``.  Twist endomorphisms ``alpha1`` and ``alpha2`` follow
the same column convention as everywhere else.

The normative coassociativity checker works at the level of maps: for each
``l`` it packs the three patterns ``(Delta x a1 x a2) Delta(e_l)`` and
friends, rank-5 tensors, into Python ints, which ``report.check_packed``
compares whole.  The index-level identities are provided as an
independent second encoding and are evaluated exactly as displayed;
disagreement between the two encodings is reported, never reconciled.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .algebra import intertwining, twist_intertwining
from .linalg import (
    Matrix,
    SparseVec,
    drop_zeros,
    mat_columns,
    mat_identity,
    mat_invertible,
    pair_pack,
    pair_width,
    vec_add_at,
    vec_sub,
)
from .report import (
    DEFAULT_MAX_VIOLATIONS,
    SCALAR,
    LawReport,
    Report,
    check_laws,
    check_packed,
    itself,
    mode_laws,
    mode_residuals,
)
from .scalars import ZERO, lift, unlift

DeltaTensor = dict  # dict[int, dict[tuple[int, int, int], QuadScalar]]
Tensor3 = dict  # dict[tuple[int, int, int], QuadScalar]


class TernaryHomCoalgebra:
    def __init__(self, dim: int, delta: DeltaTensor, alpha1: Matrix,
                 alpha2: Matrix, radicand: int = 1):
        self.dim = dim
        self.delta = drop_zeros(delta)
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.radicand = radicand
        self._alpha1_cols = mat_columns(alpha1)
        self._alpha2_cols = mat_columns(alpha2)

    def delta_basis(self, l: int) -> Tensor3:
        return self.delta.get(l, {})

    def delta_vec(self, v: SparseVec) -> Tensor3:
        out: Tensor3 = {}
        for l, coeff in v.items():
            for key, c in self.delta_basis(l).items():
                vec_add_at(out, key, coeff * c)
        return out

    # -- coassociativity -------------------------------------------------

    def check_coassociativity(self, mode: str = "total",
                              max_violations: int = DEFAULT_MAX_VIOLATIONS
                              ) -> Report:
        laws = mode_laws("coassoc", ("ct1a", "ct1b", "cq1", "cw1"), mode)
        d, (den, delta), (den1, a1), (den2, a2) = lift(
            self.delta, self._alpha1_cols, self._alpha2_cols)
        # each pattern has degree Delta^2 alpha1 alpha2: one scale for all
        scale = den * den * den1 * den2
        n, w = self.dim, pair_width(d, delta, a1, a2)
        check_packed(laws, mode, _coassoc_rows(n, delta, a1, a2, d, w),
                     w, 1, lambda l, slot: _key(l, slot, n),
                     lambda res: str(unlift(*res[0], scale, d)),
                     max_violations)
        return Report(laws)

    # -- comultiplicativity ----------------------------------------------

    def check_comultiplicativity(self, max_violations: int = DEFAULT_MAX_VIOLATIONS
                                 ) -> Report:
        return Report([
            _comorphism_defects(LawReport(name, tag), self, cols, self,
                                max_violations)
            for name, tag, cols in (
                ("comultiplicative:alpha1", "comult1", self._alpha1_cols),
                ("comultiplicative:alpha2", "comult2", self._alpha2_cols))])

    # -- index-level identities ------------------------------------------

    def structure_identity_check(self, mode: str = "total",
                                 max_violations: int = DEFAULT_MAX_VIOLATIONS
                                 ) -> Report:
        """The displayed structure-constant identities, taken literally.

        Free indices i, j, k, s, t, l, p, q; the only bound index is r.
        In every mode the residual at (i, j, k, s, t, l, p, q), summed over
        s and t, is the residual of ``check_coassociativity`` at
        (l; i, j, k, q, p).  A pass here therefore implies a map-level
        pass; the converse fails when terms cancel only across s or t.
        """
        laws = mode_laws("structure", ("q3a", "q3b", "q2", "q4"), mode)
        a1, a2 = self._alpha1_cols, self._alpha2_cols

        # accumulate each term sparsely over the nonzero coproduct entries;
        # every tuple where all three terms vanish satisfies every variant.
        # Term m puts Delta(e_inner) at places m to m+2 of (i, j, k, q, p)
        # and the twist indices u, v at the other two.
        terms = ({}, {}, {})

        for l, tens in self.delta.items():
            for (r, s, t), c_lrst in tens.items():
                for m, inner, x, y in ((0, r, a1[s], a2[t]),
                                       (1, s, a1[r], a2[t]),
                                       (2, t, a1[r], a2[s])):
                    for key, c_in in self.delta.get(inner, {}).items():
                        for u, xu in x.items():
                            for v, yv in y.items():
                                i, j, k, q, p = (u, v)[:m] + key + (u, v)[m:]
                                vec_add_at(terms[m], (i, j, k, s, t, l, p, q),
                                           c_lrst * c_in * xu * yv)

        check_laws(laws, mode_residuals(mode, SCALAR),
                   sorted(set().union(*terms)),
                   lambda key: tuple(t.get(key, ZERO) for t in terms),
                   str, max_violations)
        return Report(laws)


def _coassoc_rows(n: int, delta: dict, a1: dict, a2: dict, d: int, w: int):
    """The rows l of ``check_coassociativity`` for ``report.check_packed``;
    ``delta``, ``a1`` and ``a2`` are the lifted tables.

    Row l packs the three patterns applied to Delta(e_l) over
    (i, j, k, q, p) with ``w``-bit slots, and its space is the tuples where
    some pattern is nonzero.  Each pattern puts Delta in one slot and the
    twists in the other two; it is built from Delta(e_r) packed at stride
    n^2, n or 1, one copy moved up by (q, p) for each term of Delta(e_l)
    and each entry q, p of the two twist columns.
    """
    if not delta:
        return  # every pattern of every row is empty
    nn, n3 = n * n, n ** 3
    # pattern m: stride of Delta's (i, j, k), then where q and p go
    layouts = ((nn, n, 1), (n, n3 * n, 1), (1, n3 * n, n3))
    packed = ({}, {}, {})  # Delta(e_r) at each pattern's stride
    for l in range(n):
        entries = delta.get(l)
        if not entries:
            continue
        ints = [0] * 6  # a and b of each pattern
        for (r, s, t), (ca, cb) in entries.items():
            for m, inner, x, y in ((0, r, a1[s], a2[t]), (1, s, a1[r], a2[t]),
                                   (2, t, a1[r], a2[s])):
                if inner not in delta:
                    continue
                stride, qs, ps = layouts[m]
                va, vb = packed[m].get(inner) or packed[m].setdefault(
                    inner, pair_pack({((i * n + j) * n + k) * stride: ab
                                      for (i, j, k), ab
                                      in delta[inner].items()}, w))
                for q, (qa, qb) in x.items():
                    xa, xb = ca * qa + d * cb * qb, ca * qb + cb * qa
                    for p, (pa, pb) in y.items():
                        ya, yb = xa * pa + d * xb * pb, xa * pb + xb * pa
                        shift = w * (q * qs + p * ps)
                        ints[2 * m] += (ya * va + d * yb * vb) << shift
                        ints[2 * m + 1] += (ya * vb + yb * va) << shift
        if any(ints):
            yield l, tuple(zip(ints[::2], ints[1::2])), ints


def _key(l: int, slot: int, n: int) -> tuple:
    """The index tuple (l, i, j, k, q, p) of a slot of a packed pattern."""
    ijk, qp = divmod(slot, n * n)
    ij, k = divmod(ijk, n)
    return (l, *divmod(ij, n), k, *divmod(qp, n))


def comorphism_laws(f: Matrix, c1: TernaryHomCoalgebra,
                    c2: TernaryHomCoalgebra, cap: int
                    ) -> Iterator[LawReport]:
    """The laws of a coalgebra morphism, each checked when it is reached."""
    if not c1.dim == c2.dim == len(f):
        raise ValueError("dimension mismatch")
    cols = mat_columns(f)
    yield _comorphism_defects(LawReport("comorphism:coproduct", "comor1"),
                              c1, cols, c2, cap)
    yield from intertwining(
        twist_intertwining(cols, c1, c2, "comorphism", "comor"), cap)


def check_coalgebra_morphism(f: Matrix, c1: TernaryHomCoalgebra,
                             c2: TernaryHomCoalgebra,
                             max_violations: int = DEFAULT_MAX_VIOLATIONS
                             ) -> Report:
    """(f x f x f) Delta1 = Delta2 f, plus twist intertwining."""
    return Report(list(comorphism_laws(f, c1, c2, max_violations)))


def is_coalgebra_isomorphism(f: Matrix, c1: TernaryHomCoalgebra,
                             c2: TernaryHomCoalgebra) -> bool:
    return all(lr.passed for lr in comorphism_laws(f, c1, c2, 1)) \
        and mat_invertible(f)


def tensor3_map(f1: Matrix, f2: Matrix, f3: Matrix, t: Tensor3) -> Tensor3:
    """Apply (f1 x f2 x f3) slotwise to a rank-3 tensor."""
    return tensor3_apply(mat_columns(f1), mat_columns(f2), mat_columns(f3), t)


def tensor3_apply(cols1: list, cols2: list, cols3: list,
                  t: Tensor3) -> Tensor3:
    """``tensor3_map`` for maps given as their lists of sparse columns."""
    out: Tensor3 = {}
    for (r, s, tt), c in t.items():
        for i, v1 in cols1[r].items():
            for j, v2 in cols2[s].items():
                cv = c * v1 * v2
                for k, v3 in cols3[tt].items():
                    vec_add_at(out, (i, j, k), cv * v3)
    return out


def _comorphism_defects(lr: LawReport, src: TernaryHomCoalgebra, cols: list,
                        dst: TernaryHomCoalgebra, cap: int) -> LawReport:
    """(f x f x f) Delta_src(e_l) - Delta_dst(f e_l), entry by entry;
    ``cols`` are the columns of f."""

    @lru_cache(maxsize=1)
    def residual(l):
        return vec_sub(tensor3_apply(cols, cols, cols, src.delta_basis(l)),
                       dst.delta_vec(cols[l]))

    indices = ((l,) + key for l in range(src.dim) for key in sorted(residual(l)))
    check_laws([lr], [itself], indices, lambda idx: residual(idx[0])[idx[1:]],
               str, cap)
    return lr


def classical_coalgebra(dim: int, delta: DeltaTensor,
                        radicand: int = 1) -> TernaryHomCoalgebra:
    ident = mat_identity(dim)
    return TernaryHomCoalgebra(dim, delta, ident, ident, radicand)
