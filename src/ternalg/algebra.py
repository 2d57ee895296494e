"""Finite-dimensional ternary hom-algebras given by structure constants.

An algebra of dimension ``n`` stores a trilinear product ``mu`` as a sparse
tensor ``mu[(r, s, t)][l]`` (0-based): the coefficient of ``e_l`` in
``mu(e_r, e_s, e_t)``.  Two twist endomorphisms ``alpha1`` and ``alpha2``
are kept as dense matrices whose columns are images of basis vectors.

Checkers never reconcile a failing identity: every nonzero residual is
reported with its 1-based basis index tuple.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial, reduce
from itertools import product

from .linalg import (
    PAIR_ONE,
    PAIR_ZERO,
    Matrix,
    SparseVec,
    drop_zeros,
    mat_check_size,
    mat_columns,
    mat_identity,
    mat_invertible,
    mat_is_identity,
    mat_radicand,
    pair_add_scaled,
    pair_add_shifted,
    pair_dot,
    pair_first_two,
    pair_nonzero,
    pair_pack,
    pair_trilinear,
    trilinear,
    vec_add_into,
)
from .report import (
    DEFAULT_MAX_VIOLATIONS,
    LawReport,
    Report,
    check_laws,
    check_packed,
    itself,
    vec_str,
)
from .scalars import (
    ONE as _ONE,
    ZERO as _ZERO,
    RadicandMismatch,
    join_radicands,
    lift,
    unlift,
)

MuTensor = dict  # dict[tuple[int, int, int], SparseVec]


class PreconditionNotClassical(ValueError):
    """A construction requiring identity twists was given a twisted input."""


class NotEndomorphism(ValueError):
    """The proposed twist map does not respect the product."""

    def __init__(self, triple: tuple):
        self.triple = triple
        super().__init__(f"map is not multiplicative on basis triple {triple}")


class TernaryHomAlgebra:
    def __init__(self, dim: int, mu: MuTensor, alpha1: Matrix, alpha2: Matrix,
                 radicand: int = 1):
        self.dim = dim
        self.mu = drop_zeros(mu)
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.radicand = radicand
        self._alpha1_cols = mat_columns(alpha1)
        self._alpha2_cols = mat_columns(alpha2)

    # -- product --------------------------------------------------------

    def mu_basis(self, r: int, s: int, t: int) -> SparseVec:
        return self.mu.get((r, s, t), {})

    def mu_vec(self, x: SparseVec, y: SparseVec, z: SparseVec) -> SparseVec:
        return trilinear(self.mu, x, y, z)

    # left / middle / right multiplication operators
    def op_L(self, x: SparseVec, y: SparseVec, z: SparseVec) -> SparseVec:
        return self.mu_vec(x, y, z)

    def op_R(self, x: SparseVec, y: SparseVec, z: SparseVec) -> SparseVec:
        return self.mu_vec(z, x, y)

    def op_M(self, x: SparseVec, y: SparseVec, z: SparseVec) -> SparseVec:
        return self.mu_vec(x, z, y)

    def is_classical(self) -> bool:
        return mat_is_identity(self.alpha1) and mat_is_identity(self.alpha2)

    # -- associativity --------------------------------------------------

    def check_associativity(self, mode: str = "total",
                            max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
        n = self.dim
        # weak mode compares t1 and t3 only
        return check_packed("assoc", ("qt1a", "qt1b", "qp1", "qw1"), mode,
                            (self.mu, self._alpha1_cols, self._alpha2_cols),
                            partial(_assoc_rows, n, mode != "weak"), n,
                            lambda row, k: row + divmod(k, n), vec_str,
                            max_violations)

    # -- multiplicativity of the twists ---------------------------------

    def check_multiplicativity(self, max_violations: int = DEFAULT_MAX_VIOLATIONS
                               ) -> Report:
        laws = (("multiplicative:alpha1", "mult1", self._alpha1_cols),
                ("multiplicative:alpha2", "mult2", self._alpha2_cols))
        return Report(list(intertwining(
            [(LawReport(name, tag), cols, self.mu, self.mu, (cols,) * 3)
             for name, tag, cols in laws], max_violations)))

    def multiplication_operators(self, x: SparseVec, y: SparseVec
                                 ) -> tuple[Matrix, Matrix, Matrix]:
        """Matrices of z -> mu(x,y,z), z -> mu(z,x,y), z -> mu(x,z,y)."""
        return tuple(self.operator_matrix(op, x, y)
                     for op in (self.op_L, self.op_R, self.op_M))

    def operator_matrix(self, op, x: SparseVec, y: SparseVec) -> Matrix:
        """Matrix of z -> op(x, y, z) for one of op_L, op_R, op_M."""
        n = self.dim
        cols = [op(x, y, {j: _ONE}) for j in range(n)]
        return [[cols[j].get(i, _ZERO) for j in range(n)] for i in range(n)]

    # -- constructions --------------------------------------------------

    def yau_twist(self, rho: Matrix) -> "TernaryHomAlgebra":
        """Twist a classical ternary algebra along an endomorphism rho."""
        mat_check_size(rho, self.dim)
        if not self.is_classical():
            raise PreconditionNotClassical(
                "Yau twist requires identity twist maps on the input")
        # an irrational endomorphism widens the scalar field of the result
        radicand = mat_radicand(rho, self.radicand)
        if self.radicand not in (1, radicand):
            raise RadicandMismatch(
                f"sqrt({self.radicand}) vs sqrt({radicand})")
        cols = mat_columns(rho)
        probe = next(intertwining(
            [(LawReport("endomorphism", "endo"), cols, self.mu, self.mu,
              (cols,) * 3)], 1))
        if probe.violations:
            raise NotEndomorphism(probe.violations[0].index)
        mu_new: MuTensor = {}
        for key, vec in self.mu.items():
            out = mu_new[key] = {}
            for j, c in vec.items():
                vec_add_into(out, cols[j], c)
        return TernaryHomAlgebra(self.dim, mu_new, rho, rho, radicand)


def _assoc_rows(n: int, middle: bool, mu: dict, a1: dict, a2: dict, d: int,
                w: int):
    """The rows (i1, i2, i3) of ``check_associativity`` for
    ``report.check_packed``, every tuple (i4, i5) in the space of each; a
    row whose members are all zero only if it is the last.  ``mu``,
    ``a1`` and ``a2`` are the lifted tables, and t2 is left zero unless
    ``middle``.

    Each member is packed over (i4, i5, l) with ``w``-bit slots.  It is
    the sum over m of a packed inner product coefficient times a table
    entry, each filled on first use by one ``pair_trilinear`` call,
    packed over l:

    - t1: x_m = mu(e_i1, e_i2, e_i3)_m times A[m] = mu(e_m, a1 ., a2 .);
    - t2: y_m = mu(e_i2, e_i3, .)_m times B[i1][m] = mu(a1 e_i1, e_m, a2 .);
    - t3: z_m = mu(e_i3, ., .)_m times C[i1, i2][m] = mu(a1 e_i1, a2 e_i2, e_m);

    where a dot stands for the free i4 (slot block n^2), i5 (block n) or
    both.  The twists enter as their rows packed over those blocks, so a
    product of packed ints is a sum of shifted copies, as in Kronecker
    substitution.
    """
    if not mu:
        return  # every member of every row is empty
    wn, nn = w * n, n * n
    space = (((1 << wn * nn) - 1) // ((1 << wn) - 1),)  # 1 in every tuple
    # the twists' rows, a1 over i4 and a2 over i5; the inner products of
    # t2 and t3, mu(e_r, e_s, .) over i4 and mu(e_r, ., .) over (i4, i5)
    rows1, rows2, Y, Z = {}, {}, {}, {}
    for rows, cols, block in ((rows1, a1, wn * n), (rows2, a2, wn)):
        for i, col in cols.items():
            for k, (a, b) in col.items():
                pair_add_shifted(rows, k, a, b, block * i)
    for (r, s, t), vec in mu.items():
        y, z = Y.setdefault((r, s), {}), Z.setdefault(r, {})
        for m, (a, b) in vec.items():
            pair_add_shifted(y, m, a, b, wn * n * t)
            pair_add_shifted(z, m, a, b, wn * (s * n + t))
    A, B, C, end = {}, {}, {}, (n - 1,) * 3
    for row in product(range(n), repeat=3):
        i1, i2, i3 = row
        x = mu.get(row)
        c1, c2 = a1[i1], a2[i2]
        y = middle and c1 and Y.get((i2, i3))
        z = c1 and c2 and Z.get(i3)
        if not (x or y or z):
            if row == end:
                yield row, None, space
            continue
        t1 = t2 = t3 = PAIR_ZERO
        if x:
            for m in x:
                if m not in A:
                    A[m] = pair_pack(pair_trilinear(mu, {m: PAIR_ONE}, rows1,
                                                    rows2, d), w)
            t1 = pair_dot(x, A, d)
        if y:
            b = B.get(i1) or B.setdefault(i1, {})
            for m in y:
                if m not in b:
                    b[m] = pair_pack(pair_trilinear(mu, c1, {m: PAIR_ONE},
                                                    rows2, d), w)
            t2 = pair_dot(y, b, d)
        if z:
            c = C.get((i1, i2)) or C.setdefault((i1, i2), {})
            for m in z:
                if m not in c:
                    c[m] = pair_pack(pair_trilinear(mu, c1, c2, {m: PAIR_ONE},
                                                    d), w)
            t3 = pair_dot(z, c, d)
        yield row, (t1, t2, t3), space


def intertwining(laws, cap: int, basis: str = "e") -> Iterator[LawReport]:
    """Record g src(e_i, e_j, ...) - dst(f1 e_i, f2 e_j, ...) for each law
    ``(lr, g, src, dst, maps)`` of ``laws`` in its report ``lr`` and yield
    ``lr``; the next law is taken only when the generator is resumed.

    ``src`` and ``dst`` are tensors of arity 3, keyed in the order the
    index runs, or lists of columns, of arity 1; ``g`` and the maps f_k are
    matrices given by their columns (``mat_columns``), and index k runs
    over the basis that f_k = ``maps[k]`` acts on.  Each distinct table is
    lifted once per call.  The side g src carries the denominators
    D_g D_src and dst(f1 ., ...) carries D_dst D_f1 ..., so each side is
    scaled by the other's before the two are compared, and a residual
    becomes scalars only when it is recorded.  dst with its first two slots
    filled by f1 e_i and f2 e_j is kept per (i, j) from first use.
    """
    seen = {}  # id -> the object, kept so that the id stays its own, and
    # its lift

    def lifted(obj):
        hit = seen.get(id(obj))
        if hit is None:
            hit = seen[id(obj)] = obj, lift(obj)
        return hit[1]

    for lr, g, src, dst, maps in laws:
        parts = [lifted(table) for table in (g, src, dst, *maps)]
        d = reduce(join_radicands, {rad for rad, _ in parts})
        (dg, g_cols), (ds, s), (dt, t), *fs = [table for _, table in parts]
        left, right = dt, dg * ds
        for den, _ in fs:
            left *= den
        *first, last = [cols for _, cols in fs]
        inner = {}  # dst(f1 e_i, f2 e_j, e_u) by (i, j), then by u

        def members(idx):
            out = {}
            k = idx[-1]
            x = s.get(idx if first else k)
            if x:
                for m, (a, b) in x.items():
                    pair_add_scaled(out, g_cols[m], a * left, b * left, d)
            if first:
                head = idx[:2]
                part = inner.get(head)
                if part is None:
                    part = inner[head] = pair_first_two(
                        t, first[0][idx[0]], first[1][idx[1]], len(last), d)
            else:
                part = t
            for u, (a, b) in last[k].items():
                vec = part[u]
                if vec:
                    pair_add_scaled(out, vec, -a * right, -b * right, d)
            return pair_nonzero(out)

        scale = left * right
        check_laws([lr], [itself], product(*[range(len(f)) for f in maps]),
                   members,
                   lambda res: vec_str(unlift(res, scale, d), basis),
                   cap)
        yield lr


def twist_intertwining(f_cols: list, a, b, kind: str, tag: str) -> list:
    """The laws f a.alpha_k = b.alpha_k f, for k = 1, 2, as ``intertwining``
    takes them, checked column by column; ``f_cols`` are the columns of f.

    ``a`` and ``b`` are algebras or coalgebras; the laws are named
    ``{kind}:twist1`` and ``{kind}:twist2`` and tagged ``{tag}2``,
    ``{tag}3``.
    """
    return [(LawReport(f"{kind}:twist{k}", f"{tag}{k + 1}"), f_cols, acols,
             bcols, (f_cols,))
            for k, acols, bcols in ((1, a._alpha1_cols, b._alpha1_cols),
                                    (2, a._alpha2_cols, b._alpha2_cols))]


def morphism_laws(f: Matrix, a: TernaryHomAlgebra, b: TernaryHomAlgebra,
                  cap: int) -> Iterator[LawReport]:
    """The laws of an algebra morphism, each checked when it is reached."""
    mat_check_size(f, a.dim, b.dim)
    f_cols = mat_columns(f)

    def laws():
        yield (LawReport("morphism:product", "mor1"), f_cols, a.mu, b.mu,
               (f_cols,) * 3)
        yield from twist_intertwining(f_cols, a, b, "morphism", "mor")

    return intertwining(laws(), cap)


def check_algebra_morphism(f: Matrix, a: TernaryHomAlgebra, b: TernaryHomAlgebra,
                           max_violations: int = DEFAULT_MAX_VIOLATIONS) -> Report:
    """f respects products and intertwines the twists of a and b."""
    return Report(list(morphism_laws(f, a, b, max_violations)))


def is_algebra_isomorphism(f: Matrix, a: TernaryHomAlgebra,
                           b: TernaryHomAlgebra) -> bool:
    return all(lr.passed for lr in morphism_laws(f, a, b, 1)) \
        and mat_invertible(f)


def classical(dim: int, mu: MuTensor, radicand: int = 1) -> TernaryHomAlgebra:
    ident = mat_identity(dim)
    return TernaryHomAlgebra(dim, mu, ident, ident, radicand)
