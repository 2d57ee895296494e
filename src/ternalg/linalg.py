"""Exact dense matrices and sparse vectors over Q(sqrt(d)).

Matrices are lists of rows of ``QuadScalar``.  Column ``j`` holds the image
of the j-th basis vector, so ``entry(k, j)`` is the coefficient of ``e_k``
in the image of ``e_j``.  Indices are 0-based throughout this module.

Vectors are sparse dicts ``{index: scalar}`` that never store zeros; the
``vec_*`` helpers also serve tensors keyed by index tuples.  The ``pair_*``
helpers do the same for vectors of the int pairs that ``scalars.lift``
makes, ``(a, b)`` for ``a + b*sqrt(d)``.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, QuadScalar

Matrix = list  # list[list[QuadScalar]]
SparseVec = dict  # dict[int, QuadScalar]


class SingularMatrix(ValueError):
    """The matrix has no inverse."""


# -- sparse vectors -----------------------------------------------------


def vec_add_into(acc: SparseVec, vec: SparseVec, coeff: QuadScalar = ONE) -> None:
    """acc += coeff * vec, dropping entries that cancel to zero."""
    if not coeff:
        return
    for i, v in vec.items():
        s = acc.get(i, ZERO) + coeff * v
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)


def vec_add_at(acc: SparseVec, key, value: QuadScalar) -> None:
    """acc[key] += value, dropping the entry if it cancels to zero."""
    old = acc.get(key)
    if old is not None:
        value = old + value
    if value:
        acc[key] = value
    elif old is not None:
        del acc[key]


def vec_sum(vecs) -> SparseVec:
    """The sum of sparse vectors, none of them scaled."""
    out: SparseVec = {}
    for vec in vecs:
        for key, value in vec.items():
            vec_add_at(out, key, value)
    return out


def vec_sub(a: SparseVec, b: SparseVec) -> SparseVec:
    """a - b as a new sparse vector."""
    if a == b:
        return {}
    out = dict(a)
    for key, value in b.items():
        old = out.get(key)
        if old is None:
            out[key] = -value
        else:
            old = old - value
            if old:
                out[key] = old
            else:
                del out[key]
    return out


def trilinear(tensor: dict, x: SparseVec, y: SparseVec,
              z: SparseVec) -> SparseVec:
    """The sum of x[r] * y[s] * z[t] * tensor[(r, s, t)] over (r, s, t).

    ``tensor`` maps index triples to sparse vectors; an entry is looked up
    before its coefficient is multiplied out.
    """
    out: SparseVec = {}
    if not z:
        return out
    for r, xr in x.items():
        for s, ys in y.items():
            c = xr * ys
            for t, zt in z.items():
                vec = tensor.get((r, s, t))
                if vec:
                    vec_add_into(out, vec, c * zt)
    return out


PAIR_ZERO = (0, 0)
PAIR_ONE = (1, 0)


def pair_trilinear(tensor: dict, x: dict, y: dict, z: dict, d: int) -> dict:
    """``trilinear`` on sparse vectors of int pairs over Q(sqrt(d))."""
    out = {}
    if not z:
        return out
    for r, (xa, xb) in x.items():
        for s, (ya, yb) in y.items():
            ca, cb = xa * ya + d * xb * yb, xa * yb + xb * ya
            for t, (za, zb) in z.items():
                vec = tensor.get((r, s, t))
                if vec:
                    ea, eb = ca * za + d * cb * zb, ca * zb + cb * za
                    for l, (va, vb) in vec.items():
                        oa, ob = out.get(l, PAIR_ZERO)
                        out[l] = (oa + ea * va + d * eb * vb,
                                  ob + ea * vb + eb * va)
    return pair_nonzero(out)


def pair_first_two(tensor: dict, x: dict, y: dict, n: int, d: int) -> list:
    """[trilinear(tensor, x, y, e_u) for u < n], on sparse vectors of int
    pairs over Q(sqrt(d))."""
    out = [{} for _ in range(n)]
    for r, (xa, xb) in x.items():
        for s, (ya, yb) in y.items():
            ca, cb = xa * ya + d * xb * yb, xa * yb + xb * ya
            for u in range(n):
                vec = tensor.get((r, s, u))
                if vec:
                    pair_add_scaled(out[u], vec, ca, cb, d)
    return out


def pair_nonzero(vec: dict) -> dict:
    """``vec`` without its zero pairs; ``vec`` itself when it has none."""
    if PAIR_ZERO in vec.values():
        return {key: v for key, v in vec.items() if v != PAIR_ZERO}
    return vec


def pair_width(d: int, tensor: dict, *maps: dict) -> int:
    """Bits per slot that hold any sum of three members, each entry a
    sum of products of one entry of ``tensor``, one of its vectors and one
    column of each map, all of int pairs over Q(sqrt(d)).

    With |a + b*sqrt(d)| read as |a| + d*|b|, which bounds |a| and |b| and
    is submultiplicative, B is the largest norm of a vector of ``tensor``
    times its largest entry times the largest norm of a column of each
    map, and the width is the bit length of 3*B plus 2.
    """
    if not tensor:
        return 2  # B is 0, without a look at the maps
    top = big = 0
    for vec in tensor.values():
        s = 0
        for a, b in vec.values():
            x = abs(a) + d * abs(b)
            s += x
            if x > big:
                big = x
        if s > top:
            top = s
    bound = top * big
    for cols in maps:
        top = 0
        for col in cols.values():
            s = 0
            for a, b in col.values():
                s += abs(a) + d * abs(b)
            if s > top:
                top = s
        bound *= top
    return (3 * bound).bit_length() + 2


def pair_pack(vec: dict, w: int) -> tuple[int, int]:
    """A sparse vector of int pairs ``{k: (a, b)}`` as two ints, the sums
    of a*2^(w*k) and of b*2^(w*k): signed ``w``-bit slots, which
    ``pair_unpack`` reads back while every |a| and |b| is below
    2^(w-1)."""
    pa = pb = 0
    for k, (a, b) in vec.items():
        pa += a << w * k
        pb += b << w * k
    return pa, pb


def slot_bias(w: int, count: int) -> int:
    """2^(w-1) in each of ``count`` slots of ``w`` bits.

    Added to an int packed with signed slots, it carries every negative
    slot into the next at once: each slot of the sum holds its balanced
    base-2^w digit plus 2^(w-1), in plain bits.
    """
    return ((1 << w * count) - 1) // ((1 << w) - 1) << w - 1


def next_slot(ints, after: int, w: int):
    """The lowest slot above ``after`` where one of ``ints``, packed with
    signed ``w``-bit slots, is nonzero; None where there is none.

    Adding ``slot_bias`` over slots 0 to ``after`` carries them out, so
    the shift leaves exactly the slots above; the lowest set bit of what
    is left lies in its lowest nonzero slot.
    """
    bits = w * (after + 1)
    carry = slot_bias(w, after + 1) if after >= 0 else 0
    low = None
    for p in ints:
        p = (p + carry) >> bits
        if p:
            b = (p & -p).bit_length()
            if low is None or b < low:
                low = b
    return None if low is None else after + 1 + (low - 1) // w


def pair_unpack(pa: int, pb: int, w: int, count: int) -> dict:
    """The inverse of ``pair_pack`` over slots 0 to count - 1:
    ``{slot: (a, b)}`` without zero pairs, in slot order.  Each slot is
    the balanced residue of what remains, carried out before the next."""
    mask = (1 << w) - 1
    half = mask >> 1
    out = {}
    for k in range(count):
        if not (pa or pb):
            break
        a, b = pa & mask, pb & mask
        if a > half:
            a -= mask + 1
        if b > half:
            b -= mask + 1
        if a or b:
            out[k] = a, b
        pa, pb = (pa - a) >> w, (pb - b) >> w
    return out


def pair_dot(coeffs: dict, table: dict, d: int) -> tuple[int, int]:
    """The sum of coeffs[k] * table[k] over the keys of ``coeffs``, for
    int pairs (a, b) standing for a + b*sqrt(d); packed ints multiply
    slot by slot, or as polynomials, alike."""
    ta = tb = 0
    for k, (xa, xb) in coeffs.items():
        pa, pb = table[k]
        ta += xa * pa + d * xb * pb
        tb += xa * pb + xb * pa
    return ta, tb


def pair_add_scaled(out: dict, vec: dict, a: int, b: int, d: int) -> None:
    """out += (a + b*sqrt(d)) * vec, for sparse vectors of int pairs; an
    entry that cancels stays, as (0, 0)."""
    for k, (va, vb) in vec.items():
        oa, ob = out.get(k, PAIR_ZERO)
        out[k] = (oa + a * va + d * b * vb, ob + a * vb + b * va)


def pair_add_shifted(vec: dict, key, a: int, b: int, shift: int) -> None:
    """vec[key] += (a, b) moved up ``shift`` bits, as a packed slot."""
    va, vb = vec.get(key, PAIR_ZERO)
    vec[key] = (va + (a << shift), vb + (b << shift))


def drop_zeros(tensor: dict) -> dict:
    """A dict of sparse vectors without its zero entries and empty vectors."""
    out = {}
    for key, vec in tensor.items():
        nz = {i: c for i, c in vec.items() if c}
        if nz:
            out[key] = nz
    return out


# -- dense matrices -----------------------------------------------------


def mat_from_rows(rows: list[list[QuadScalar]]) -> Matrix:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return [list(row) for row in rows]


def mat_check_size(m: Matrix, *dims: int) -> None:
    """Raise ValueError unless ``m`` is square and of size each of ``dims``."""
    if len({len(m), *dims, *map(len, m)}) != 1:
        raise ValueError("dimension mismatch")


def mat_identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_is_identity(m: Matrix) -> bool:
    return m == mat_identity(len(m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = ZERO
            for k in range(n):
                if a[i][k] and b[k][j]:
                    s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def mat_block_diag(top: Matrix, bottom: Matrix) -> Matrix:
    """The block-diagonal matrix with ``top`` above and left of ``bottom``."""
    n, m = len(top), len(bottom)
    return ([list(row) + [ZERO] * m for row in top]
            + [[ZERO] * n + list(row) for row in bottom])


def mat_transpose(a: Matrix) -> Matrix:
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


def mat_column(a: Matrix, j: int) -> SparseVec:
    """Image of basis vector ``e_j`` as a sparse vector."""
    return {i: a[i][j] for i in range(len(a)) if a[i][j]}


def mat_columns(a: Matrix) -> list[SparseVec]:
    return [mat_column(a, j) for j in range(len(a))]


def mat_radicand(a: Matrix, radicand: int = 1) -> int:
    """The radicand of the last irrational entry of ``a``, else ``radicand``."""
    found = [x.d for row in a for x in row if x.d != 1]
    return found[-1] if found else radicand


def mat_apply(a: Matrix, vec: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for j, coeff in vec.items():
        vec_add_into(out, mat_column(a, j), coeff)
    return out


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises SingularMatrix."""
    n = len(a)
    work = [list(row) + list(ident_row) for row, ident_row in zip(a, mat_identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [inv * x for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def mat_invertible(a: Matrix) -> bool:
    try:
        mat_inverse(a)
    except SingularMatrix:
        return False
    return True
