import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ternalg.linalg import (
    PAIR_ONE,
    SingularMatrix,
    next_slot,
    pair_first_two,
    pair_pack,
    pair_trilinear,
    pair_unpack,
    pair_width,
    mat_apply,
    mat_from_rows,
    mat_identity,
    mat_inverse,
    mat_invertible,
    mat_is_identity,
    mat_mul,
    mat_transpose,
    trilinear,
    vec_add_into,
)
from ternalg.scalars import ONE, ZERO, QuadScalar, lift, unlift


def q(x):
    return QuadScalar(x)


def m(*rows):
    return mat_from_rows([[q(x) for x in row] for row in rows])


def test_inverse_oracle_2x2():
    # [[1, 2], [3, 4]]^-1 = [[-2, 1], [3/2, -1/2]]
    a = m([1, 2], [3, 4])
    assert mat_inverse(a) == m([-2, 1], ["3/2", "-1/2"])


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        mat_inverse(m([1, 2], [2, 4]))
    assert not mat_invertible(m([0, 0], [0, 0]))


def test_inverse_with_radical():
    # a = (1/sqrt(5)) * [[-1, -3], [2, 1]] satisfies a^2 = -I, so a^-1 = -a
    s = QuadScalar(0, "1/5", 5)
    a = [[s * q(-1), s * q(-3)], [s * q(2), s * q(1)]]
    neg_a = [[-x for x in row] for row in a]
    assert mat_inverse(a) == neg_a
    assert mat_is_identity(mat_mul(mat_mul(a, a), mat_mul(a, a)))


def test_mul_against_hand_product():
    a = m([1, 2], [3, 4])
    b = m([0, 1], [1, 0])
    assert mat_mul(a, b) == m([2, 1], [4, 3])


def test_apply_uses_columns():
    # column j is the image of e_j
    a = m([1, 2], [3, 4])
    assert mat_apply(a, {0: ONE}) == {0: q(1), 1: q(3)}
    assert mat_apply(a, {1: q(2)}) == {0: q(4), 1: q(8)}


def test_transpose():
    assert mat_transpose(m([1, 2], [3, 4])) == m([1, 3], [2, 4])


def test_vec_add_into_cancels():
    acc = {0: ONE}
    vec_add_into(acc, {0: ONE}, -ONE)
    assert acc == {}
    vec_add_into(acc, {1: q(2)}, ZERO)
    assert acc == {}


entries = st.integers(min_value=-9, max_value=9)


@st.composite
def square_matrices(draw, n=3):
    return [[q(draw(entries)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_inverse_round_trip(a):
    try:
        inv = mat_inverse(a)
    except SingularMatrix:
        return
    assert mat_is_identity(mat_mul(a, inv))
    assert mat_is_identity(mat_mul(inv, a))


@settings(max_examples=60, deadline=None)
@given(square_matrices(), square_matrices())
def test_transpose_antihomomorphism(a, b):
    assert mat_transpose(mat_mul(a, b)) == mat_mul(mat_transpose(b), mat_transpose(a))


def _trilinear_by_definition(tensor, x, y, z):
    """The sum over every index triple of {0, 1, 2}^3, zeros included."""
    out = {}
    for r, s, t in itertools.product(range(3), repeat=3):
        coeff = x.get(r, ZERO) * y.get(s, ZERO) * z.get(t, ZERO)
        for l, c in tensor.get((r, s, t), {}).items():
            out[l] = out.get(l, ZERO) + coeff * c
    return {l: c for l, c in out.items() if c}


_index = st.integers(0, 2)
_coeff = st.sampled_from([q(1), q(-1), q(2), q("-1/2"), QuadScalar(0, 1, 2),
                          QuadScalar(0, -1, 2)])
_sparse = st.dictionaries(_index, _coeff, max_size=3)


def test_trilinear_cancels_and_skips_absent_entries():
    tensor = {(0, 0, 0): {0: q(1), 1: q(2)}, (0, 0, 1): {0: q(1)},
              (1, 1, 1): {}}
    x, y = {0: q(1), 1: q(3)}, {0: q(1), 1: q(5)}
    # the two e_0 terms cancel; (1, 1, 1) is empty and (1, 0, 0) absent
    assert trilinear(tensor, x, y, {0: q(1), 1: q(-1)}) == {1: q(2)}
    for args in (({}, y, {0: ONE}), (x, {}, {0: ONE}), (x, y, {})):
        assert trilinear(tensor, *args) == {}
    assert trilinear({}, x, y, {0: ONE}) == {}


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(_index, _index, _index), _sparse,
                       max_size=8), _sparse, _sparse, _sparse)
def test_trilinear_matches_definition(tensor, x, y, z):
    assert trilinear(tensor, x, y, z) == \
        _trilinear_by_definition(tensor, x, y, z)


# -- packed int pairs ---------------------------------------------------


def _pair_vector(rng, w, count, d):
    """Random signed pairs in some of ``count`` slots, reaching the
    extremes 2^(w-1) - 1 and -2^(w-1) of a balanced slot; b is 0 when d
    is 1."""
    top = (1 << (w - 1)) - 1
    values = [-top - 1, -top, -1, 0, 1, top, None]
    vec = {}
    for k in range(count):
        a, b = (rng.choice(values), rng.choice(values) if d != 1 else 0)
        a = rng.randint(-top - 1, top) if a is None else a
        b = rng.randint(-top - 1, top) if b is None else b
        if a or b:
            vec[k] = a, b
    return vec


@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("w", [2, 3, 8, 31, 64])
def test_pair_pack_round_trip(w, d):
    rng = random.Random(f"pack-{w}-{d}")
    for count in (1, 2, 5, 27, 64):
        for _ in range(20):
            vec = _pair_vector(rng, w, count, d)
            assert pair_unpack(*pair_pack(vec, w), w, count) == vec


def test_pair_pack_of_the_zero_vector():
    assert pair_pack({}, 7) == (0, 0)
    assert pair_unpack(0, 0, 7, 10) == {}


@pytest.mark.parametrize("w", [2, 5, 33])
def test_next_slot_finds_the_lowest_nonzero_slot_above(w):
    rng = random.Random(f"next-{w}")
    for _ in range(50):
        vecs = [_pair_vector(rng, w, 12, 5) for _ in range(2)]
        ints = [v for vec in vecs for v in pair_pack(vec, w)]
        for after in range(-1, 12):
            above = [k for vec in vecs for k in vec if k > after]
            assert next_slot(ints, after, w) == (min(above) if above
                                                 else None)


@pytest.mark.parametrize("d", [1, 5])
def test_pair_width_holds_any_three_members_of_a_dense_maximal_table(d):
    # every entry and column entry at its largest; each associativity
    # member is then the same sum of n^3 equal products, the largest any
    # table with these norms can give
    n, big = 3, 10 ** 12
    top = (big, big if d != 1 else 0)
    mu = {key: {l: top for l in range(n)}
          for key in itertools.product(range(n), repeat=3)}
    cols = {j: {i: top for i in range(n)} for j in range(n)}
    w = pair_width(d, mu, cols, cols)
    member = pair_trilinear(mu, mu[0, 0, 0], cols[0], cols[0], d)
    total = {l: (3 * a, 3 * b) for l, (a, b) in member.items()}
    assert max(max(abs(a), abs(b)) for a, b in total.values()) < \
        1 << (w - 1)
    assert pair_unpack(*pair_pack(total, w), w, n) == total


def _quad(rng, d):
    """A scalar over the denominators 1 to 3, irrational about half the
    time when d is not 1; zero about a seventh of the time."""
    x = QuadScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    if d != 1 and rng.random() < 0.5:
        x = x + QuadScalar(0, Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                           d)
    return x


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_lifted_kernels_unlift_to_trilinear(d, packed):
    # packed, x holds x_k at slot k < K and y holds y_j at slot K*j, as
    # _assoc_rows packs the twists' rows, so an output holds
    # trilinear(x_k, y_j, e_u) at slot k + K*j
    rng = random.Random(f"kernels-{d}-{packed}")
    n, w = 3, 96
    K, J = (2, 3) if packed else (1, 1)
    for _ in range(15):
        tensor = {key: {l: _quad(rng, d) for l in range(n)}
                  for key in itertools.product(range(n), repeat=3)
                  if rng.random() < 0.6}
        xs, ys = ([{r: _quad(rng, d) for r in range(n)} for _ in range(k)]
                  for k in (K, J))
        _, (dt, t), (dx, xl), (dy, yl) = lift(tensor, xs, ys)
        x, y = xl[0], yl[0]
        if packed:
            x, y = ({r: pair_pack({stride * k: vec[r]
                                   for k, vec in lifted.items() if r in vec},
                                  w) for r in range(n)}
                    for lifted, stride in ((xl, 1), (yl, K)))
        first_two = pair_first_two(t, x, y, n, d)
        for u in range(n):
            expected = {k + K * j: trilinear(tensor, xs[k], ys[j], {u: ONE})
                        for k in range(K) for j in range(J)}
            for got in (first_two[u],
                        pair_trilinear(t, x, y, {u: PAIR_ONE}, d)):
                slots = {0: got}
                if packed:
                    slots = {}
                    for l, pair in got.items():
                        for k, ab in pair_unpack(*pair, w, K * J).items():
                            slots.setdefault(k, {})[l] = ab
                values = {k: {l: c for l, c in unlift(vec, dt * dx * dy,
                                                      d).items() if c}
                          for k, vec in slots.items()}
                assert {k: vec for k, vec in values.items() if vec} == \
                    {k: vec for k, vec in expected.items() if vec}
