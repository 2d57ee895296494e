import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ternalg.scalars import (
    ONE,
    ZERO,
    QuadScalar,
    RadicandMismatch,
    ScalarParseError,
    format_scalar,
    lift,
    parse_scalar,
    square_free,
    unlift,
)


def test_rational_canonical_form():
    x = QuadScalar(3, 0, 5)
    assert x.d == 1
    assert x == QuadScalar(3)


def test_radicand_one_folds():
    # sqrt(1) = 1, so 2 + 3*sqrt(1) is just 5
    assert QuadScalar(2, 3, 1) == QuadScalar(5)


def test_constructor_reduces_radicand():
    assert QuadScalar(0, 1, 4) == QuadScalar(2)
    assert QuadScalar(0, 1, 8) == QuadScalar(0, 2, 2)
    assert format_scalar(QuadScalar(0, 1, 8)) == "2*sqrt(2)"


def test_add_sub():
    a = QuadScalar(1, 2, 5)
    b = QuadScalar(3, -2, 5)
    assert a + b == QuadScalar(4)
    assert a - b == QuadScalar(-2, 4, 5)


def test_mul_oracle():
    # (1 + sqrt5)(-1 + sqrt5) = 5 - 1 = 4
    a = QuadScalar(1, 1, 5)
    b = QuadScalar(-1, 1, 5)
    assert a * b == QuadScalar(4)


def test_inverse_oracle():
    # 1/(1 + sqrt5) = (sqrt5 - 1)/4
    a = QuadScalar(1, 1, 5)
    inv = a.inverse()
    assert inv == QuadScalar("-1/4", "1/4", 5)
    assert a * inv == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_rational_promotes_to_radicand():
    a = QuadScalar(2)
    b = QuadScalar(0, 1, 5)
    assert a * b == QuadScalar(0, 2, 5)
    assert a + b == QuadScalar(2, 1, 5)


def test_distinct_radicands_rejected():
    with pytest.raises(RadicandMismatch):
        QuadScalar(0, 1, 2) + QuadScalar(0, 1, 3)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2", QuadScalar(2)),
        ("-3/5", QuadScalar("-3/5")),
        ("1/5*sqrt(5)", QuadScalar(0, "1/5", 5)),
        ("sqrt(5)", QuadScalar(0, 1, 5)),
        ("1+2*sqrt(5)", QuadScalar(1, 2, 5)),
        ("1-2*sqrt(5)", QuadScalar(1, -2, 5)),
        ("-1*sqrt(5)", QuadScalar(0, -1, 5)),
        ("3+sqrt(2)", QuadScalar(3, 1, 2)),
        ("0", ZERO),
        ("1+2", QuadScalar(3)),
        ("2*sqrt(2)+3", QuadScalar(3, 2, 2)),
        # radicands reduce to their square-free part
        ("sqrt(4)", QuadScalar(2)),
        ("sqrt(8)", QuadScalar(0, 2, 2)),
        ("1+1/2*sqrt(18)", QuadScalar(1, "3/2", 2)),
    ],
)
def test_parse(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "sqrt(5", "-sqrt(5)", "1+1*sqrt(2)+1*sqrt(2)", "1*sqrt(2)+1*sqrt(3)", "x",
     "sqrt(0)", "sqrt(1000000001)"],
)
def test_parse_rejects(text):
    with pytest.raises(ScalarParseError):
        parse_scalar(text)


def test_square_free_divides_once_per_radicand():
    # 999999937 is prime: its trial division runs to about 31,623
    square_free.cache_clear()
    for c in range(1, 1001):
        assert parse_scalar(f"{c}*sqrt(999999937)").b == c
    info = square_free.cache_info()
    assert (info.misses, info.hits) == (1, 999)
    assert square_free(72) == (6, 2)
    with pytest.raises(ScalarParseError):
        square_free(0)


def test_parse_radicand_context():
    with pytest.raises(ScalarParseError):
        parse_scalar("sqrt(3)", radicand=5)
    assert parse_scalar("sqrt(5)", radicand=5) == QuadScalar(0, 1, 5)
    assert parse_scalar("sqrt(20)", radicand=5) == QuadScalar(0, 2, 5)


def test_reduced_radicands_multiply():
    # sqrt(8) and sqrt(2) both lie in Q(sqrt(2))
    assert parse_scalar("sqrt(8)") * parse_scalar("sqrt(2)") == QuadScalar(4)


def test_format_round_trip_cases():
    cases = [
        QuadScalar(0),
        QuadScalar("7/3"),
        QuadScalar(-2, 1, 5),
        QuadScalar(0, "-1/2", 3),
        QuadScalar("1/2", "3/4", 2),
    ]
    for x in cases:
        assert parse_scalar(format_scalar(x)) == x


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
radicands = st.sampled_from([2, 3, 5])


@st.composite
def scalars(draw):
    return QuadScalar(draw(rationals), draw(rationals), draw(radicands))


@settings(max_examples=200, deadline=None)
@given(scalars(), scalars())
def test_field_axioms_pairwise(a, b):
    if a.d != b.d and a.d != 1 and b.d != 1:
        return
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)
    if a:
        assert a * a.inverse() == ONE


@settings(max_examples=200, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms_triple(a, b, c):
    ds = {x.d for x in (a, b, c) if x.d != 1}
    if len(ds) > 1:
        return
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


# -- differential test against a reference model --------------------------
#
# The model keeps a scalar as (rat, irr, d) with Fraction parts and d = 1
# whenever irr = 0, computes with Fraction arithmetic, and renders with the
# Fraction-based formatter the int kernel replaced.


def model_of(x):
    return (Fraction(x.a, x.q), Fraction(x.b, x.q), x.d)


def model(rat, irr, d):
    return (rat, irr, d) if irr else (rat, irr, 1)


def model_join(x, y):
    if x[2] != 1 and y[2] != 1 and x[2] != y[2]:
        raise RadicandMismatch
    return max(x[2], y[2])


def model_add(x, y):
    return model(x[0] + y[0], x[1] + y[1], model_join(x, y))


def model_sub(x, y):
    return model(x[0] - y[0], x[1] - y[1], model_join(x, y))


def model_mul(x, y):
    d = model_join(x, y)
    return model(x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0], d)


def model_neg(x):
    return model(-x[0], -x[1], x[2])


def model_inverse(x):
    norm = x[0] * x[0] - x[2] * x[1] * x[1]
    return model(x[0] / norm, -x[1] / norm, x[2])


def model_format(x):
    rat, irr, d = x
    if irr == 0:
        return str(rat)
    irr_term = f"{irr!s}*sqrt({d})"
    if rat == 0:
        return irr_term
    if irr > 0:
        return f"{rat!s}+{irr_term}"
    return f"{rat!s}{irr_term}"


def assert_canonical(x):
    assert x.q > 0
    assert gcd(x.a, x.b, x.q) == 1
    assert (x.b == 0) == (x.d == 1)


wide_rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                              max_denominator=10 ** 4)


@st.composite
def modelled_scalars(draw):
    rat = draw(st.one_of(st.just(Fraction(0)), wide_rationals))
    irr = draw(st.one_of(st.just(Fraction(0)), wide_rationals))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    if d == 1:
        rat, irr = rat + irr, Fraction(0)
    return QuadScalar(rat, irr, d), model(rat, irr, d)


def agrees(result, expected):
    assert_canonical(result)
    assert model_of(result) == expected
    assert format_scalar(result) == model_format(expected)


@settings(max_examples=300, deadline=None)
@given(modelled_scalars(), modelled_scalars())
def test_kernel_matches_fraction_model(x, y):
    (a, ma), (b, mb) = x, y
    agrees(a, ma)
    agrees(-a, model_neg(ma))
    if a:
        agrees(a.inverse(), model_inverse(ma))
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    for op, model_op in ((QuadScalar.__add__, model_add),
                         (QuadScalar.__sub__, model_sub),
                         (QuadScalar.__mul__, model_mul)):
        try:
            expected = model_op(ma, mb)
        except RadicandMismatch:
            with pytest.raises(RadicandMismatch):
                op(a, b)
        else:
            agrees(op(a, b), expected)


# -- lifting tables of scalars to int pairs --------------------------------


def _table_scalar(rng, radicand):
    x = QuadScalar(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6])))
    if rng.random() < 0.4:
        x = x + QuadScalar(0, Fraction(rng.randint(-3, 3),
                                       rng.choice([1, 2, 5])), radicand)
    return x


def test_lift_scales_each_table_to_its_own_lcm():
    uniform = {(0, 0, 0): {0: QuadScalar("-5/3"), 1: QuadScalar("10/3")}}
    # an integer entry before a fraction still gets scaled
    mixed = [{0: QuadScalar(2), 1: QuadScalar("1/3")},
             {0: QuadScalar("1/2", "1/3", 5)}]
    assert lift(uniform, mixed, {}) == [
        5, (3, {(0, 0, 0): {0: (-5, 0), 1: (10, 0)}}),
        (6, {0: {0: (12, 0), 1: (2, 0)}, 1: {0: (3, 2)}}), (1, {})]


@pytest.mark.parametrize("seed", range(12))
def test_lift_round_trips_through_unlift(seed):
    rng = random.Random(seed)
    radicand = rng.choice([2, 5])
    tables = [{key: {i: _table_scalar(rng, radicand)
                     for i in range(rng.randrange(4))}
               for key in range(rng.randrange(4))},
              [{i: _table_scalar(rng, radicand) for i in range(3)
                if rng.random() < 0.6} for _ in range(3)]]
    d, *lifted = lift(*tables)
    assert d in (1, radicand)
    for table, (den, pairs) in zip(tables, lifted):
        vecs = table.values() if isinstance(table, dict) else table
        assert den == lcm(1, *(x.q for vec in vecs for x in vec.values()))
        keyed = table.items() if isinstance(table, dict) else enumerate(table)
        for key, vec in keyed:
            assert unlift(pairs[key], den, d) == vec
