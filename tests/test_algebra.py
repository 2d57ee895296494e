import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from ternalg.algebra import (
    NotEndomorphism,
    PreconditionNotClassical,
    TernaryHomAlgebra,
    check_algebra_morphism,
    classical,
    is_algebra_isomorphism,
)
from ternalg.coalgebra import TernaryHomCoalgebra
from ternalg.linalg import (
    drop_zeros,
    mat_apply,
    mat_columns,
    mat_identity,
    mat_inverse,
    mat_mul,
    vec_add_into,
)
from ternalg.report import (
    SCALAR,
    VECTOR,
    LawReport,
    Report,
    check_laws,
    difference,
    mode_laws,
    mode_residuals,
    vec_str,
)
from ternalg.scalars import QuadScalar, RadicandMismatch
from ternalg.trimodule import BihomModule


def q(x):
    return QuadScalar(x)


def mu_from(table):
    """1-based {(r,s,t): {l: coeff}} table to the internal 0-based tensor."""
    mu = {}
    for (r, s, t), vec in table.items():
        mu[(r - 1, s - 1, t - 1)] = {l - 1: q(c) for l, c in vec.items()}
    return mu


def mat(rows):
    return [[q(x) for x in row] for row in rows]


# nilpotent product: only mu(e1,e1,e1) = e2
NILP = {(1, 1, 1): {2: 1}}

# two-dimensional totally associative product with a dense table
DENSE = {
    (1, 1, 1): {1: 1},
    (1, 1, 2): {2: 1},
    (1, 2, 1): {2: 1},
    (2, 1, 1): {2: 1},
    (2, 2, 1): {1: 1, 2: 1},
    (1, 2, 2): {1: 1, 2: 1},
    (2, 1, 2): {1: 1, 2: 1},
    (2, 2, 2): {1: 1, 2: 2},
}

RHO1 = [[1, 1], [0, -1]]

# DENSE twisted along RHO1, tabulated by hand
DENSE_TW1 = {
    (1, 1, 1): {1: 1},
    (1, 1, 2): {1: 1, 2: -1},
    (1, 2, 1): {1: 1, 2: -1},
    (2, 1, 1): {1: 1, 2: -1},
    (2, 2, 1): {1: 2, 2: -1},
    (1, 2, 2): {1: 2, 2: -1},
    (2, 1, 2): {1: 2, 2: -1},
    (2, 2, 2): {1: 3, 2: -2},
}


def nilp():
    return classical(2, mu_from(NILP))


def dense():
    return classical(2, mu_from(DENSE))


def test_nilpotent_is_totally_associative():
    rep = nilp().check_associativity("total")
    assert rep.passed
    assert [lr.law for lr in rep.laws] == ["assoc:total:1-2", "assoc:total:2-3"]


def test_dense_is_totally_associative():
    assert dense().check_associativity("total").passed


def test_total_implies_weak_and_not_partial_here():
    a = dense()
    assert a.check_associativity("weak").passed
    # T1 = T2 = T3 nonzero somewhere, so the three-term sum cannot vanish
    assert not a.check_associativity("partial").passed


def test_nilpotent_is_partially_associative():
    # every summand vanishes: e2 kills the outer product in each slot
    assert nilp().check_associativity("partial").passed


def test_partial_violation_details():
    rep = dense().check_associativity("partial")
    lr = rep.law("assoc:partial")
    assert not lr.passed
    # at (e1,)*5 all three summands equal e1, so the cyclic sum is 3 e1
    assert lr.violations[0].index == (1, 1, 1, 1, 1)
    assert lr.violations[0].residual == "{e1: 3}"


def test_non_associative_detected():
    a = classical(2, mu_from({(1, 1, 1): {2: 1}, (2, 2, 2): {1: 1}}))
    rep = a.check_associativity("total", max_violations=100)
    assert not rep.passed
    assert any(v.index == (1, 1, 1, 2, 2) for v in rep.law("assoc:total:1-2").violations)


def test_max_violations_cap():
    a = classical(2, mu_from({(1, 1, 1): {2: 1}, (2, 2, 2): {1: 1}}))
    rep = a.check_associativity("total", max_violations=1)
    lr = rep.law("assoc:total:1-2")
    assert len(lr.violations) == 1
    assert lr.truncated


def test_max_violations_below_one_rejected():
    # a cap of 0 used to record nothing and report this failing law as passed
    a = classical(2, mu_from({(1, 1, 1): {2: 1}, (2, 2, 2): {1: 1}}))
    for cap in (0, -1):
        with pytest.raises(ValueError):
            a.check_associativity("total", max_violations=cap)
    evaluated = []
    with pytest.raises(ValueError):
        check_laws(mode_laws("assoc", ("a", "b", "c", "d"), "weak"),
                   mode_residuals("weak", SCALAR), [(0,)], evaluated.append,
                   str, 0)
    assert not evaluated


def test_multiplicativity_of_identity_twists():
    assert nilp().check_multiplicativity().passed


def test_yau_twist_nilpotent():
    # rho = [[a, 0], [b, a^3]] with a = 2, b = 3 preserves the product
    rho = mat([[2, 0], [3, 8]])
    tw = nilp().yau_twist(rho)
    assert tw.mu == mu_from({(1, 1, 1): {2: 8}})
    assert tw.alpha1 == rho and tw.alpha2 == rho
    assert tw.check_associativity("total").passed
    assert tw.check_multiplicativity().passed


def test_yau_twist_dense():
    tw = dense().yau_twist(mat(RHO1))
    assert tw.mu == mu_from(DENSE_TW1)
    assert tw.check_associativity("total").passed


def test_yau_twist_with_radical_automorphism():
    s = QuadScalar(0, "1/5", 5)
    rho = [[s * q(1), s * q(3)], [s * q(-2), s * q(-1)]]
    tw = dense().yau_twist(rho)
    # mu~(1,1,1) = rho(e1) = (1/sqrt5) e1 - (2/sqrt5) e2
    assert tw.mu[(0, 0, 0)] == {0: s, 1: s * q(-2)}
    assert tw.mu[(1, 1, 0)] == {0: s * q(4), 1: s * q(-3)}
    assert tw.check_associativity("total").passed


def test_yau_twist_rejects_non_endomorphism():
    with pytest.raises(NotEndomorphism) as err:
        nilp().yau_twist(mat([[1, 1], [0, 1]]))
    assert err.value.triple == (1, 1, 1)


def test_yau_twist_requires_classical_input():
    tw = dense().yau_twist(mat(RHO1))
    with pytest.raises(PreconditionNotClassical):
        tw.yau_twist(mat_identity(2))


DENSE_AUTOS = [
    [[1, 0], [0, 1]],
    [[-1, 0], [0, -1]],
    [[-1, -1], [0, 1]],
    [[1, 1], [0, -1]],
]


def test_rational_automorphisms_of_dense():
    a = dense()
    for rows in DENSE_AUTOS:
        f = mat(rows)
        assert check_algebra_morphism(f, a, a).passed
        assert is_algebra_isomorphism(f, a, a)


def test_radical_automorphisms_of_dense():
    a = dense()
    s = QuadScalar(0, "1/5", 5)
    for rows in ([[-1, -3], [2, 1]], [[1, 3], [-2, -1]]):
        f = [[s * q(x) for x in row] for row in rows]
        assert is_algebra_isomorphism(f, a, a)


def test_scaling_is_not_a_morphism():
    a = nilp()
    rep = check_algebra_morphism(mat([[2, 0], [0, 2]]), a, a)
    assert not rep.law("morphism:product").passed


def test_morphism_twist_intertwining():
    a = dense()
    tw = a.yau_twist(mat(RHO1))
    # identity intertwines a twisted algebra with itself but not with the base
    assert check_algebra_morphism(mat_identity(2), tw, tw).passed
    rep = check_algebra_morphism(mat_identity(2), tw, a)
    assert not rep.passed


def test_multiplication_operator_matrices():
    a = nilp()
    e1 = {0: q(1)}
    L, R, M = a.multiplication_operators(e1, e1)
    # L(e1,e1): z -> mu(e1,e1,z) sends e1 to e2
    assert L == mat([[0, 0], [1, 0]])
    assert R == mat([[0, 0], [1, 0]])
    assert M == mat([[0, 0], [1, 0]])


def test_operator_slots():
    a = dense()
    e1 = {0: q(1)}
    e2 = {1: q(1)}
    # L(x, y)(z) = mu(x, y, z), R(x, y)(z) = mu(z, x, y), M(x, y)(z) = mu(x, z, y)
    assert a.op_L(e1, e1, e2) == a.mu_vec(e1, e1, e2)
    assert a.op_R(e1, e1, e2) == a.mu_vec(e2, e1, e1)
    assert a.op_M(e1, e2, e1) == a.mu_vec(e1, e1, e2)


# maps that are not 2 x 2: square of another size, wider than tall, and
# with a short row
OTHER_SIZES = {"1": mat_identity(1), "3": mat_identity(3),
               "wide": mat([[1, 0, 5], [0, 1, 7]]),
               "short": mat([[1], [0, 1]])}


@pytest.mark.parametrize("call", [
    lambda a, f: check_algebra_morphism(f, a, a),
    lambda a, f: is_algebra_isomorphism(f, a, a),
    lambda a, f: a.yau_twist(f),
], ids=["morphism", "isomorphism", "yau_twist"])
@pytest.mark.parametrize("f", OTHER_SIZES.values(), ids=OTHER_SIZES.keys())
def test_map_of_another_size_is_refused(call, f):
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        call(nilp(), f)


@pytest.mark.parametrize("make", [
    lambda f, i: TernaryHomAlgebra(2, {}, f, i),
    lambda f, i: TernaryHomAlgebra(2, {}, i, f),
    lambda f, i: TernaryHomCoalgebra(2, {}, f, i),
    lambda f, i: TernaryHomCoalgebra(2, {}, i, f),
    lambda f, i: BihomModule(2, f, i),
    lambda f, i: BihomModule(2, i, f),
], ids=["algebra-alpha1", "algebra-alpha2", "coalgebra-alpha1",
        "coalgebra-alpha2", "module-beta1", "module-beta2"])
@pytest.mark.parametrize("f", OTHER_SIZES.values(), ids=OTHER_SIZES.keys())
def test_twist_of_another_size_is_refused(make, f):
    # a checker would index such a twist past its end, or pass a law it
    # never evaluated at the basis vectors the twist leaves out
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        make(f, mat_identity(2))


def refuse(*args):
    raise AssertionError("a law was checked after one had failed")


def test_isomorphism_stops_at_the_first_failing_law(monkeypatch):
    # 2 id sends mu(e1, e1, e1) = e2 to 2 e2 on one side and 8 e2 on the
    # other, so the product law fails and the twist laws need not run
    monkeypatch.setattr("ternalg.algebra.twist_intertwining", refuse)
    assert not is_algebra_isomorphism(mat([[2, 0], [0, 2]]), nilp(), nilp())


def test_twist_across_radicands_is_refused():
    # rho fixes e1, so the probe never multiplies sqrt(2) by sqrt(3)
    a = classical(2, {(0, 0, 0): {0: QuadScalar(0, 1, 2)}}, radicand=2)
    rho = [[q(1), q(0)], [q(0), QuadScalar(0, 1, 3)]]
    with pytest.raises(RadicandMismatch):
        a.yau_twist(rho)


# -- transport along a change of basis ------------------------------------


def _scalar(rng, radicand):
    x = QuadScalar(rng.choice([0, 1, -1, 2, "1/2", "-3/2"]))
    if radicand != 1 and rng.random() < 0.5:
        x = x + QuadScalar(0, rng.choice([1, -1, "1/2"]), radicand)
    return x


def _algebra(rng, n, radicand, family):
    """A random product and twists, a classical diagonal product, or that
    product twisted along a diagonal endomorphism."""
    if family == "random":
        mu = {key: {l: _scalar(rng, radicand) for l in range(n)
                    if rng.random() < 0.4}
              for key in product(range(n), repeat=3) if rng.random() < 0.3}
        twists = [[[_scalar(rng, radicand) for _ in range(n)]
                   for _ in range(n)] for _ in range(2)]
        return TernaryHomAlgebra(n, mu, *twists, radicand)
    a = classical(n, {(i, i, i): {i: _scalar(rng, radicand) + q(3)}
                      for i in range(n)}, radicand)
    if family == "classical":
        return a
    signs = [q(rng.choice([0, 1, -1])) for _ in range(n)]
    return a.yau_twist([[signs[i] if i == j else q(0) for j in range(n)]
                        for i in range(n)])


def _change_of_basis(rng, n, radicand):
    """A unitriangular matrix times a permutation matrix."""
    perm = rng.sample(range(n), n)
    upper = [[q(1) if i == j else _scalar(rng, radicand) if i < j else q(0)
              for j in range(n)] for i in range(n)]
    return mat_mul(upper, [[q(1) if perm[j] == i else q(0)
                            for j in range(n)] for i in range(n)])


def _transport(t, a):
    """mu' = t mu (t^-1 x t^-1 x t^-1) and alpha'_k = t alpha_k t^-1."""
    inv = mat_inverse(t)
    cols = mat_columns(inv)
    mu = {(r, s, u): mat_apply(t, a.mu_vec(cols[r], cols[s], cols[u]))
          for r, s, u in product(range(a.dim), repeat=3)}
    return TernaryHomAlgebra(a.dim, mu, mat_mul(mat_mul(t, a.alpha1), inv),
                             mat_mul(mat_mul(t, a.alpha2), inv), a.radicand)


def _verdicts(report):
    return [(lr.law, lr.passed) for lr in report.laws]


@pytest.mark.parametrize("family", ["random", "classical", "twisted"])
@pytest.mark.parametrize("radicand", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_change_of_basis_is_an_isomorphism(n, radicand, family):
    rng = random.Random(f"{n}-{radicand}-{family}")
    for _ in range(3):
        a = _algebra(rng, n, radicand, family)
        t = _change_of_basis(rng, n, radicand)
        b = _transport(t, a)
        for mode in ("total", "partial", "weak"):
            assert _verdicts(b.check_associativity(mode, 1)) == \
                _verdicts(a.check_associativity(mode, 1))
        assert _verdicts(b.check_multiplicativity(1)) == \
            _verdicts(a.check_multiplicativity(1))
        assert check_algebra_morphism(t, a, b).passed
        assert is_algebra_isomorphism(t, a, b)


# -- fraction-free associativity against QuadScalar evaluation ------------

UNLIMITED = 1 << 62


def _fraction(rng, radicand):
    """A scalar with denominators in 1..5, irrational about half the time."""
    x = QuadScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
    if radicand != 1 and rng.random() < 0.5:
        x = x + QuadScalar(0, Fraction(rng.choice([-2, -1, 1, 3]),
                                       rng.randint(1, 5)), radicand)
    return x


def _random_structure(rng, n, radicand):
    """A random product and random twists, some with a zero column."""
    mu = {key: {l: _fraction(rng, radicand) for l in range(n)
                if rng.random() < 0.5}
          for key in product(range(n), repeat=3) if rng.random() < 0.4}
    twists = []
    for _ in range(2):
        rows = [[_fraction(rng, radicand) if rng.random() < 0.6 else q(0)
                 for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            zero = rng.randrange(n)
            for row in rows:
                row[zero] = q(0)
        twists.append(rows)
    return TernaryHomAlgebra(n, mu, *twists, radicand)


def _big(rng, radicand, sign=1):
    """About sign * 10^11 as a numerator up to about 10^12 over one of the
    denominators 1, 2, 3, 5, 7 and 11, plus as much again times
    sqrt(radicand) about half the time; of either sign if ``sign`` is 0."""
    sign = sign or rng.choice([-1, 1])

    def part():
        den = rng.choice([1, 2, 3, 5, 7, 11])
        return Fraction(sign * (10 ** 11 * den + rng.randrange(1000)), den)

    x = QuadScalar(part())
    if radicand != 1 and rng.random() < 0.5:
        x = x + QuadScalar(0, part(), radicand)
    return x


def _big_structure(rng, n, radicand):
    """Large positive constants of one size, and twists with every column
    dense: no term cancels, so the members come near the bound that sizes
    a packed slot."""
    mu = {key: {l: _big(rng, radicand) for l in range(n)
                if rng.random() < 0.7}
          for key in product(range(n), repeat=3) if rng.random() < 0.6}
    twists = [[[_big(rng, radicand) for _ in range(n)] for _ in range(n)]
              for _ in range(2)]
    return TernaryHomAlgebra(n, mu, *twists, radicand)


def differential_structures(rng, n, radicand):
    """Random structures, which mostly fail, beside passing twisted ones;
    dense transports, and large constants over dense twist columns (one
    passing: a transport with its product scaled), only up to dim 3,
    where the reference is quick."""
    out = [_random_structure(rng, n, radicand) for _ in range(3)]
    twisted = _algebra(rng, n, radicand, "twisted")
    out.append(twisted)
    if n <= 3:
        dense = _transport(_change_of_basis(rng, n, radicand), twisted)
        out.append(dense)
        scale = _big(rng, radicand, 0)
        out.append(TernaryHomAlgebra(
            n, {key: {l: scale * c for l, c in vec.items()}
                for key, vec in dense.mu.items()},
            dense.alpha1, dense.alpha2, radicand))
        out.append(_big_structure(rng, n, radicand))
    return out


def reference_associativity(a, mode, cap):
    """check_associativity with every member evaluated through mu_vec,
    mat_apply and QuadScalar arithmetic."""
    basis = [{i: q(1)} for i in range(a.dim)]

    def a1(i):
        return mat_apply(a.alpha1, basis[i])

    def a2(i):
        return mat_apply(a.alpha2, basis[i])

    def members(idx):
        i1, i2, i3, i4, i5 = idx
        return (a.mu_vec(a.mu_basis(i1, i2, i3), a1(i4), a2(i5)),
                a.mu_vec(a1(i1), a.mu_basis(i2, i3, i4), a2(i5)),
                a.mu_vec(a1(i1), a2(i2), a.mu_basis(i3, i4, i5)))

    laws = mode_laws("assoc", ("qt1a", "qt1b", "qp1", "qw1"), mode)
    check_laws(laws, mode_residuals(mode, VECTOR),
               product(range(a.dim), repeat=5), members, vec_str, cap)
    return Report(laws)


def stop_points(full, n):
    """Caps 1, 3 and none; at n <= 2 every cap up to one past the most
    violations of a law in ``full()``, the report without a cap, so that
    a checker is stopped at every place it can stop."""
    if n > 2:
        return (1, 3, UNLIMITED)
    most = max(len(lr.violations) for lr in full().laws)
    return (*range(1, most + 2), UNLIMITED)


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_associativity_matches_quadscalar_reference(n, radicand):
    rng = random.Random(f"assoc-{n}-{radicand}")
    for a in differential_structures(rng, n, radicand):
        for mode in ("total", "partial", "weak"):
            for cap in stop_points(
                    lambda: reference_associativity(a, mode, UNLIMITED), n):
                assert a.check_associativity(mode, cap).as_dict() == \
                    reference_associativity(a, mode, cap).as_dict()


def test_associativity_takes_the_radicand_from_the_constants():
    # classical() leaves the declared radicand at 1 beside sqrt(2) entries
    r2 = QuadScalar("1/2", "-3/4", 2)
    a = classical(2, {(0, 0, 0): {0: r2, 1: q(1)}, (1, 0, 1): {0: r2 * r2},
                      (0, 1, 1): {1: QuadScalar(0, "2/3", 2)}})
    assert a.radicand == 1
    for mode in ("total", "partial", "weak"):
        for cap in (1, 3, UNLIMITED):
            assert a.check_associativity(mode, cap).as_dict() == \
                reference_associativity(a, mode, cap).as_dict()


def test_mixed_radicands_are_refused():
    a = TernaryHomAlgebra(1, {(0, 0, 0): {0: QuadScalar(0, 1, 2)}},
                          [[QuadScalar(0, 1, 3)]], mat_identity(1))
    for mode in ("total", "partial", "weak"):
        with pytest.raises(RadicandMismatch):
            a.check_associativity(mode)


# -- fraction-free intertwining against QuadScalar evaluation -------------


def reference_intertwining(lr, g, src, dst, maps, cap, fmt=vec_str):
    """One law of ``intertwining`` evaluated one index tuple at a time on
    QuadScalar: ``src`` takes basis indices, ``dst`` sparse vectors, and g
    src(i, ...) is summed column by column."""
    g_cols = mat_columns(g)
    cols = [mat_columns(f) for f in maps]

    def members(idx):
        lhs = {}
        for j, c in src(*idx).items():
            vec_add_into(lhs, g_cols[j], c)
        return lhs, dst(*[col[i] for col, i in zip(cols, idx)])

    check_laws([lr], [difference], product(*[range(len(f)) for f in maps]),
               members, fmt, cap)
    return lr


def reference_multiplicativity(a, cap):
    return Report([reference_intertwining(LawReport(name, tag), m, a.mu_basis,
                                          a.mu_vec, (m,) * 3, cap)
                   for name, tag, m in
                   (("multiplicative:alpha1", "mult1", a.alpha1),
                    ("multiplicative:alpha2", "mult2", a.alpha2))])


def reference_morphism(f, a, b, cap):
    """check_algebra_morphism on reference_intertwining; a twist law has
    arity 1, a column of a's twist against b's twist applied to f e_i."""
    laws = [reference_intertwining(LawReport("morphism:product", "mor1"), f,
                                   a.mu_basis, b.mu_vec, (f,) * 3, cap)]
    for k, am, bm in ((1, a.alpha1, b.alpha1), (2, a.alpha2, b.alpha2)):
        laws.append(reference_intertwining(
            LawReport(f"morphism:twist{k}", f"mor{k + 1}"), f,
            mat_columns(am).__getitem__, partial(mat_apply, bm), (f,), cap))
    return Report(laws)


def _sixths(rng, radicand):
    """A scalar over the denominators 1, 2 and 3, irrational about half the
    time."""
    def part():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))

    x = QuadScalar(part())
    if radicand != 1 and rng.random() < 0.5:
        x = x + QuadScalar(0, part(), radicand)
    return x


def sixths_matrix(rng, n, radicand):
    return [[_sixths(rng, radicand) if rng.random() < 0.7 else q(0)
             for _ in range(n)] for _ in range(n)]


def sixths_tensor(rng, shape, out, radicand):
    """A random sparse tensor over index tuples of ``shape``, each vector
    over ``out`` basis indices."""
    return {key: {l: _sixths(rng, radicand) for l in range(out)
                  if rng.random() < 0.7}
            for key in product(*map(range, shape)) if rng.random() < 0.6}


def _intertwining_structures(rng, n, radicand):
    """Random products and twists over the denominators 2 and 3, which
    mostly fail, a twisted one that is multiplicative, and that one scaled
    by such a constant and in another basis."""
    twisted = _algebra(rng, n, radicand, "twisted")
    scale = _sixths(rng, radicand) + q(5)
    scaled = TernaryHomAlgebra(
        n, {key: {l: scale * c for l, c in vec.items()}
            for key, vec in twisted.mu.items()},
        twisted.alpha1, twisted.alpha2, radicand)
    return [TernaryHomAlgebra(n, sixths_tensor(rng, (n,) * 3, n, radicand),
                              sixths_matrix(rng, n, radicand),
                              sixths_matrix(rng, n, radicand), radicand)
            for _ in range(2)] + [
        twisted, _transport(_change_of_basis(rng, n, radicand), scaled)]


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_intertwining_matches_quadscalar_reference(n, radicand):
    rng = random.Random(f"intertwining-{n}-{radicand}")
    for a in _intertwining_structures(rng, n, radicand):
        for cap in stop_points(
                lambda: reference_multiplicativity(a, UNLIMITED), n):
            assert a.check_multiplicativity(cap).as_dict() == \
                reference_multiplicativity(a, cap).as_dict()
        t = _change_of_basis(rng, n, radicand)
        b = _transport(t, a)
        for f in (t, sixths_matrix(rng, n, radicand)):
            for cap in stop_points(
                    lambda: reference_morphism(f, a, b, UNLIMITED), n):
                assert check_algebra_morphism(f, a, b, cap).as_dict() == \
                    reference_morphism(f, a, b, cap).as_dict()


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_yau_twist_matches_quadscalar_reference(n, radicand):
    rng = random.Random(f"yau-probe-{n}-{radicand}")
    for a in _intertwining_structures(rng, n, radicand):
        c = classical(n, a.mu, radicand)
        for rho in (a.alpha1, sixths_matrix(rng, n, radicand),
                    mat_identity(n)):
            probe = reference_intertwining(
                LawReport("endomorphism", "endo"), rho, c.mu_basis, c.mu_vec,
                (rho,) * 3, 1)
            if probe.violations:
                with pytest.raises(NotEndomorphism) as err:
                    c.yau_twist(rho)
                assert err.value.triple == probe.violations[0].index
            else:
                assert c.yau_twist(rho).mu == drop_zeros(
                    {key: mat_apply(rho, vec) for key, vec in c.mu.items()})


# -- truncation across packed rows -----------------------------------------

MODES = ("total", "partial", "weak")


def _int_algebra(mu, alpha1, alpha2):
    """A dim-2 algebra from a 0-based product and twist rows of ints."""
    return TernaryHomAlgebra(
        2, {key: {l: q(c) for l, c in vec.items()} for key, vec in mu.items()},
        mat(alpha1), mat(alpha2))


# every violation in row (1, 1, 1), as many of each law: 2 and 2 in total
# mode, 3 partial, 2 weak
FIRST_ROW = ({(0, 0, 1): {0: 1}, (0, 0, 0): {0: -1}, (1, 0, 0): {1: 1}},
             [[0, 0], [1, 0]], [[2, 0], [1, 0]])
# every violation at the last index tuple, (2, 2, 2, 2, 2)
LAST_TUPLE = {
    "total": ({(1, 1, 1): {1: -1}, (0, 1, 1): {0: 1}},
              [[0, 2], [0, 0]], [[-1, 0], [0, 1]]),
    "partial": ({(1, 1, 1): {1: 2}}, [[-1, 1], [0, 1]], [[1, 1], [0, 1]]),
    "weak": ({(1, 1, 1): {1: -1}, (0, 1, 1): {0: 1}},
             [[0, 2], [0, 0]], [[-1, 0], [0, 1]]),
}


# every violation in one row before the last, as many of each law, the
# last of each at the row's end, (i4, i5) = (2, 2); in partial and weak
# mode every member of the rows after it is zero
ROW_END = {
    "total": ({(1, 0, 1): {0: -2, 1: -1}, (1, 0, 0): {0: -2, 1: -1}},
              [[0, 0], [2, 0]], [[0, 0], [0, -1]]),
    "partial": ({(0, 1, 1): {1: -2}, (0, 0, 1): {0: 1}},
                [[0, -1], [2, -1]], [[0, -1], [0, 0]]),
    "weak": ({(0, 1, 1): {0: -2, 1: -2}, (0, 0, 0): {1: 1, 0: 2}},
             [[0, -1], [0, 0]], [[0, 0], [1, 0]]),
}


@pytest.mark.parametrize("mode", MODES)
def test_truncated_when_the_cap_is_reached_in_the_first_row(mode):
    a = _int_algebra(*FIRST_ROW)
    full = a.check_associativity(mode, UNLIMITED)
    assert all(v.index[:3] == (1, 1, 1)
               for lr in full.laws for v in lr.violations)
    (cap,) = {len(lr.violations) for lr in full.laws}
    # the rows after the first still remain, though every one holds
    capped = a.check_associativity(mode, cap)
    assert all(lr.truncated for lr in capped.laws)
    assert [lr.violations for lr in capped.laws] == \
        [lr.violations for lr in full.laws]
    assert not any(lr.truncated
                   for lr in a.check_associativity(mode, cap + 1).laws)


@pytest.mark.parametrize("mode", MODES)
def test_truncated_when_the_cap_is_reached_at_the_end_of_a_row(mode):
    a = _int_algebra(*ROW_END[mode])
    full = a.check_associativity(mode, UNLIMITED)
    (row,) = {v.index[:3] for lr in full.laws for v in lr.violations}
    assert row != (2, 2, 2)
    assert all(lr.violations[-1].index == row + (2, 2) for lr in full.laws)
    (cap,) = {len(lr.violations) for lr in full.laws}
    # the tuple after the last violation is in a later row
    capped = a.check_associativity(mode, cap)
    assert all(lr.truncated for lr in capped.laws)
    assert [lr.violations for lr in capped.laws] == \
        [lr.violations for lr in full.laws]
    assert not any(lr.truncated
                   for lr in a.check_associativity(mode, cap + 1).laws)


@pytest.mark.parametrize("mode", MODES)
def test_not_truncated_when_only_the_last_tuple_fails(mode):
    a = _int_algebra(*LAST_TUPLE[mode])
    for cap in (1, 2, UNLIMITED):
        report = a.check_associativity(mode, cap)
        assert not report.passed
        assert all(v.index == (2,) * 5
                   for lr in report.laws for v in lr.violations)
        assert not any(lr.truncated for lr in report.laws)


# -- the Yau twist of a totally associative algebra ------------------------


def _group_algebra(rng, n, radicand, klein):
    """mu(e_g, e_h, e_k) = c e_{ghk} over Z/n or the Klein group, and an
    endomorphism e_g -> chi(g) e_{phi(g)} for random homomorphisms
    phi: G -> G and chi: G -> {1, -1}."""
    if klein:
        op = int.__xor__
        bits = [rng.randrange(4) for _ in range(2)]  # phi on the generators
        phi = [(bits[0] if g & 1 else 0) ^ (bits[1] if g & 2 else 0)
               for g in range(n)]
        mask = rng.randrange(4)
        chi = [(-1) ** bin(g & mask).count("1") for g in range(n)]
    else:
        op = lambda g, h: (g + h) % n
        m = rng.randrange(n)
        phi = [m * g % n for g in range(n)]
        sign = rng.choice([1, -1]) if n % 2 == 0 else 1
        chi = [sign ** g for g in range(n)]
    c = _scalar(rng, radicand) + q(3)
    mu = {(g, h, k): {op(op(g, h), k): c}
          for g, h, k in product(range(n), repeat=3)}
    rho = [[q(chi[g]) if phi[g] == l else q(0) for g in range(n)]
           for l in range(n)]
    return classical(n, mu, radicand), rho


@pytest.mark.parametrize("radicand", [1, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_yau_twist_keeps_total_associativity(n, radicand):
    rng = random.Random(f"yau-{n}-{radicand}")
    for klein in (False, n == 4):
        a, rho = _group_algebra(rng, n, radicand, klein)
        # the same pair in a basis with sqrt(radicand) in it
        t = _change_of_basis(rng, n, radicand)
        b = _transport(t, a)
        sigma = mat_mul(mat_mul(t, rho), mat_inverse(t))
        for alg, endo in ((a, rho), (b, sigma)):
            assert alg.check_associativity("total", 1).passed
            assert alg.yau_twist(endo).check_associativity("total", 1).passed
