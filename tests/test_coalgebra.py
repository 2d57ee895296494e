import random
import re
from itertools import product

import pytest

from ternalg.algebra import TernaryHomAlgebra, classical
from ternalg.coalgebra import (
    TernaryHomCoalgebra,
    check_coalgebra_morphism,
    classical_coalgebra,
    is_coalgebra_isomorphism,
    tensor3_map,
)
from ternalg.duality import dualize_algebra
from ternalg.linalg import (
    mat_column,
    mat_columns,
    mat_identity,
    mat_inverse,
    mat_mul,
    vec_add_at,
)
from ternalg.report import SCALAR, Report, check_laws, mode_laws, mode_residuals
from ternalg.scalars import ZERO, QuadScalar, RadicandMismatch

from test_algebra import (
    MODES,
    OTHER_SIZES,
    UNLIMITED,
    _algebra,
    _int_algebra,
    _change_of_basis,
    _fraction,
    _verdicts,
    differential_structures,
    refuse,
    sixths_matrix,
    sixths_tensor,
    stop_points,
)


def q(x):
    return QuadScalar(x)


def delta_from(table):
    """1-based {l: {(r,s,t): coeff}} to the internal 0-based tensor."""
    delta = {}
    for l, tens in table.items():
        delta[l - 1] = {(r - 1, s - 1, t - 1): q(c)
                        for (r, s, t), c in tens.items()}
    return delta


def mat(rows):
    return [[q(x) for x in row] for row in rows]


# coproduct concentrated on one basis vector, nilpotent pattern
NILP_D = {1: {(2, 2, 2): 1}}
RHO_NILP = [[1, 0], [1, 1]]

# dense coproduct paired with an involutive-twist example
DENSE_D = {
    1: {(1, 1, 1): 1, (1, 2, 2): 2, (2, 2, 1): 2, (2, 2, 2): 3,
        (2, 1, 2): 2, (1, 1, 2): 1, (2, 1, 1): 1, (1, 2, 1): 1},
    2: {(1, 1, 2): -1, (1, 2, 2): -1, (2, 1, 1): -1, (2, 2, 1): -1,
        (2, 2, 2): -2, (1, 2, 1): -1, (2, 1, 2): -1},
}
RHO1 = [[1, 1], [0, -1]]


def nilp_co():
    return TernaryHomCoalgebra(2, delta_from(NILP_D), mat(RHO_NILP), mat(RHO_NILP))


def dense_co():
    return TernaryHomCoalgebra(2, delta_from(DENSE_D), mat(RHO1), mat(RHO1))


def test_delta_vec():
    c = nilp_co()
    assert c.delta_vec({0: q(3)}) == {(1, 1, 1): q(3)}
    assert c.delta_vec({1: q(1)}) == {}


def test_nilpotent_coassociativity():
    c = nilp_co()
    # Delta(e2) = 0 kills every expansion pattern
    for mode in ("total", "partial", "weak"):
        assert c.check_coassociativity(mode).passed


def test_dense_total_coassociativity():
    assert dense_co().check_coassociativity("total").passed
    assert dense_co().check_coassociativity("weak").passed


def test_dense_partial_fails():
    rep = dense_co().check_coassociativity("partial")
    lr = rep.law("coassoc:partial")
    assert not lr.passed
    assert lr.violations[0].index[0] == 1


def test_coassociativity_violation_located():
    # Delta(e1) = e1 x e1 x e1 with identity twists is totally coassociative;
    # skewing one twist breaks pattern equality
    c = TernaryHomCoalgebra(2, delta_from({1: {(1, 1, 1): 1}}),
                            mat([[0, 1], [1, 0]]), mat_identity(2))
    rep = c.check_coassociativity("total")
    assert not rep.passed


def test_comultiplicativity():
    assert nilp_co().check_comultiplicativity().passed
    # the dense example is a valid bialgebra without being comultiplicative
    assert not dense_co().check_comultiplicativity().passed


def test_comultiplicativity_fails_with_swap():
    c = TernaryHomCoalgebra(2, delta_from(NILP_D),
                            mat([[0, 1], [1, 0]]), mat(RHO_NILP))
    rep = c.check_comultiplicativity()
    assert not rep.law("comultiplicative:alpha1").passed


def test_structure_identity_matches_map_level_on_nilpotent():
    c = nilp_co()
    for mode in ("total", "partial", "weak"):
        map_verdict = c.check_coassociativity(mode, max_violations=1).passed
        idx_verdict = c.structure_identity_check(mode, max_violations=1).passed
        assert map_verdict == idx_verdict, (mode, map_verdict, idx_verdict)


def test_structure_identity_is_stricter_than_map_level():
    # the published index identities keep s and t free where the map-level
    # law sums over them, so they can fail on coassociative instances; the
    # dense example pins this divergence
    c = dense_co()
    assert c.check_coassociativity("total", max_violations=1).passed
    assert not c.structure_identity_check("total", max_violations=1).passed


def test_structure_identity_zero_coalgebra():
    c = classical_coalgebra(2, {})
    for mode in ("total", "partial", "weak"):
        assert c.structure_identity_check(mode).passed


def test_tensor3_map():
    swap = mat([[0, 1], [1, 0]])
    t = {(1, 1, 1): q(1)}
    assert tensor3_map(swap, swap, swap, t) == {(0, 0, 0): q(1)}
    ident = mat_identity(2)
    assert tensor3_map(ident, ident, ident, t) == t


def test_morphism_identity_passes():
    c = dense_co()
    assert check_coalgebra_morphism(mat_identity(2), c, c).passed
    assert is_coalgebra_isomorphism(mat_identity(2), c, c)


def test_morphism_swap_fails_on_nilpotent():
    c = nilp_co()
    swap = mat([[0, 1], [1, 0]])
    rep = check_coalgebra_morphism(swap, c, c)
    assert not rep.law("comorphism:coproduct").passed


def test_morphism_composition():
    c = dense_co()
    f = mat([[-1, 0], [0, -1]])
    rep = check_coalgebra_morphism(f, c, c)
    if rep.passed:
        from ternalg.linalg import mat_mul

        assert check_coalgebra_morphism(mat_mul(f, f), c, c).passed


def test_isomorphism_stops_at_the_first_failing_law(monkeypatch):
    # 2 id scales the coproduct of e1 by 8 on one side and 2 on the other
    monkeypatch.setattr("ternalg.coalgebra.twist_intertwining", refuse)
    c = nilp_co()
    assert not is_coalgebra_isomorphism(mat([[2, 0], [0, 2]]), c, c)


@pytest.mark.parametrize("f", OTHER_SIZES.values(), ids=OTHER_SIZES.keys())
def test_map_of_another_size_is_refused(f):
    c = nilp_co()
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        check_coalgebra_morphism(f, c, c)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        is_coalgebra_isomorphism(f, c, c)


# -- fraction-free coassociativity against QuadScalar evaluation ----------


def reference_patterns(c):
    """For each l, the three patterns applied to Delta(e_l), sparse
    tensors over (i, j, k, q, p) built from delta_vec, mat_column and
    QuadScalar arithmetic."""
    patterns = []
    for l in range(c.dim):
        u = ({}, {}, {})
        for (r, s, t), x in c.delta_basis(l).items():
            # the slot Delta expands, then the slots alpha1 and alpha2 map
            for m, (inner, f, g) in enumerate(((r, s, t), (s, r, t),
                                               (t, r, s))):
                for ijk, y in c.delta_vec({inner: x}).items():
                    for k, yk in mat_column(c.alpha1, f).items():
                        for h, yh in mat_column(c.alpha2, g).items():
                            key = [k, h]
                            key[m:m] = ijk
                            vec_add_at(u[m], tuple(key), y * yk * yh)
        patterns.append(u)
    return patterns


def reference_coassociativity(c, mode, cap, patterns=None):
    """check_coassociativity on the patterns of ``reference_patterns``,
    or on ``patterns`` where they are given."""
    if patterns is None:
        patterns = reference_patterns(c)
    indices = [(l,) + key for l, u in enumerate(patterns)
               for key in sorted(set().union(*u))]
    laws = mode_laws("coassoc", ("ct1a", "ct1b", "cq1", "cw1"), mode)
    check_laws(laws, mode_residuals(mode, SCALAR), indices,
               lambda idx: tuple(u.get(idx[1:], ZERO)
                                 for u in patterns[idx[0]]),
               str, cap)
    return Report(laws)


def assert_matches_reference(c):
    patterns = reference_patterns(c)
    for mode in ("total", "partial", "weak"):
        for cap in stop_points(lambda: reference_coassociativity(
                c, mode, UNLIMITED, patterns), c.dim):
            assert c.check_coassociativity(mode, cap).as_dict() == \
                reference_coassociativity(c, mode, cap, patterns).as_dict()


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coassociativity_matches_quadscalar_reference(n, radicand):
    rng = random.Random(f"coassoc-{n}-{radicand}")
    for a in differential_structures(rng, n, radicand):
        assert_matches_reference(dualize_algebra(a))


def _entries(residual: str) -> dict:
    """The entries ``{l: c}`` (1-based l) of a ``vec_str`` residual."""
    return {int(l): c for l, c in re.findall(r"e(\d+): ([^,}]+)", residual)}


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_coassociativity_of_the_dual_is_associativity_entry_by_entry(
        n, radicand):
    # both laws come from one check_packed scale over different row
    # builders: entry l of the associativity residual at (i, j, k, q, p)
    # is the coassociativity residual of the dual at (l, i, j, k, q, p)
    rng = random.Random(f"dual-entries-{n}-{radicand}")
    for _ in range(25):
        alpha1 = sixths_matrix(rng, n, radicand)
        alpha2 = sixths_matrix(rng, n, radicand)
        while alpha2 == alpha1:
            alpha2 = sixths_matrix(rng, n, radicand)
        a = TernaryHomAlgebra(n, sixths_tensor(rng, (n,) * 3, n, radicand),
                              alpha1, alpha2, radicand)
        for mode in MODES:
            assoc = a.check_associativity(mode, UNLIMITED)
            coassoc = dualize_algebra(a).check_coassociativity(mode,
                                                               UNLIMITED)
            for lr, co in zip(assoc.laws, coassoc.laws, strict=True):
                expected = {(l, *v.index): c for v in lr.violations
                            for l, c in _entries(v.residual).items()}
                assert {v.index: v.residual
                        for v in co.violations} == expected


def matrix_algebra(k):
    """M_k: mu(x, y, z) = xyz on the matrix units e_ab = e_(a k + b), with
    identity twists."""
    return classical(k * k, {(a * k + b, b * k + c, c * k + d):
                             {a * k + d: q(1)}
                             for a, b, c, d in product(range(k), repeat=4)})


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coassociativity_of_a_matrix_dual_is_associativity_at_scale(k):
    # M_4's dual has dim 16, so a row over all (i, j, k, q, p) of an l
    # would hold 16^5 slots; capped reports keep the first violations of
    # each law in the order (l, i, j, k, q, p)
    exact = matrix_algebra(k)
    mu = {key: dict(vec) for key, vec in exact.mu.items()}
    mu[0, 0, 0] = {0: q(2)}  # e_11 e_11 e_11 = 2 e_11
    for a in (exact, classical(k * k, mu)):
        entries = [sorted(((l, *v.index), c) for v in lr.violations
                          for l, c in _entries(v.residual).items())
                   for lr in a.check_associativity("total", UNLIMITED).laws]
        dual = dualize_algebra(a)
        for cap in (1, 2, 10, UNLIMITED):
            coassoc = dual.check_coassociativity("total", cap)
            assert coassoc.passed == a.check_associativity("total",
                                                           cap).passed
            for expected, co in zip(entries, coassoc.laws, strict=True):
                assert [(v.index, v.residual) for v in co.violations] == \
                    expected[:cap]
                assert co.truncated or len(expected) <= cap
        assert a is exact or not coassoc.passed


def test_coassociativity_takes_the_radicand_from_the_constants():
    r2 = QuadScalar("1/2", "-3/4", 2)
    c = classical_coalgebra(2, {0: {(0, 0, 0): r2, (1, 0, 1): q(1)},
                                1: {(0, 0, 0): r2 * r2,
                                    (0, 1, 1): QuadScalar(0, "2/3", 2)}})
    assert c.radicand == 1
    assert_matches_reference(c)


def test_mixed_radicands_are_refused():
    c = classical_coalgebra(2, {0: {(0, 0, 0): QuadScalar(0, 1, 2)},
                                1: {(0, 0, 0): QuadScalar(0, 1, 3)}})
    for mode in ("total", "partial", "weak"):
        with pytest.raises(RadicandMismatch):
            c.check_coassociativity(mode)


# -- the structure-constant oracle against its three-block form -----------


def reference_structure_identity(c, mode, cap):
    """structure_identity_check as three loop nests, one per term, over
    the dense twist rows."""
    laws = mode_laws("structure", ("q3a", "q3b", "q2", "q4"), mode)
    n, a1, a2 = c.dim, c.alpha1, c.alpha2
    terms = ({}, {}, {})
    for l, tens in c.delta.items():
        for (r, s, t), c_lrst in tens.items():
            for (i, j, k), inner in c.delta.get(r, {}).items():
                for q_ in range(n):
                    if not a1[q_][s]:
                        continue
                    for p in range(n):
                        if a2[p][t]:
                            vec_add_at(terms[0], (i, j, k, s, t, l, p, q_),
                                c_lrst * inner * a1[q_][s] * a2[p][t])
            for (j, k, q_), inner in c.delta.get(s, {}).items():
                for i in range(n):
                    if not a1[i][r]:
                        continue
                    for p in range(n):
                        if a2[p][t]:
                            vec_add_at(terms[1], (i, j, k, s, t, l, p, q_),
                                c_lrst * inner * a1[i][r] * a2[p][t])
            for (k, q_, p), inner in c.delta.get(t, {}).items():
                for i in range(n):
                    if not a1[i][r]:
                        continue
                    for j in range(n):
                        if a2[j][s]:
                            vec_add_at(terms[2], (i, j, k, s, t, l, p, q_),
                                c_lrst * inner * a1[i][r] * a2[j][s])
    check_laws(laws, mode_residuals(mode, SCALAR), sorted(set().union(*terms)),
               lambda key: tuple(t.get(key, ZERO) for t in terms), str, cap)
    return Report(laws)


def _twist(rng, n, radicand, family):
    """The identity, a permutation with nonzero entries, or a dense map."""
    if family == "identity":
        return mat_identity(n)
    if family == "permutation":
        perm = rng.sample(range(n), n)
        return [[_fraction(rng, radicand) or q(1) if perm[j] == i else q(0)
                 for j in range(n)] for i in range(n)]
    return [[_fraction(rng, radicand) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_identity_matches_its_three_block_form(n, radicand):
    rng = random.Random(f"structure-{n}-{radicand}")
    for twists in (("identity", "permutation"), ("permutation", "dense"),
                   ("dense", "identity"), ("dense", "dense")):
        # six coproduct constants at most keep every cap quick to try
        delta = {}
        for l, *key in rng.sample(list(product(range(n), repeat=4)),
                                  min(n ** 4, 6)):
            delta.setdefault(l, {})[tuple(key)] = _fraction(rng, radicand)
        c = TernaryHomCoalgebra(
            n, delta, *(_twist(rng, n, radicand, f) for f in twists), radicand)
        for mode in MODES:
            full = reference_structure_identity(c, mode, UNLIMITED)
            most = max(len(lr.violations) for lr in full.laws)
            for cap in (*range(1, most + 2), UNLIMITED):
                assert c.structure_identity_check(mode, cap).as_dict() == \
                    reference_structure_identity(c, mode, cap).as_dict()


# -- truncation across packed rows -----------------------------------------

# duals of dim-2 algebras given as in test_algebra: every violation in row
# l = 1, as many of each law, and a nonzero pattern in row l = 2
FIRST_ROW = {
    "total": ({(1, 1, 1): {1: 2}, (1, 0, 1): {0: 2}},
              [[1, 0], [0, 1]], [[2, 0], [0, 1]]),
    "partial": ({(0, 1, 0): {0: 1}}, [[1, 0], [0, 1]], [[1, 0], [2, -1]]),
    "weak": ({(0, 0, 1): {1: 2}, (1, 0, 1): {0: -1}, (1, 0, 0): {0: 2}},
             [[0, 0], [1, 0]], [[-1, 0], [0, -1]]),
}
# every violation at the last index tuple, (2, 2, 2, 2, 2, 2)
LAST_TUPLE = {
    "total": ({(1, 1, 1): {0: -1}, (0, 1, 0): {1: 1}},
              [[0, 0], [0, 1]], [[0, 1], [0, 0]]),
    "partial": ({(1, 1, 1): {1: 2}}, [[-1, 1], [0, 1]], [[1, 1], [0, 1]]),
    "weak": ({(1, 1, 1): {0: -1}, (0, 1, 0): {1: 1}},
             [[-1, 0], [0, -1]], [[0, 2], [0, 0]]),
}


# every violation in row l = 1, as many of each law, the last of each at
# the last tuple of the row where a pattern is nonzero; row l = 2 has such
# a tuple (True) or none (False)
ROW_END = {
    ("total", True): ({(1, 1, 1): {1: -1}, (1, 0, 1): {0: -1}},
                      [[1, -1], [0, 1]], [[1, -1], [0, 2]]),
    ("total", False): ({(1, 0, 1): {0: -1}},
                       [[-1, 1], [0, 2]], [[0, 0], [2, -1]]),
    ("partial", True): ({(1, 0, 1): {1: -1}, (0, 1, 1): {0: 1}},
                        [[0, 2], [0, 2]], [[0, 0], [0, 1]]),
    ("partial", False): ({(1, 1, 1): {0: -1}, (1, 0, 0): {0: 1}},
                         [[-1, -1], [-1, -1]], [[1, -1], [0, 0]]),
    ("weak", True): ({(1, 1, 1): {1: 2}, (0, 1, 1): {0: 1}},
                     [[2, 2], [0, -1]], [[-1, 0], [0, 1]]),
    ("weak", False): ({(1, 1, 1): {0: -1}, (1, 0, 0): {0: 1}},
                      [[-1, -1], [-1, -1]], [[1, -1], [0, 0]]),
}


@pytest.mark.parametrize("mode", MODES)
def test_truncated_when_the_cap_is_reached_in_the_first_row(mode):
    c = dualize_algebra(_int_algebra(*FIRST_ROW[mode]))
    full = c.check_coassociativity(mode, UNLIMITED)
    assert all(v.index[0] == 1 for lr in full.laws for v in lr.violations)
    (cap,) = {len(lr.violations) for lr in full.laws}
    capped = c.check_coassociativity(mode, cap)
    assert all(lr.truncated for lr in capped.laws)
    assert [lr.violations for lr in capped.laws] == \
        [lr.violations for lr in full.laws]
    assert not any(lr.truncated
                   for lr in c.check_coassociativity(mode, cap + 1).laws)


@pytest.mark.parametrize("later", [True, False])
@pytest.mark.parametrize("mode", MODES)
def test_truncated_at_a_row_end_only_if_a_later_row_has_a_tuple(mode, later):
    c = dualize_algebra(_int_algebra(*ROW_END[mode, later]))
    full = c.check_coassociativity(mode, UNLIMITED)
    tuples = [sorted(set().union(*u)) for u in reference_patterns(c)]
    end = (1,) + tuple(i + 1 for i in tuples[0][-1])
    assert all(lr.violations[-1].index == end for lr in full.laws)
    assert bool(tuples[1]) == later
    (cap,) = {len(lr.violations) for lr in full.laws}
    capped = c.check_coassociativity(mode, cap)
    assert [lr.truncated for lr in capped.laws] == [later] * len(full.laws)
    assert [lr.violations for lr in capped.laws] == \
        [lr.violations for lr in full.laws]


@pytest.mark.parametrize("mode", MODES)
def test_not_truncated_when_only_the_last_tuple_fails(mode):
    c = dualize_algebra(_int_algebra(*LAST_TUPLE[mode]))
    for cap in (1, 2, UNLIMITED):
        report = c.check_coassociativity(mode, cap)
        assert not report.passed
        assert all(v.index == (2,) * 6
                   for lr in report.laws for v in lr.violations)
        assert not any(lr.truncated for lr in report.laws)


# -- transport along a change of basis ------------------------------------


def _cotransport(t, c):
    """Delta' = (t x t x t) Delta t^-1 and alpha'_k = t alpha_k t^-1."""
    inv = mat_inverse(t)
    cols = mat_columns(inv)
    delta = {l: tensor3_map(t, t, t, c.delta_vec(cols[l]))
             for l in range(c.dim)}
    return TernaryHomCoalgebra(c.dim, delta,
                               mat_mul(mat_mul(t, c.alpha1), inv),
                               mat_mul(mat_mul(t, c.alpha2), inv), c.radicand)


@pytest.mark.parametrize("family", ["random", "classical", "twisted"])
@pytest.mark.parametrize("radicand", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_change_of_basis_keeps_every_verdict(n, radicand, family):
    rng = random.Random(f"co-{n}-{radicand}-{family}")
    for _ in range(3):
        c = dualize_algebra(_algebra(rng, n, radicand, family))
        t = _change_of_basis(rng, n, radicand)
        d = _cotransport(t, c)
        for mode in ("total", "partial", "weak"):
            assert _verdicts(d.check_coassociativity(mode, 1)) == \
                _verdicts(c.check_coassociativity(mode, 1))
        assert _verdicts(d.check_comultiplicativity(1)) == \
            _verdicts(c.check_comultiplicativity(1))
        assert is_coalgebra_isomorphism(t, c, d)
