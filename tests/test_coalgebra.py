import random

import pytest

from ternalg.coalgebra import (
    TernaryHomCoalgebra,
    check_coalgebra_morphism,
    classical_coalgebra,
    is_coalgebra_isomorphism,
    tensor3_map,
)
from ternalg.linalg import mat_identity
from ternalg.scalars import QuadScalar

from test_algebra import refuse


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


@pytest.mark.parametrize("size", [1, 3])
def test_map_of_another_size_is_refused(size):
    c = nilp_co()
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        check_coalgebra_morphism(mat_identity(size), c, c)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        is_coalgebra_isomorphism(mat_identity(size), c, c)
