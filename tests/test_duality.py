import random

import pytest

from ternalg.algebra import TernaryHomAlgebra, classical
from ternalg.bialgebra import bialgebra, dualize_bialgebra
from ternalg.coalgebra import TernaryHomCoalgebra
from ternalg.duality import dualize_algebra, dualize_coalgebra, dualize_linear_map
from ternalg.linalg import mat_transpose
from ternalg.scalars import QuadScalar
from ternalg.serialization import dump_text

from test_algebra import DENSE, NILP, RHO1, _random_structure, mat, mu_from


def q(x):
    return QuadScalar(x)


def p2h():
    # nilpotent product twisted along rho(e1) = 2e1 + 3e2, rho(e2) = 8e2
    return classical(2, mu_from(NILP)).yau_twist(mat([[2, 0], [3, 8]]))


def t2h1():
    return classical(2, mu_from(DENSE)).yau_twist(mat(RHO1))


def test_dual_of_twisted_nilpotent():
    c = dualize_algebra(p2h())
    # coproduct sends the second dual basis vector to 8 e1*x e1*x e1*
    assert c.delta == {1: {(0, 0, 0): q(8)}}
    # transposed twist: alpha*(e1*) = 2e1*, alpha*(e2*) = 3e1* + 8e2*
    assert c.alpha1 == mat([[2, 3], [0, 8]])


def test_dual_of_twisted_dense():
    c = dualize_algebra(t2h1())
    d1 = c.delta[0]
    # eight-term coproduct; spot-check the coefficient 3 on e2*x e2*x e2*
    assert d1[(1, 1, 1)] == q(3)
    assert d1[(0, 0, 0)] == q(1)
    assert d1[(0, 1, 1)] == q(2)
    assert len(d1) == 8
    d2 = c.delta[1]
    assert all(coeff == q(-1) or coeff == q(-2) for coeff in d2.values())
    assert d2[(1, 1, 1)] == q(-2)
    assert len(d2) == 7


def test_mode_transport():
    # the dual coalgebra satisfies exactly the modes the algebra does
    for alg in (p2h(), t2h1(), classical(2, mu_from(NILP))):
        c = dualize_algebra(alg)
        for mode in ("total", "partial", "weak"):
            assert alg.check_associativity(mode, max_violations=1).passed == \
                c.check_coassociativity(mode, max_violations=1).passed


def test_round_trip_is_identity():
    for alg in (p2h(), t2h1()):
        back = dualize_coalgebra(dualize_algebra(alg))
        assert back.mu == alg.mu
        assert back.alpha1 == alg.alpha1
        assert back.alpha2 == alg.alpha2


def test_dualize_linear_map_is_transpose_involution():
    f = mat([[1, 2], [3, 4]])
    assert dualize_linear_map(f) == mat_transpose(f)
    assert dualize_linear_map(dualize_linear_map(f)) == f


def test_mode_transport_random():
    rng = random.Random(20240824)
    for _ in range(60):
        dim = rng.choice([1, 2, 3])
        mu = {}
        for _ in range(rng.randrange(4)):
            key = tuple(rng.randrange(dim) for _ in range(3))
            mu.setdefault(key, {})[rng.randrange(dim)] = q(rng.choice([-1, 1, 2]))
        alpha = [[q(rng.choice([0, 1, -1])) for _ in range(dim)]
                 for _ in range(dim)]
        alg = TernaryHomAlgebra(dim, mu, alpha, alpha)
        c = dualize_algebra(alg)
        for mode in ("total", "partial", "weak"):
            assert alg.check_associativity(mode, max_violations=1).passed == \
                c.check_coassociativity(mode, max_violations=1).passed
        back = dualize_coalgebra(c)
        assert back.mu == alg.mu and back.alpha1 == alg.alpha1


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_dualizing_twice_dumps_the_same_text(n, radicand):
    rng = random.Random(f"dual-{n}-{radicand}")
    for _ in range(3):
        a = _random_structure(rng, n, radicand)
        b = _random_structure(rng, n, radicand)
        c = dualize_algebra(b)
        bi = bialgebra(n, a.mu, c.delta, a.alpha1, a.alpha2, radicand)
        assert dump_text(dualize_coalgebra(dualize_algebra(a))) == dump_text(a)
        assert dump_text(dualize_algebra(dualize_coalgebra(c))) == dump_text(c)
        assert dump_text(dualize_bialgebra(dualize_bialgebra(bi))) == \
            dump_text(bi)
