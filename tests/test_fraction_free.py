"""The intertwining laws and the compatibility law do no QuadScalar
arithmetic.

Multiplicativity, the morphism laws, the Yau-twist probe and the
compatibility law of a bialgebra run on int pairs lifted once per call;
a residual becomes scalars only when it is recorded, through
``scalars.unlift``, which makes one scalar per entry and adds or
multiplies none.  These tests count the scalar operations such a call
makes, so that a silent fallback to QuadScalar arithmetic shows.
"""

import importlib
import random
from collections import Counter

import pytest

from ternalg import scalars
from ternalg.algebra import (
    NotEndomorphism,
    TernaryHomAlgebra,
    check_algebra_morphism,
    classical,
)
from ternalg.bialgebra import bialgebra, check_compatibility
from ternalg.linalg import mat_inverse, mat_mul
from ternalg.report import LawReport, Report
from ternalg.scalars import QuadScalar

from test_algebra import (
    UNLIMITED,
    _change_of_basis,
    _intertwining_structures,
    _transport,
    sixths_matrix,
    sixths_tensor,
)
from test_bialgebra import pb2, sixths_bialgebras, transport_bialgebra

ARITHMETIC = ("__add__", "__sub__", "__mul__")
# the module itself, whose name the package also gives a function
algebra_mod = importlib.import_module("ternalg.algebra")


@pytest.fixture
def ops(monkeypatch):
    """Counts of QuadScalar +, - and *, and of scalars made by
    ``scalars._make``, which ``unlift`` calls once per entry."""
    seen = Counter()
    for op in ARITHMETIC:
        real = QuadScalar.__dict__[op]

        def spy(self, other, real=real, op=op):
            seen[op] += 1
            return real(self, other)

        monkeypatch.setattr(QuadScalar, op, spy)
    make = scalars._make

    def spy_make(*args):
        seen["made"] += 1
        return make(*args)

    monkeypatch.setattr(scalars, "_make", spy_make)
    return seen


def recorded_entries(report) -> int:
    """The scalars in the residuals of ``report``, one per ``key: value``,
    each ``Violation`` counted once: a twin law shares those of the law
    it copies."""
    unique = {id(v): v for lr in report.laws for v in lr.violations}
    return sum(v.residual.count(": ") for v in unique.values())


def q(x):
    return QuadScalar(x)


def sixths_algebra_pair(rng):
    """A dim-3 algebra over the denominators 2 and 3 whose twists are
    multiplicative, the same algebra in another basis, and that change of
    basis."""
    a = _intertwining_structures(rng, 3, 5)[-1]
    t = _change_of_basis(rng, 3, 5)
    return a, _transport(t, a), t


def assert_fraction_free(ops, run):
    ops.clear()
    report = run()
    assert not any(ops[op] for op in ARITHMETIC), dict(ops)
    assert ops["made"] == recorded_entries(report)
    return report


def test_the_spy_sees_quadscalar_arithmetic(ops):
    x, y, z = q("1/2"), q(3), q(1)
    ops.clear()
    x * y + z
    assert ops["__mul__"] == ops["__add__"] == 1 and ops["made"] == 2


def test_passing_laws_do_no_scalar_arithmetic(ops):
    rng = random.Random("fraction-free-pass")
    a, b, t = sixths_algebra_pair(rng)
    assert any(x.q != 1 for row in t for x in row)
    for run in (lambda: b.check_multiplicativity(UNLIMITED),
                lambda: check_algebra_morphism(t, a, b, UNLIMITED)):
        assert assert_fraction_free(ops, run).passed
    # pb2 beside a dim-1 block twisted by 1/2, its product and coproduct
    # scaled by 2/3 and 3/2, in another basis: compatibility still holds
    base = pb2()
    half = q("1/2")
    twist = [row + [q(0)] for row in base.alpha1] + [[q(0), q(0), half]]
    bi = bialgebra(3, {key: {l: q("2/3") * x for l, x in vec.items()}
                       for key, vec in base.alg.mu.items()},
                   {l: {key: q("3/2") * x for key, x in tt.items()}
                    for l, tt in base.coalg.delta.items()},
                   twist, twist)
    bi = transport_bialgebra(_change_of_basis(rng, 3, 1), bi)
    assert any(x.q != 1 for vec in bi.alg.mu.values() for x in vec.values())
    assert assert_fraction_free(
        ops, lambda: check_compatibility(bi, UNLIMITED)).passed


def test_failing_laws_only_make_the_recorded_scalars(ops):
    rng = random.Random("fraction-free-fail")
    a, b, t = sixths_algebra_pair(rng)
    f = sixths_matrix(rng, 3, 5)
    random_alg = _intertwining_structures(rng, 3, 5)[0]
    for cap in (1, 3, UNLIMITED):
        for run in (lambda: random_alg.check_multiplicativity(cap),
                    lambda: check_algebra_morphism(f, a, b, cap)):
            assert not assert_fraction_free(ops, run).passed
        for bi in sixths_bialgebras(rng, 3, 2):
            assert not assert_fraction_free(
                ops, lambda: check_compatibility(bi, cap)).passed


def test_yau_twist_probe_does_no_scalar_arithmetic(ops, monkeypatch):
    """The probe is one call of ``intertwining``; only what that call does
    is counted, since the twisted table is built with scalars after it."""
    probes, inside = [], Counter()
    real = algebra_mod.intertwining

    def counted(*args):
        laws = real(*args)
        while True:
            start = ops.copy()
            try:
                lr = next(laws)
            except StopIteration:
                return
            finally:
                inside.update(ops - start)
            probes.append(lr)
            yield lr

    monkeypatch.setattr(algebra_mod, "intertwining", counted)
    rng = random.Random("fraction-free-yau")
    # a diagonal product with constants over 2, 3 and 4 and a sign twist
    # on it, both carried to a basis over the denominators 2 and 3
    c = classical(3, {(i, i, i): {i: q(f"{i + 1}/{i + 2}")}
                      for i in range(3)})
    t = [[q(1), q("1/2"), q("2/3")], [q(0), q(1), q("1/3")],
         [q(0), q(0), q(1)]]
    c = _transport(t, c)
    sign = [[q(-1), q(0), q(0)], [q(0), q(1), q(0)], [q(0), q(0), q(0)]]
    rho = mat_mul(mat_mul(t, sign), mat_inverse(t))
    assert any(x.q != 1 for row in rho for x in row)
    c.yau_twist(rho)
    assert probes[-1].passed
    assert not inside
    rho = sixths_matrix(rng, 3, 1)
    ops.clear()
    with pytest.raises(NotEndomorphism):
        c.yau_twist(rho)
    assert not any(ops[op] for op in ARITHMETIC)
    assert ops["made"] == recorded_entries(Report([probes[-1]])) > 0


def test_a_twin_law_lifts_nothing_and_makes_no_scalar(ops, monkeypatch):
    """With alpha1 = alpha2 the second multiplicativity law compares the
    tables of the first, so it takes the first law's violations: between
    the two laws nothing is lifted and no scalar is made or added."""
    lifted = []
    real_lift = algebra_mod.lift
    monkeypatch.setattr(algebra_mod, "lift",
                        lambda table: lifted.append(table) or real_lift(table))
    rng = random.Random("fraction-free-twin")
    twist = sixths_matrix(rng, 3, 5)
    for second in (twist, [row[:] for row in twist]):
        a = TernaryHomAlgebra(3, sixths_tensor(rng, (3,) * 3, 3, 5), twist,
                              second, 5)
        for cap in (1, 3, UNLIMITED):
            laws = algebra_mod.intertwining(
                [(LawReport(f"mult{k}", f"mult{k}"), cols, a.mu, a.mu,
                  (cols,) * 3) for k, cols in
                 enumerate((a._alpha1_cols, a._alpha2_cols))], cap)
            ops.clear()
            first = next(laws)
            assert not first.passed and lifted
            assert ops["made"] == recorded_entries(Report([first]))
            ops.clear()
            lifted.clear()
            twin = next(laws)
            assert not any(ops.values()) and not lifted
            assert twin.violations == first.violations
            assert twin.truncated == first.truncated
    # and a whole check records each shared violation's scalars once
    assert not assert_fraction_free(
        ops, lambda: a.check_multiplicativity(UNLIMITED)).passed
