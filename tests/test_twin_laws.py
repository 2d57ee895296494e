"""A law decided as the twin of another reports what it reports alone.

With alpha1 = alpha2 the two multiplicativity laws compare the same
tables, and so do the two comultiplicativity laws, the two twist laws of
an algebra or coalgebra morphism, and the beta1 and beta2 halves of
trimodule laws 7-9 and matched-pair laws 23-28 when beta1 = beta2.  The
checkers decide such a law once and give its twin the same violations.
These tests decide every law in a call of its own instead and compare
the reports, for twists given as one object, as equal copies and as
different matrices, at caps 1, 2, each violation count and one past it.
"""

import copy
import random

import pytest

from ternalg import algebra, coalgebra, trimodule
from ternalg.algebra import TernaryHomAlgebra, check_algebra_morphism
from ternalg.coalgebra import (
    TernaryHomCoalgebra,
    _comorphism_defects,
    check_coalgebra_morphism,
)
from ternalg.matched_pair import MatchedPairData, check_matched_pair
from ternalg.report import LawReport, Report
from ternalg.trimodule import BihomModule, check_trimodule

from test_algebra import UNLIMITED, sixths_matrix, sixths_tensor
from test_trimodule import sixths_actions

KINDS = ("one object", "equal copies", "different")
RADICAND = 5


def twists(rng, n, kind):
    first = sixths_matrix(rng, n, RADICAND)
    if kind == "one object":
        return first, first
    if kind == "equal copies":
        return first, copy.deepcopy(first)
    second = sixths_matrix(rng, n, RADICAND)
    while second == first:
        second = sixths_matrix(rng, n, RADICAND)
    return first, second


def algebra_with(rng, n, kind):
    return TernaryHomAlgebra(n, sixths_tensor(rng, (n,) * 3, n, RADICAND),
                             *twists(rng, n, kind), RADICAND)


def coalgebra_with(rng, n, kind):
    delta = {l: {key: vec[0] for key, vec in
                 sixths_tensor(rng, (n,) * 3, 1, RADICAND).items() if vec}
             for l in range(n)}
    return TernaryHomCoalgebra(n, delta, *twists(rng, n, kind), RADICAND)


real_intertwining = algebra.intertwining


def each_law_alone(laws, cap, *args):
    """``intertwining`` with a call of its own for each law."""
    for law in laws:
        yield from real_intertwining([law], cap, *args)


def comultiplicativity_alone(c, cap):
    return Report([
        _comorphism_defects(LawReport(f"comultiplicative:alpha{k}",
                                      f"comult{k}"), c, cols, c, cap)
        for k, cols in ((1, c._alpha1_cols), (2, c._alpha2_cols))])


def caps(full: Report) -> list:
    counts = {len(lr.violations) for lr in full.laws} - {0}
    return sorted({1, 2} | counts | {k + 1 for k in counts})


def assert_each_law_alone_agrees(monkeypatch, check, alone=None):
    """``check(cap)`` against the same check with every law decided in a
    call of its own, or against ``alone(cap)`` where given."""
    def by_itself(cap):
        if alone is not None:
            return alone(cap)
        with monkeypatch.context() as m:
            for module in (algebra, coalgebra, trimodule):
                m.setattr(module, "intertwining", each_law_alone)
            return check(cap)

    full = check(UNLIMITED)
    assert full.as_dict() == by_itself(UNLIMITED).as_dict()
    for cap in caps(full):
        assert check(cap).as_dict() == by_itself(cap).as_dict()
    return full


def assert_shares_violations(lr, twin, kind):
    """A twin holds the violation objects of the law it copies, in a list
    of its own; a law of different tables shares none.  Returns whether
    the twin has violations."""
    assert twin.violations is not lr.violations
    shared = [v for v in twin.violations
              if any(v is u for u in lr.violations)]
    assert shared == (twin.violations if kind != "different" else [])
    return bool(twin.violations)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_multiplicativity(monkeypatch, n, kind):
    rng = random.Random(f"twin-mult-{n}-{kind}")
    failing = 0
    for _ in range(3):
        a = algebra_with(rng, n, kind)
        full = assert_each_law_alone_agrees(monkeypatch,
                                            a.check_multiplicativity)
        failing += assert_shares_violations(*full.laws, kind)
    assert failing


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_comultiplicativity(monkeypatch, n, kind):
    rng = random.Random(f"twin-comult-{n}-{kind}")
    failing = 0
    for _ in range(3):
        c = coalgebra_with(rng, n, kind)
        full = assert_each_law_alone_agrees(
            monkeypatch, c.check_comultiplicativity,
            lambda cap: comultiplicativity_alone(c, cap))
        failing += assert_shares_violations(*full.laws, kind)
    assert failing


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_morphism_twist_laws(monkeypatch, n, kind):
    rng = random.Random(f"twin-mor-{n}-{kind}")
    failing = 0
    for _ in range(3):
        a, b = algebra_with(rng, n, kind), algebra_with(rng, n, kind)
        f = sixths_matrix(rng, n, RADICAND)
        full = assert_each_law_alone_agrees(
            monkeypatch, lambda cap: check_algebra_morphism(f, a, b, cap))
        failing += assert_shares_violations(*full.laws[1:], kind)
    assert failing


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_comorphism_twist_laws(monkeypatch, n, kind):
    rng = random.Random(f"twin-comor-{n}-{kind}")
    failing = 0
    for _ in range(3):
        c1, c2 = coalgebra_with(rng, n, kind), coalgebra_with(rng, n, kind)
        f = sixths_matrix(rng, n, RADICAND)
        full = assert_each_law_alone_agrees(
            monkeypatch, lambda cap: check_coalgebra_morphism(f, c1, c2, cap))
        failing += assert_shares_violations(*full.laws[1:], kind)
    assert failing


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, m", [(1, 2), (2, 2), (2, 1)])
def test_trimodule_laws_7_to_9(monkeypatch, n, m, kind):
    rng = random.Random(f"twin-tri-{n}-{m}-{kind}")
    failing = 0
    for _ in range(2):
        alg = algebra_with(rng, n, "different")
        mod = BihomModule(m, *twists(rng, m, kind))
        act = sixths_actions(rng, n, m, RADICAND)
        full = assert_each_law_alone_agrees(
            monkeypatch,
            lambda cap: check_trimodule(alg, mod, act, "total", "full", cap))
        for law in ("7", "8", "9"):
            failing += assert_shares_violations(
                full.law(f"trimodule.tr{law}.beta1"),
                full.law(f"trimodule.tr{law}.beta2"), kind)
    assert failing


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("na, nb", [(1, 2), (2, 1)])
def test_matched_pair_laws_23_to_28(monkeypatch, na, nb, kind):
    rng = random.Random(f"twin-mp-{na}-{nb}-{kind}")
    failing = 0
    for _ in range(2):
        mp = MatchedPairData(algebra_with(rng, na, kind),
                             algebra_with(rng, nb, kind),
                             sixths_actions(rng, na, nb, RADICAND),
                             sixths_actions(rng, nb, na, RADICAND))
        full = assert_each_law_alone_agrees(
            monkeypatch,
            lambda cap: check_matched_pair(mp, "total", True, cap))
        for law in range(23, 29):
            failing += assert_shares_violations(
                full.law(f"matchedpair.full.mp{law}.i1"),
                full.law(f"matchedpair.full.mp{law}.i2"), kind)
    assert failing
