import random
from itertools import product

import pytest

from ternalg.algebra import TernaryHomAlgebra, classical
from ternalg.linalg import mat_identity
from ternalg.matched_pair import (
    CONDITIONS,
    MatchedPairData,
    bicrossed_product,
    check_matched_pair,
)
from ternalg.scalars import QuadScalar
from ternalg.trimodule import (
    BihomModule,
    TrimoduleActions,
    regular_actions,
    semidirect_product,
)

from test_algebra import (
    DENSE,
    RHO1,
    _algebra,
    _change_of_basis,
    _transport,
    _verdicts,
    mat,
    mu_from,
    sixths_matrix,
    sixths_tensor,
)
from test_trimodule import (
    assert_matches_reference,
    check_table,
    namespaces,
    sixths_actions,
    transport_actions,
)


def q(x):
    return QuadScalar(x)


def t2h1():
    return classical(2, mu_from(DENSE)).yau_twist(mat(RHO1))


def zero_algebra(dim, twist):
    return TernaryHomAlgebra(dim, {}, twist, twist)


def degenerate_pair():
    """B carries no product and does not act back; only A acts on B."""
    alg = t2h1()
    mod, act = regular_actions(alg, "lmr")
    b = zero_algebra(2, mat(RHO1))
    return alg, mod, act, MatchedPairData(alg, b, act, TrimoduleActions())


def test_degenerate_pair_matches_semidirect():
    alg, mod, act, mp = degenerate_pair()
    prod = bicrossed_product(mp)
    sd = semidirect_product(alg, mod, act)
    assert prod.dim == sd.dim
    assert prod.mu == sd.mu
    assert prod.alpha1 == sd.alpha1 and prod.alpha2 == sd.alpha2


def test_degenerate_pair_passes():
    _, _, _, mp = degenerate_pair()
    rep = check_matched_pair(mp, mode="total")
    assert rep.passed, [lr.law for lr in rep.laws if not lr.passed]
    assert bicrossed_product(mp).check_associativity("total").passed


def test_zero_actions_pass_full_both_modes():
    a = zero_algebra(2, mat_identity(2))
    b = zero_algebra(1, mat_identity(1))
    mp = MatchedPairData(a, b, TrimoduleActions(), TrimoduleActions())
    for mode in ("total", "partial"):
        assert check_matched_pair(mp, mode=mode, full=True).passed


def test_perturbed_action_fails_named_condition():
    _, _, _, mp = degenerate_pair()
    entry = mp.actB.L.setdefault((0, 0, 0), {})
    entry[0] = entry.get(0, q(0)) + q(1)
    rep = check_matched_pair(mp, mode="total")
    failing = [lr.law for lr in rep.laws if not lr.passed]
    assert failing
    assert all(law.startswith("matchedpair.") for law in failing)
    assert any(".mp" in law for law in failing)


def random_pair(rng):
    def rand_alg(dim):
        mu = {}
        for _ in range(rng.randrange(3)):
            key = tuple(rng.randrange(dim) for _ in range(3))
            mu.setdefault(key, {})[rng.randrange(dim)] = q(rng.choice([-1, 1]))
        tw = [[q(rng.choice([0, 1, -1])) for _ in range(dim)]
              for _ in range(dim)]
        return TernaryHomAlgebra(dim, mu, tw, tw)

    na, nb = rng.choice([1, 2]), rng.choice([1, 2])
    a, b = rand_alg(na), rand_alg(nb)
    acta, actb = TrimoduleActions(), TrimoduleActions()
    for act, n, m in ((acta, na, nb), (actb, nb, na)):
        for tensor, shape in ((act.L, (n, n, m)), (act.R, (m, n, n)),
                              (act.M, (n, m, n))):
            for _ in range(rng.randrange(2)):
                key = tuple(rng.randrange(s) for s in shape)
                tensor.setdefault(key, {})[rng.randrange(m)] = \
                    q(rng.choice([-1, 1]))
    return MatchedPairData(a, b, acta, actb)


def test_bicrossed_oracle_equivalence():
    # whenever both factors are hom-associative, the matched-pair verdict
    # must coincide with hom-associativity of the bicrossed product
    rng = random.Random(11)
    checked = 0
    for _ in range(100):
        mp = random_pair(rng)
        prod = bicrossed_product(mp)
        for mode in ("total", "partial"):
            if not mp.A.check_associativity(mode, max_violations=1).passed:
                continue
            if not mp.B.check_associativity(mode, max_violations=1).passed:
                continue
            cond = check_matched_pair(mp, mode=mode, max_violations=1).passed
            assoc = prod.check_associativity(mode, max_violations=1).passed
            assert cond == assoc, (mode, cond, assoc)
            checked += 1
    assert checked > 40


def test_condition_table_is_well_formed(monkeypatch):
    _, _, _, mp = degenerate_pair()
    names = namespaces(monkeypatch, "ternalg.matched_pair",
                       lambda: check_matched_pair(mp))["xyzabc"]
    assert list(CONDITIONS) == [str(num) for num in range(1, 21)]
    texts = list(CONDITIONS.values())
    check_table(texts[:10], "xyzabc", "xyzab", names)
    check_table(texts[10:], "xyzabc", "xyabc", names)


@pytest.mark.parametrize("radicand", [1, 2])
def test_change_of_basis_keeps_every_verdict(radicand):
    rng = random.Random(f"matched-pair-{radicand}")
    pairs = [degenerate_pair()[3]] + [random_pair(rng) for _ in range(10)]
    seen = set()
    for mp in pairs:
        ta = _change_of_basis(rng, mp.A.dim, radicand)
        tb = _change_of_basis(rng, mp.B.dim, radicand)
        moved = MatchedPairData(_transport(ta, mp.A), _transport(tb, mp.B),
                                transport_actions(ta, tb, mp.actA),
                                transport_actions(tb, ta, mp.actB))
        for mode, full in product(("total", "partial"), (False, True)):
            before = _verdicts(check_matched_pair(mp, mode, full, 1))
            assert _verdicts(check_matched_pair(moved, mode, full, 1)) == before
            seen.update(passed for _, passed in before)
    assert seen == {True, False}


# dims 2 and 2 at radicand 1 only, since there each cap reruns the whole
# reference; test_trimodule covers all three radicands at those dims
@pytest.mark.parametrize("na, nb, radicand", [
    (na, nb, radicand) for na, nb in ((1, 1), (1, 2), (2, 1))
    for radicand in (1, 2, 5)] + [(2, 2, 1)])
def test_identities_match_per_tuple_reference(monkeypatch, na, nb, radicand):
    rng = random.Random(f"matched-identities-{na}-{nb}-{radicand}")

    def sixths_algebra(n):
        # alpha1 != alpha2
        return TernaryHomAlgebra(n, sixths_tensor(rng, (n,) * 3, n, radicand),
                                 sixths_matrix(rng, n, radicand),
                                 sixths_matrix(rng, n, radicand), radicand)

    a = _algebra(rng, na, radicand, "twisted")
    b = zero_algebra(nb, a.alpha1) if na == nb else sixths_algebra(nb)
    # A acting on B by its regular actions where they fit, and not back
    pairs = [MatchedPairData(a, b, regular_actions(a)[1] if na == nb
                             else sixths_actions(rng, na, nb, radicand),
                             TrimoduleActions())]
    pairs.append(MatchedPairData(
        sixths_algebra(na), sixths_algebra(nb),
        sixths_actions(rng, na, nb, radicand),
        sixths_actions(rng, nb, na, radicand)))
    for mp, mode, full in product(pairs, ("total", "partial"),
                                  (False, True)):
        assert_matches_reference(monkeypatch, lambda cap: check_matched_pair(
            mp, mode, full, cap))
