import importlib
import random
from itertools import product

import pytest

from ternalg.bialgebra import (
    MismatchedStructures,
    _t3_str,
    TernaryBialgebra,
    bialgebra,
    check_bialgebra,
    check_bialgebra_equivalence,
    check_compatibility,
    check_compatibility_sigma_form,
    compatibility_identity_check,
    dualize_bialgebra,
    is_bialgebra_equivalence,
    sign_variant,
)
from ternalg.algebra import TernaryHomAlgebra
from ternalg.coalgebra import TernaryHomCoalgebra, tensor3_apply, tensor3_map
from ternalg.linalg import mat_columns, mat_identity, mat_inverse, vec_sum
from ternalg.report import LawReport, Report, check_laws, difference
from ternalg.scalars import ONE, QuadScalar

from test_algebra import (
    DENSE_TW1,
    NILP,
    OTHER_SIZES,
    RHO1,
    UNLIMITED,
    _change_of_basis,
    _sixths,
    _transport,
    mat,
    mu_from,
    refuse,
    sixths_matrix,
    sixths_tensor,
    stop_points,
)
from test_coalgebra import DENSE_D, NILP_D, RHO_NILP, delta_from

# the module itself: the package re-exports the function bialgebra
bialgebra_mod = importlib.import_module("ternalg.bialgebra")


def q(x):
    return QuadScalar(x)


def pb2():
    return bialgebra(2, mu_from(NILP), delta_from(NILP_D),
                     mat(RHO_NILP), mat(RHO_NILP))


def tb2():
    return bialgebra(2, mu_from(DENSE_TW1), delta_from(DENSE_D),
                     mat(RHO1), mat(RHO1))


# second bialgebra of the equivalence example: everything swapped e1 <-> e2
EQ2_MU = {(2, 2, 2): {1: 1}}
EQ2_D = {2: {(1, 1, 1): 1}}
EQ2_RHO = [[1, 1], [0, 1]]


def eq2():
    return bialgebra(2, mu_from(EQ2_MU), delta_from(EQ2_D),
                     mat(EQ2_RHO), mat(EQ2_RHO))


def test_shared_structure_validation():
    alg = TernaryHomAlgebra(2, mu_from(NILP), mat(RHO_NILP), mat(RHO_NILP))
    co = TernaryHomCoalgebra(2, delta_from(NILP_D), mat(RHO1), mat(RHO1))
    with pytest.raises(MismatchedStructures):
        TernaryBialgebra(alg, co)
    with pytest.raises(MismatchedStructures):
        TernaryBialgebra(alg, TernaryHomCoalgebra(3, {}, mat_identity(3),
                                                  mat_identity(3)))


def test_nilpotent_fixture_passes_partial():
    b = pb2()
    assert check_compatibility(b).passed
    assert check_bialgebra(b, "partial").passed


def test_dense_fixture_compatibility_fails():
    # product and coproduct of the dense fixture each pass the total laws,
    # yet the compatibility system for this product only admits the zero
    # coproduct, so the combined structure cannot pass; pinned as-is
    b = tb2()
    assert b.alg.check_associativity("total", max_violations=1).passed
    assert b.coalg.check_coassociativity("total", max_violations=1).passed
    assert not check_compatibility(b, max_violations=1).passed
    assert not check_compatibility_sigma_form(b, max_violations=1).passed
    assert not check_bialgebra(b, "total", max_violations=1).passed


def test_truncated_only_when_violations_may_remain():
    # every one of the 8 basis triples of tb2 violates compatibility
    full = check_compatibility(tb2(), max_violations=8).law("compat")
    assert len(full.violations) == 8 and not full.truncated
    capped = check_compatibility(tb2(), max_violations=7).law("compat")
    assert capped.violations == full.violations[:7] and capped.truncated


def test_operator_columns_only_for_a_nonempty_slot(monkeypatch):
    # only Delta(e_1) of pb2 is nonzero; each operator's columns feed one
    # coproduct slot, k for L, j for M and i for R, and are built once per
    # pair of the other two indices; L, M and R each read their own tensor
    tensors = []
    first_two = bialgebra_mod.pair_first_two

    def spy(tensor, x, y, n, d):
        tensors.append(tensor)
        return first_two(tensor, x, y, n, d)

    monkeypatch.setattr(bialgebra_mod, "pair_first_two", spy)
    assert check_compatibility(pb2()).passed
    counts = {}
    for tensor in tensors:
        counts[id(tensor)] = counts.get(id(tensor), 0) + 1
    assert sorted(counts.values()) == [4, 4, 4]
    # with no coproduct at all, no operator's columns are built
    tensors.clear()
    bi = bialgebra(2, mu_from(NILP), {}, mat(RHO_NILP), mat(RHO_NILP))
    assert check_compatibility(bi).passed
    assert tensors == []


# -- fraction-free compatibility against QuadScalar evaluation -------------


def reference_compatibility(bi, cap):
    """check_compatibility evaluated one index tuple at a time on
    QuadScalar, each operator's columns built where the coproduct slot it
    acts on is nonempty."""
    alg, co = bi.alg, bi.coalg
    a1c, a2c = mat_columns(alg.alpha1), mat_columns(alg.alpha2)

    def columns(op, x, y):
        return [op(x, y, {j: ONE}) for j in range(bi.dim)]

    def members(key):
        i, j, k = key
        terms = []
        if co.delta_basis(k):
            terms.append(tensor3_apply(columns(alg.op_L, a1c[i], a2c[j]),
                                       a1c, a2c, co.delta_basis(k)))
        if co.delta_basis(j):
            terms.append(tensor3_apply(a1c, columns(alg.op_M, a1c[i], a2c[k]),
                                       a2c, co.delta_basis(j)))
        if co.delta_basis(i):
            terms.append(tensor3_apply(a1c, a2c,
                                       columns(alg.op_R, a1c[j], a2c[k]),
                                       co.delta_basis(i)))
        return co.delta_vec(alg.mu_basis(i, j, k)), vec_sum(terms)

    lr = LawReport("compat", "cp1")
    check_laws([lr], [difference], product(range(bi.dim), repeat=3),
               members, _t3_str, cap)
    return Report([lr])


def transport_bialgebra(t, bi):
    """bi in the basis t: mu' = t mu (t^-1)^3, Delta' = t^3 Delta t^-1 and
    alpha'_k = t alpha_k t^-1."""
    alg = _transport(t, bi.alg)
    inv = mat_columns(mat_inverse(t))
    delta = {l: tensor3_map(t, t, t, bi.coalg.delta_vec(inv[l]))
             for l in range(bi.dim)}
    return bialgebra(bi.dim, alg.mu, delta, alg.alpha1, alg.alpha2,
                     bi.alg.radicand)


def sixths_bialgebras(rng, n, radicand):
    """Random products, coproducts and twists over the denominators 2 and
    3, which mostly fail; and at n = 2 pb2 with its product and coproduct
    scaled by such constants, which passes, alone and in another basis."""
    out = []
    for _ in range(3):
        delta = {l: {key: _sixths(rng, radicand)
                     for key in product(range(n), repeat=3)
                     if rng.random() < 0.4} for l in range(n)}
        out.append(bialgebra(n, sixths_tensor(rng, (n,) * 3, n, radicand),
                             delta, sixths_matrix(rng, n, radicand),
                             sixths_matrix(rng, n, radicand), radicand))
    if n == 2:
        c1, c2 = (sixths_matrix(rng, 1, radicand)[0][0] + q(5)
                  for _ in range(2))
        base = pb2()
        scaled = bialgebra(
            2, {key: {l: c1 * x for l, x in vec.items()}
                for key, vec in base.alg.mu.items()},
            {l: {key: c2 * x for key, x in t.items()}
             for l, t in base.coalg.delta.items()},
            base.alpha1, base.alpha2, radicand)
        out += [scaled, transport_bialgebra(
            _change_of_basis(rng, 2, radicand), scaled)]
    return out


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_compatibility_matches_quadscalar_reference(n, radicand):
    rng = random.Random(f"compat-{n}-{radicand}")
    seen = set()
    for bi in sixths_bialgebras(rng, n, radicand):
        for cap in stop_points(
                lambda: reference_compatibility(bi, UNLIMITED), n):
            report = check_compatibility(bi, cap)
            assert report.as_dict() == \
                reference_compatibility(bi, cap).as_dict()
            seen.add(report.passed)
    assert seen == {True, False} or n == 1


def test_sigma_form_agrees_on_fixtures():
    for b in (pb2(), tb2(), eq2()):
        assert check_compatibility(b, max_violations=1).passed == \
            check_compatibility_sigma_form(b, max_violations=1).passed


def test_constants_identity_on_nilpotent_fixtures():
    for b in (pb2(), eq2()):
        assert compatibility_identity_check(b).passed
        assert check_compatibility(b).passed


def random_bialgebra(rng, dim=2):
    mu = {}
    for _ in range(rng.randrange(3)):
        key = tuple(rng.randrange(dim) for _ in range(3))
        mu.setdefault(key, {})[rng.randrange(dim)] = q(rng.choice([-1, 1]))
    delta = {}
    for _ in range(rng.randrange(3)):
        l = rng.randrange(dim)
        key = tuple(rng.randrange(dim) for _ in range(3))
        delta.setdefault(l, {})[key] = q(rng.choice([-1, 1]))
    tw = [[q(rng.choice([0, 1, -1])) for _ in range(dim)]
          for _ in range(dim)]
    return bialgebra(dim, mu, delta, tw, tw)


def _violations(report):
    lr, = report.laws
    return lr.violations, lr.truncated


def test_sigma_form_agrees_on_random():
    # the sigma form records exactly the violations of the element form,
    # index and residual, and truncates exactly where it does: on products,
    # coproducts and two different twists over the denominators 2 and 3,
    # and on sparse +-1 ones with one twist
    for n, radicand in product((1, 2, 3), (1, 2, 5)):
        rng = random.Random(f"sigma-{n}-{radicand}")
        corpus = [bi for _ in range(4)
                  for bi in sixths_bialgebras(rng, n, radicand)]
        corpus += [random_bialgebra(rng, n) for _ in range(20)]
        seen = set()
        for bi, cap in product(corpus, (1, 2, 3, UNLIMITED)):
            element = _violations(check_compatibility(bi, cap))
            assert _violations(check_compatibility_sigma_form(bi, cap)) \
                == element, (n, radicand, cap)
            seen.add((bool(element[0]), element[1]))
        # one index tuple at n = 1 leaves nothing to truncate
        assert (True, False) in seen and ((True, True) in seen or n == 1)


def test_constants_identity_agreement_measured():
    # the published index identity leaves extra indices free, so strict
    # agreement with the map-level law is measured rather than asserted
    rng = random.Random(37)
    agree = mismatch = 0
    for _ in range(40):
        b = random_bialgebra(rng)
        a = check_compatibility(b, max_violations=1).passed
        c = compatibility_identity_check(b, max_violations=1).passed
        if a == c:
            agree += 1
        else:
            mismatch += 1
    assert agree + mismatch == 40
    assert agree > 0


def test_sign_variants_preserve_verdict():
    for b, mode in ((pb2(), "partial"), (tb2(), "total")):
        base = check_bialgebra(b, mode, max_violations=1).passed
        for fm in (False, True):
            for fd in (False, True):
                v = sign_variant(b, fm, fd)
                assert check_bialgebra(v, mode, max_violations=1).passed \
                    == base, (mode, fm, fd)


def test_sign_variant_tensors():
    v = sign_variant(pb2(), True, True)
    assert v.alg.mu == {(0, 0, 0): {1: q(-1)}}
    assert v.coalg.delta == {0: {(1, 1, 1): q(-1)}}
    assert v.alpha1 == pb2().alpha1


def test_dual_of_nilpotent_fixture():
    d = dualize_bialgebra(pb2())
    # product e2* e2* e2* = e1*, coproduct e2* -> e1* x e1* x e1*
    assert d.alg.mu == {(1, 1, 1): {0: q(1)}}
    assert d.coalg.delta == {1: {(0, 0, 0): q(1)}}
    assert d.alpha1 == mat([[1, 1], [0, 1]])
    assert check_bialgebra(d, "partial").passed


def test_dual_of_dense_fixture_is_self_dual():
    b = tb2()
    d = dualize_bialgebra(b)
    assert d.alg.mu == b.alg.mu
    assert d.coalg.delta == b.coalg.delta


def test_dual_verdicts_match_primal():
    rng = random.Random(41)
    instances = [pb2(), tb2(), eq2()]
    instances += [random_bialgebra(rng) for _ in range(50)]
    for b in instances:
        d = dualize_bialgebra(b)
        for mode in ("total", "partial", "weak"):
            assert check_bialgebra(b, mode, max_violations=1).passed == \
                check_bialgebra(d, mode, max_violations=1).passed


def test_trivial_embeddings_pass_compatibility():
    b = bialgebra(2, mu_from(DENSE_TW1), {}, mat(RHO1), mat(RHO1))
    assert check_compatibility(b).passed
    c = bialgebra(2, {}, delta_from(DENSE_D), mat(RHO1), mat(RHO1))
    assert check_compatibility(c).passed


def test_equivalence_swap():
    swap = mat([[0, 1], [1, 0]])
    rep = check_bialgebra_equivalence(swap, pb2(), eq2())
    assert rep.passed, [lr.law for lr in rep.laws if not lr.passed]
    assert is_bialgebra_equivalence(swap, pb2(), eq2())


@pytest.mark.parametrize("check", [check_bialgebra_equivalence,
                                   is_bialgebra_equivalence])
def test_equivalence_refuses_a_map_of_another_size(check):
    for f in OTHER_SIZES.values():
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            check(f, pb2(), eq2())


def test_equivalence_stops_at_the_first_failing_law(monkeypatch):
    # 2 id breaks the product law; no other law of either half need run
    for name in ("algebra.twist_intertwining", "coalgebra.twist_intertwining",
                 "coalgebra._comorphism_defects"):
        monkeypatch.setattr(f"ternalg.{name}", refuse)
    assert not is_bialgebra_equivalence(mat([[2, 0], [0, 2]]), pb2(), pb2())


def test_equivalence_rejects_identity_and_singular():
    ident = mat_identity(2)
    assert not is_bialgebra_equivalence(ident, pb2(), eq2())
    rep = check_bialgebra_equivalence(mat([[0, 0], [0, 0]]), pb2(), eq2())
    assert not rep.law("equivalence:invertible").passed


def test_perturbed_product_fails_compatibility():
    b = pb2()
    b.alg.mu.setdefault((1, 1, 1), {})[0] = q(1)
    rep = check_compatibility(b)
    assert not rep.passed
    assert rep.laws[0].violations[0].index
