import ast
import pathlib
import random
from itertools import product

import pytest

from ternalg.algebra import TernaryHomAlgebra, classical
from ternalg.linalg import (
    mat_apply,
    mat_columns,
    mat_identity,
    mat_inverse,
    mat_mul,
    trilinear,
)
from ternalg.report import (
    LawReport,
    Report,
    check_identities,
    check_laws,
    compile_identity,
)
from ternalg.scalars import ONE, QuadScalar
from ternalg.serialization import load_file
from ternalg.trimodule import (
    BRAIDING,
    TRIMODULE,
    BihomModule,
    NotMultiplicative,
    TrimoduleActions,
    check_trimodule,
    intertwining_laws,
    module_vec_str,
    regular_actions,
    semidirect_product,
)

from test_algebra import (
    DENSE,
    NILP,
    RHO1,
    UNLIMITED,
    _algebra,
    _change_of_basis,
    _transport,
    _verdicts,
    mat,
    mu_from,
    reference_intertwining,
    sixths_matrix,
    sixths_tensor,
    stop_points,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def q(x):
    return QuadScalar(x)


def t2h1():
    return classical(2, mu_from(DENSE)).yau_twist(mat(RHO1))


def p2h():
    return classical(2, mu_from(NILP)).yau_twist(mat([[2, 0], [3, 8]]))


def test_regular_actions_quasi_total():
    alg = t2h1()
    for which in ("left", "right", "lmr"):
        mod, act = regular_actions(alg, which)
        rep = check_trimodule(alg, mod, act, mode="total", level="quasi")
        assert rep.passed, (which, [lr.law for lr in rep.laws if not lr.passed])


def test_regular_actions_quasi_partial():
    alg = p2h()
    for which in ("left", "right", "lmr"):
        mod, act = regular_actions(alg, which)
        rep = check_trimodule(alg, mod, act, mode="partial", level="quasi")
        assert rep.passed, (which, [lr.law for lr in rep.laws if not lr.passed])


def test_regular_actions_require_multiplicative():
    bad = TernaryHomAlgebra(2, mu_from(NILP), mat([[0, 1], [1, 0]]),
                            mat_identity(2))
    with pytest.raises(NotMultiplicative):
        regular_actions(bad)


def test_zero_actions_pass_full():
    alg = t2h1()
    mod = BihomModule(2, mat_identity(2), mat_identity(2))
    act = TrimoduleActions()
    for mode in ("total", "partial"):
        assert check_trimodule(alg, mod, act, mode=mode, level="full").passed


def test_perturbed_action_fails_named_law():
    alg = t2h1()
    mod, act = regular_actions(alg, "lmr")
    entry = act.L.setdefault((0, 0, 0), {})
    entry[0] = entry.get(0, q(0)) + q(1)
    rep = check_trimodule(alg, mod, act, mode="total", level="quasi")
    failing = [lr.law for lr in rep.laws if not lr.passed]
    assert failing
    assert all(law.startswith("trimodule.tr") for law in failing)
    first = rep.law(failing[0]).violations[0]
    assert len(first.index) == 5


def test_semidirect_regular_passes_total():
    alg = t2h1()
    mod, act = regular_actions(alg, "lmr")
    prod = semidirect_product(alg, mod, act)
    assert prod.dim == 4
    assert prod.check_associativity("total", max_violations=1).passed
    assert prod.check_multiplicativity(max_violations=1).passed


def test_semidirect_zero_actions_is_block_sum():
    alg = t2h1()
    mod = BihomModule(2, mat(RHO1), mat(RHO1))
    prod = semidirect_product(alg, mod, TrimoduleActions())
    # the A block carries the original product, the V block is null
    assert prod.mu == alg.mu
    assert prod.check_associativity("total", max_violations=1).passed


def random_setup(rng):
    dim, dim_v = rng.choice([1, 2]), rng.choice([1, 2])
    mu = {}
    for _ in range(rng.randrange(3)):
        key = tuple(rng.randrange(dim) for _ in range(3))
        mu.setdefault(key, {})[rng.randrange(dim)] = q(rng.choice([-1, 1]))
    alpha = [[q(rng.choice([0, 1, -1])) for _ in range(dim)] for _ in range(dim)]
    alg = TernaryHomAlgebra(dim, mu, alpha, alpha)
    beta = [[q(rng.choice([0, 1, -1])) for _ in range(dim_v)]
            for _ in range(dim_v)]
    mod = BihomModule(dim_v, beta, beta)
    act = TrimoduleActions()
    for tensor, shape in ((act.L, (dim, dim, dim_v)),
                          (act.R, (dim_v, dim, dim)),
                          (act.M, (dim, dim_v, dim))):
        for _ in range(rng.randrange(3)):
            key = tuple(rng.randrange(s) for s in shape)
            tensor.setdefault(key, {})[rng.randrange(dim_v)] = \
                q(rng.choice([-1, 1]))
    return alg, mod, act


def test_semidirect_oracle_equivalence():
    # quasi-trimodule verdict must coincide with hom-associativity of the
    # semidirect product whenever the base algebra itself passes
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        alg, mod, act = random_setup(rng)
        prod = semidirect_product(alg, mod, act)
        for mode in ("total", "partial"):
            if not alg.check_associativity(mode, max_violations=1).passed:
                continue
            tri = check_trimodule(alg, mod, act, mode=mode, level="quasi",
                                  max_violations=1).passed
            sd = prod.check_associativity(mode, max_violations=1).passed
            assert tri == sd, (mode, tri, sd)
            checked += 1
    assert checked > 50


# -- the written identities ------------------------------------------------


def slot_letters(tree):
    """The slot letters a syntax tree reads, once per reading: a slot
    letter is a name that is not called."""
    nodes = list(ast.walk(tree))
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    return [node.id for node in nodes
            if isinstance(node, ast.Name) and id(node) not in called]


def check_table(texts, slots, pattern, names):
    """Each identity parses, uses only ``names``, applies each operation to
    three terms and each map to one slot letter, and quantifies over
    exactly the letters of ``pattern``; each member reads each of them
    exactly once, so it is linear in each."""
    for text in texts:
        chain = ast.parse(text, mode="eval").body
        calls = [node for node in ast.walk(chain) if isinstance(node, ast.Call)]
        letters = set(slot_letters(chain))
        assert letters == set(pattern) and letters <= set(names), text
        for member in (chain.left, *chain.comparators):
            assert sorted(slot_letters(member)) == sorted(letters), \
                (text, ast.unparse(member))
        for call in calls:
            assert isinstance(call.func, ast.Name) and not call.keywords
            value = names[call.func.id]
            if callable(value):
                assert len(call.args) == 3, ast.unparse(call)
            else:
                arg, = call.args
                assert isinstance(arg, ast.Name) and arg.id in letters
        assert compile_identity(text, slots)[0] == pattern


def namespaces(monkeypatch, module, run):
    """The namespace ``module`` hands ``check_identities`` for each slot
    order while ``run()`` runs."""
    seen = {}

    def spy(laws, texts, slots, names, *rest):
        seen[slots] = names
        check_identities(laws, texts, slots, names, *rest)

    monkeypatch.setattr(f"{module}.check_identities", spy)
    run()
    return seen


def test_trimodule_tables_are_well_formed(monkeypatch):
    alg = t2h1()
    mod, act = regular_actions(alg)
    names = namespaces(monkeypatch, "ternalg.trimodule",
                       lambda: check_trimodule(alg, mod, act, level="full"))
    assert list(TRIMODULE) == ["1", "2", "4", "5", "6"]
    check_table(TRIMODULE.values(), "abcdv", "abcdv", names["abcdv"])
    assert len(BRAIDING) == 2
    check_table(BRAIDING, "abcxyzv", "abcxyzv", names["abcxyzv"])


@pytest.mark.parametrize("text", [
    "L(a, b)", "L(a, b, v) != L(a, b, v)", "a1(L(a, b, v)) == v",
    "a1(w) == v", "L(a, b, v) == w", "L(a, b, v) == v == v == v",
    "L(a, b, v=v) == v"])
def test_malformed_identities_are_refused(text):
    with pytest.raises(ValueError):
        compile_identity(text, "abv")


# -- transport along a change of basis ------------------------------------


def transport_actions(ta, tv, act):
    """The actions of an algebra on V after the changes of basis ``ta`` of
    the algebra and ``tv`` of V: op'(x, y, v) = tv op(ta^-1 x, ta^-1 y,
    tv^-1 v), slot by slot."""
    ia, iv = mat_columns(mat_inverse(ta)), mat_columns(mat_inverse(tv))

    def move(tensor, bases):
        return {key: mat_apply(tv, trilinear(tensor, *map(list.__getitem__,
                                                          bases, key)))
                for key in product(*(range(len(b)) for b in bases))}

    return TrimoduleActions(move(act.L, (ia, ia, iv)),
                            move(act.R, (iv, ia, ia)),
                            move(act.M, (ia, iv, ia)))


def transport_twist(t, beta):
    return mat_mul(mat_mul(t, beta), mat_inverse(t))


@pytest.mark.parametrize("radicand", [1, 2])
def test_change_of_basis_keeps_every_verdict(radicand):
    rng = random.Random(f"trimodule-{radicand}")
    alg = t2h1()
    setups = [(alg, *regular_actions(alg, which)) for which in ("lmr", "left")]
    setups += [random_setup(rng) for _ in range(10)]
    seen = set()
    for alg, mod, act in setups:
        ta = _change_of_basis(rng, alg.dim, radicand)
        tv = _change_of_basis(rng, mod.dim, radicand)
        moved = (_transport(ta, alg),
                 BihomModule(mod.dim, transport_twist(tv, mod.beta1),
                             transport_twist(tv, mod.beta2)),
                 transport_actions(ta, tv, act))
        for mode, level in product(("total", "partial"), ("quasi", "full")):
            before = _verdicts(check_trimodule(alg, mod, act, mode, level, 1))
            assert _verdicts(check_trimodule(*moved, mode, level, 1)) == before
            seen.update(passed for _, passed in before)
    assert seen == {True, False}


# -- fraction-free intertwining laws against QuadScalar evaluation ---------


def reference_intertwining_laws(alg, mod, act, laws, cap):
    """intertwining_laws on reference_intertwining, each action called
    through its operator: L stored as (a, b, v), M as (a, v, b) and R as
    (v, a, b), while the index runs over (a, b, v)."""
    pairs = product((act.op_L, act.op_M, act.op_R), (mod.beta1, mod.beta2))
    for lr, (op, gamma) in zip(laws, pairs):
        reference_intertwining(
            lr, gamma, lambda a, b, v: op({a: ONE}, {b: ONE}, {v: ONE}), op,
            (alg.alpha1, alg.alpha2, gamma), cap, module_vec_str)


def run_intertwining_laws(check, alg, mod, act, cap):
    laws = [LawReport(f"tr{num}.{which}", f"tr{num}")
            for num in ("7", "8", "9") for which in ("beta1", "beta2")]
    check(alg, mod, act, laws, cap)
    return Report(laws)


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_intertwining_laws_match_quadscalar_reference(n, m, radicand):
    rng = random.Random(f"action-{n}-{m}-{radicand}")
    twisted = _algebra(rng, n, radicand, "twisted")
    setups = [(twisted, *regular_actions(twisted))] if n == m else []
    for _ in range(2):
        alg = TernaryHomAlgebra(n, {}, sixths_matrix(rng, n, radicand),
                                sixths_matrix(rng, n, radicand), radicand)
        mod = BihomModule(m, sixths_matrix(rng, m, radicand),
                          sixths_matrix(rng, m, radicand))
        L = sixths_tensor(rng, (n, n, m), m, radicand)
        M = sixths_tensor(rng, (n, m, n), m, radicand)
        R = sixths_tensor(rng, (m, n, n), m, radicand)
        # each order alone, then all three
        setups += [(alg, mod, act) for act in (
            TrimoduleActions(L=L), TrimoduleActions(M=M),
            TrimoduleActions(R=R), TrimoduleActions(L, R, M))]
    for alg, mod, act in setups:
        for cap in stop_points(lambda: run_intertwining_laws(
                reference_intertwining_laws, alg, mod, act, UNLIMITED), 2):
            assert run_intertwining_laws(
                intertwining_laws, alg, mod, act, cap).as_dict() == \
                run_intertwining_laws(reference_intertwining_laws, alg, mod,
                                      act, cap).as_dict()


# -- shared subterms against per-tuple evaluation -------------------------


def reference_check_identities(laws, texts, slots, names, residual, fmt,
                               cap):
    """check_identities with no memo: each member of each identity built
    afresh at every index tuple, by closures of ``(idx, names)``."""
    for lr, text in zip(laws, texts):
        chain = ast.parse(text, mode="eval").body
        nodes = list(ast.walk(chain))
        used = {node.id for node in nodes if isinstance(node, ast.Name)} - {
            getattr(node.func, "id", None) for node in nodes
            if isinstance(node, ast.Call)}
        letters = "".join(s for s in slots if s in used)
        pos = {s: k for k, s in enumerate(letters)}

        def term(node):
            call = isinstance(node, ast.Call)
            name, args = (node.func.id, node.args) if call else (None, [node])
            if len(args) == 3:
                f, g, h = map(term, args)
                return lambda idx, names: names[name](
                    f(idx, names), g(idx, names), h(idx, names))
            name, k = name or args[0].id, pos[args[0].id]
            return lambda idx, names: names[name][idx[k]]

        members = [term(node) for node in (chain.left, *chain.comparators)]
        check_laws([lr], [residual],
                   product(*(range(len(names[s])) for s in letters)),
                   lambda idx: [m(idx, names) for m in members], fmt, cap)


def by_reference(monkeypatch, run):
    """``run()`` with its written identities checked by
    ``reference_check_identities``."""
    with monkeypatch.context() as patch:
        for module in ("ternalg.trimodule", "ternalg.matched_pair"):
            patch.setattr(f"{module}.check_identities",
                          reference_check_identities)
        return run()


def assert_matches_reference(monkeypatch, check):
    """``check(cap)`` gives the same report as with the per-tuple
    reference at every cap up to one past the most violations of a law."""
    for cap in stop_points(
            lambda: by_reference(monkeypatch, lambda: check(UNLIMITED)), 2):
        assert check(cap).as_dict() == \
            by_reference(monkeypatch, lambda: check(cap)).as_dict()


def sixths_actions(rng, n, m, radicand):
    """Random actions of a dim-n algebra on a dim-m space, over the
    denominators 2 and 3."""
    return TrimoduleActions(sixths_tensor(rng, (n, n, m), m, radicand),
                            sixths_tensor(rng, (m, n, n), m, radicand),
                            sixths_tensor(rng, (n, m, n), m, radicand))


@pytest.mark.parametrize("radicand", [1, 2, 5])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_identities_match_per_tuple_reference(monkeypatch, n, m, radicand):
    rng = random.Random(f"identities-{n}-{m}-{radicand}")
    twisted = _algebra(rng, n, radicand, "twisted")
    setups = [(twisted, *regular_actions(twisted))] if n == m else []
    # twists of A and of V with alpha1 != alpha2 and beta1 != beta2
    alg = TernaryHomAlgebra(n, sixths_tensor(rng, (n,) * 3, n, radicand),
                            sixths_matrix(rng, n, radicand),
                            sixths_matrix(rng, n, radicand), radicand)
    mod = BihomModule(m, sixths_matrix(rng, m, radicand),
                      sixths_matrix(rng, m, radicand))
    setups.append((alg, mod, sixths_actions(rng, n, m, radicand)))
    for (alg, mod, act), mode, level in product(
            setups, ("total", "partial"), ("quasi", "full")):
        assert_matches_reference(monkeypatch, lambda cap: check_trimodule(
            alg, mod, act, mode, level, cap))


def test_each_subterm_is_evaluated_once(monkeypatch):
    # laws 1, 2, 4 and 5 call mu on slot letters only, and mu(a, b, c) and
    # mu(b, c, d) read the same basis: one call per triple of basis vectors
    alg = load_file(FIXTURES / "t2h1.json")
    mod, act = regular_actions(alg)
    calls = []
    mu_vec = TernaryHomAlgebra.mu_vec

    def spy(self, x, y, z):
        calls.append((x, y, z))
        return mu_vec(self, x, y, z)

    monkeypatch.setattr(TernaryHomAlgebra, "mu_vec", spy)
    assert check_trimodule(alg, mod, act, "total", "quasi").passed
    assert len(calls) == alg.dim ** 3 == 8
    assert len({tuple(map(id, args)) for args in calls}) == len(calls)
