"""Seeded corpora and timed items for the three benchmark workloads.

Every workload is a list of *strata*.  A stratum fixes the kind of work
and its size (structure kind, dimension, mode); only the coefficients and
maps inside it are random.  Each stratum owns a finite pool of slots, and
slot ``i`` is always generated from the same private random stream, so
the output of every slot can be recorded once from a known-good version
of the program (``reference.json``) and compared on every later run.

A run's ``--seed`` picks which slots of each stratum make up the corpus;
the last quarter of every pool is reserved for ``--holdout-seed`` and is
never drawn by ``--seed``.  Because every corpus has the same strata in
the same counts, runs with different seeds do the same amount of work of
the same shape, which keeps the end-to-end figures comparable.

An item is one unit of timed work.  ``Item.run`` calls into the program
and is the only part that is timed; ``Item.check`` turns its output into
a projection that is digested and compared with the reference, and
returns the ``Report`` objects the output carried.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from importlib import import_module

from ternalg.scalars import ONE, ZERO, QuadScalar

# modules are reached through their attributes at call time, so that the
# traced run sees the wrappers it installs on them; the package re-exports
# a function named ``bialgebra``, hence import_module rather than attributes
alg_mod = import_module("ternalg.algebra")
bi_mod = import_module("ternalg.bialgebra")
cli = import_module("ternalg.cli")
coalg_mod = import_module("ternalg.coalgebra")
duality = import_module("ternalg.duality")
linalg = import_module("ternalg.linalg")
mp_mod = import_module("ternalg.matched_pair")
serialization = import_module("ternalg.serialization")
tri_mod = import_module("ternalg.trimodule")

NO_CAP = 1 << 62  # dense_verify decides every law completely

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


# -- projections and digests ---------------------------------------------


def report_projection(report) -> list:
    """(law, passed, [(index, residual)...]) per law; later fields ignored."""
    return [[lr.law, lr.passed,
             [[list(v.index), v.residual] for v in lr.violations]]
            for lr in report.laws]


def json_report_projection(doc: dict) -> list:
    return [[law["law"], law["passed"],
             [[v["index"], v["residual"]] for v in law["violations"]]]
            for law in doc["laws"]]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Item:
    """One timed unit of work; subclasses fill in ``run`` and ``check``."""

    def __init__(self, key: str):
        self.key = key

    def run(self):
        raise NotImplementedError

    def check(self, out):
        """Return (projection, reports, ok) where ok covers invariants."""
        raise NotImplementedError

    def outcome(self, projection):
        """The projection without residuals: what kind of verdict it was."""
        return projection

    def inputs(self):
        """The program objects this item hands to the program."""
        return []


# -- scalar and structure helpers ----------------------------------------


def rand_scalar(rng: random.Random, radicand: int) -> QuadScalar:
    """A nonzero scalar whose parts all have denominator 2 or 3.

    Fixing the shape of the coefficients keeps the cost of exact arithmetic
    on them alike from one slot to the next.
    """
    rat = f"{rng.choice([1, 5, 7, -1, -5, -7])}/{rng.choice([2, 3])}"
    if radicand == 1:
        return QuadScalar(rat)
    irr = f"{rng.choice([1, 5, -1, -5])}/{rng.choice([2, 3])}"
    return QuadScalar(rat, irr, radicand)


def group_algebra(n, coeff, shift, radicand):
    """Classical mu(e_a, e_b, e_c) = coeff * e_{a+b+c+shift mod n}."""
    mu = {(a, b, c): {(a + b + c + shift) % n: coeff}
          for a in range(n) for b in range(n) for c in range(n)}
    return alg_mod.classical(n, mu, radicand)


def group_endomorphism(rng, n, shift):
    """e_a -> sign * e_{k a + u}; an endomorphism of ``group_algebra``.

    It respects the product exactly when (k - 1) * shift = 2u mod n.
    """
    units = [k for k in range(1, n) if math.gcd(k, n) == 1 and k != 1] or [1]
    k = rng.choice(units)
    us = [u for u in range(n) if ((k - 1) * shift - 2 * u) % n == 0]
    sign = rng.choice([ONE, -ONE])
    u = rng.choice(us) if us else 0
    if not us:
        shift = 0
    m = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        m[(k * a + u) % n][a] = sign
    return m, shift


def twisted_group_algebra(rng, n, radicand):
    """A Yau twist of a group-type algebra, with the twist map used."""
    shift = rng.randrange(n)
    phi, shift = group_endomorphism(rng, n, shift)
    base = group_algebra(n, rand_scalar(rng, radicand), shift, radicand)
    return base, phi


def transport(a, t):
    """The algebra carried by the change of basis t, so that t: a -> result."""
    n = a.dim
    t_inv = linalg.mat_inverse(t)
    cols = linalg.mat_columns(t_inv)
    mu = {}
    for key in itertools.product(range(n), repeat=3):
        vec = linalg.mat_apply(t, a.mu_vec(cols[key[0]], cols[key[1]],
                                            cols[key[2]]))
        if vec:
            mu[key] = vec
    a1 = linalg.mat_mul(linalg.mat_mul(t, a.alpha1), t_inv)
    a2 = linalg.mat_mul(linalg.mat_mul(t, a.alpha2), t_inv)
    return alg_mod.TernaryHomAlgebra(n, mu, a1, a2, a.radicand)


def change_of_basis(rng, n, upper):
    """p * d * u: a random signed relabelling p, a random diagonal d, and a
    fixed unitriangular u with ones at the ``upper`` cells.

    p and d change coefficients but not which of them vanish, so every
    transport in one stratum has the same sparsity and costs alike.
    """
    u = linalg.mat_identity(n)
    for i, j in upper:
        u[i][j] = ONE
    perm = list(range(n))
    rng.shuffle(perm)
    pd = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        pd[perm[j]][j] = rand_scalar(rng, 1)
    return linalg.mat_mul(pd, u)


def direct_sum_bialgebra(parts, mu_scale, delta_scale, trivial, radicand):
    """Block sum of bialgebras plus ``trivial`` one-dimensional zero blocks.

    Compatibility, (co)associativity and (co)multiplicativity hold on
    the sum when they hold on every block, since cross terms vanish.
    """
    n = sum(p.dim for p in parts) + trivial
    mu, delta = {}, {}
    a1, a2 = linalg.mat_identity(n), linalg.mat_identity(n)
    off = 0
    for p in parts:
        for (r, s, t), vec in p.alg.mu.items():
            mu[(r + off, s + off, t + off)] = {
                l + off: c * mu_scale for l, c in vec.items()}
        for l, tens in p.coalg.delta.items():
            delta[l + off] = {(i + off, j + off, k + off): c * delta_scale
                              for (i, j, k), c in tens.items()}
        for i in range(p.dim):
            for j in range(p.dim):
                a1[i + off][j + off] = p.alpha1[i][j]
                a2[i + off][j + off] = p.alpha2[i][j]
        off += p.dim
    return bi_mod.bialgebra(n, mu, delta, a1, a2, radicand)


def load_fixture(name):
    return serialization.load_file(FIXTURES / f"{name}.json")


def _sparse_entries(rng, shape, out_dim, count, scalar):
    tens = {}
    for _ in range(count):
        key = tuple(rng.randrange(s) for s in shape)
        tens.setdefault(key, {})[rng.randrange(out_dim)] = scalar()
    return tens


def random_small_algebra(rng, n, entries):
    mu = _sparse_entries(rng, (n, n, n), n, entries,
                         lambda: QuadScalar(rng.choice([-1, 1, 2])))
    tw = [[QuadScalar(rng.choice([0, 1, -1])) for _ in range(n)]
          for _ in range(n)]
    return alg_mod.TernaryHomAlgebra(n, mu, tw, tw)


def random_actions(rng, n, m, entries):
    act = tri_mod.TrimoduleActions()
    sign = lambda: QuadScalar(rng.choice([-1, 1]))
    for tensor, shape in ((act.L, (n, n, m)), (act.R, (m, n, n)),
                          (act.M, (n, m, n))):
        tensor.update(_sparse_entries(rng, shape, m, rng.randrange(entries),
                                      sign))
    return act


def _mat_rows(m):
    return tuple(tuple(str(x) for x in row) for row in m)


# -- dense_verify --------------------------------------------------------


class PassingItem(Item):
    """An item returning Reports that must pass every law they decide."""

    def check(self, reports):
        return ([report_projection(r) for r in reports], reports,
                all(r.passed for r in reports))

    def outcome(self, projection):
        return [[law[1] for law in rep] for rep in projection]


class YauItem(PassingItem):
    """Twist a group-type algebra, then decide its laws and the twist map."""

    def __init__(self, key, base, phi, mode):
        super().__init__(key)
        self.base, self.phi, self.mode = base, phi, mode

    def run(self):
        a = self.base.yau_twist(self.phi)
        return [a.check_associativity(self.mode, NO_CAP),
                a.check_multiplicativity(NO_CAP),
                alg_mod.check_algebra_morphism(self.phi, a, a, NO_CAP)]

    def inputs(self):
        return [self.base, self.phi]


class TransportItem(PassingItem):
    """A dense transport of a twisted algebra and the isomorphism to it."""

    def __init__(self, key, src, t, dst, mode):
        super().__init__(key)
        self.src, self.t, self.dst, self.mode = src, t, dst, mode

    def run(self):
        return [self.dst.check_associativity(self.mode, NO_CAP),
                self.dst.check_multiplicativity(NO_CAP),
                alg_mod.check_algebra_morphism(self.t, self.src, self.dst,
                                               NO_CAP)]

    def inputs(self):
        return [self.src, self.t, self.dst]


class CoalgebraItem(PassingItem):
    def __init__(self, key, coalg, mode):
        super().__init__(key)
        self.coalg, self.mode = coalg, mode

    def run(self):
        return [self.coalg.check_coassociativity(self.mode, NO_CAP),
                self.coalg.check_comultiplicativity(NO_CAP)]

    def inputs(self):
        return [self.coalg]


class BialgebraItem(PassingItem):
    def __init__(self, key, bi, mode):
        super().__init__(key)
        self.bi, self.mode = bi, mode

    def run(self):
        bi = self.bi
        return [bi_mod.check_bialgebra(bi, self.mode, NO_CAP),
                bi_mod.check_compatibility_sigma_form(bi, NO_CAP),
                bi.coalg.structure_identity_check(self.mode, NO_CAP),
                bi.alg.check_multiplicativity(NO_CAP),
                bi.coalg.check_comultiplicativity(NO_CAP)]

    def inputs(self):
        return [self.bi]


class IdentityItem(PassingItem):
    """The n^10 structure-constant identity beside the normative law."""

    def __init__(self, key, bi):
        super().__init__(key)
        self.bi = bi

    def run(self):
        return [bi_mod.compatibility_identity_check(self.bi, NO_CAP),
                bi_mod.check_compatibility(self.bi, NO_CAP)]

    inputs = BialgebraItem.inputs


def _bialgebra_parts(rng, dim, pieces):
    names = [rng.choice(("pb2", "eq1", "eq2")) for _ in range(dim // 2)]
    return [pieces[n] for n in names], dim % 2


def _make_dense(kind, dim, mode, radicand, extra, rng, key, fixtures):
    if kind == "yau":
        base, phi = twisted_group_algebra(rng, dim, radicand)
        return YauItem(key, base, phi, mode)
    if kind == "transport":
        # a fixed base shape, e_a -> +-e_{-a} with no shift, so that only
        # coefficients vary within the stratum
        sign = rng.choice([ONE, -ONE])
        phi = [[sign if i == (-j) % dim else ZERO for j in range(dim)]
               for i in range(dim)]
        src = group_algebra(dim, rand_scalar(rng, radicand), 0,
                            radicand).yau_twist(phi)
        t = change_of_basis(rng, dim, extra)
        return TransportItem(key, src, t, transport(src, t), mode)
    if kind == "coalgebra":
        base, phi = twisted_group_algebra(rng, dim, radicand)
        return CoalgebraItem(key, duality.dualize_algebra(base.yau_twist(phi)),
                             mode)
    parts, trivial = _bialgebra_parts(rng, dim, fixtures)
    bi = direct_sum_bialgebra(parts, rand_scalar(rng, radicand),
                              rand_scalar(rng, radicand), trivial, radicand)
    if kind == "bialgebra":
        return BialgebraItem(key, bi, mode)
    return IdentityItem(key, bi)


# (kind, dim, mode, radicand, extra, count per pass); extra lists the
# unitriangular cells of a transport's change of basis.  Dense
# transports stop at dim 4 and the n^10 identity at dim 3 to keep one
# pass within a few seconds.
DENSE_STRATA = [
    ("yau", 3, "total", 1, 0, 3),
    ("coalgebra", 3, "total", 1, 0, 3),
    ("yau", 4, "weak", 1, 0, 2),
    ("bialgebra", 4, "total", 1, 0, 2),
    ("yau", 4, "total", 5, 0, 6),
    ("bialgebra", 5, "partial", 5, 0, 2),
    ("coalgebra", 4, "weak", 5, 0, 2),
    ("yau", 5, "total", 1, 0, 2),
    ("transport", 4, "total", 1, ((0, 1),), 1),
    ("bialgebra", 6, "weak", 5, 0, 1),
    ("coalgebra", 5, "total", 1, 0, 1),
    ("identity", 3, "total", 1, 0, 1),
    ("coalgebra", 6, "total", 1, 0, 1),
    ("transport", 3, "total", 1, ((0, 1), (0, 2), (1, 2)), 2),
    ("yau", 6, "total", 5, 0, 1),
]


def _dense_strata(fixtures):
    out = []
    for kind, dim, mode, rad, extra, count in DENSE_STRATA:
        name = f"{kind}-d{dim}-{mode}-r{rad}"

        def make(rng, key, kind=kind, dim=dim, mode=mode, rad=rad,
                 extra=extra):
            return _make_dense(kind, dim, mode, rad, extra, rng, key, fixtures)
        out.append((name, count, make))
    return out


# -- oracle_sweep --------------------------------------------------------


class SemidirectOracle(Item):
    """Quasi-trimodule laws against associativity of the semidirect product."""

    def __init__(self, key, alg, mod, act):
        super().__init__(key)
        self.alg, self.mod, self.act = alg, mod, act

    def run(self):
        prod = tri_mod.semidirect_product(self.alg, self.mod, self.act)
        out = []
        for mode in ("total", "partial"):
            base = self.alg.check_associativity(mode, 1)
            if not base.passed:
                out.append((mode, None, None, [base]))
                continue
            tri = tri_mod.check_trimodule(self.alg, self.mod, self.act,
                                          mode=mode, level="quasi",
                                          max_violations=1)
            sd = prod.check_associativity(mode, 1)
            out.append((mode, tri.passed, sd.passed, [base, tri, sd]))
        return out

    def check(self, out):
        verdicts = [[mode, a, b] for mode, a, b, _ in out]
        reports = [r for *_, reps in out for r in reps]
        return verdicts, reports, all(a == b for _, a, b in verdicts)

    def inputs(self):
        return [serialization.ModuleBundle(self.alg, self.mod, self.act)]


class BicrossedOracle(Item):
    """Matched-pair conditions against associativity of the bicrossed product."""

    def __init__(self, key, pair):
        super().__init__(key)
        self.pair = pair

    def run(self):
        mp = self.pair
        prod = mp_mod.bicrossed_product(mp)
        out = []
        for mode in ("total", "partial"):
            bases = [mp.A.check_associativity(mode, 1),
                     mp.B.check_associativity(mode, 1)]
            if not all(b.passed for b in bases):
                out.append((mode, None, None, bases))
                continue
            cond = mp_mod.check_matched_pair(mp, mode=mode, max_violations=1)
            assoc = prod.check_associativity(mode, 1)
            out.append((mode, cond.passed, assoc.passed, bases + [cond, assoc]))
        return out

    check = SemidirectOracle.check

    def inputs(self):
        return [self.pair]


class DualityOracle(Item):
    """Associativity against coassociativity of the dual, and double dual."""

    def __init__(self, key, alg):
        super().__init__(key)
        self.alg = alg

    def run(self):
        a = self.alg
        c = duality.dualize_algebra(a)
        out = []
        for mode in ("total", "partial", "weak"):
            out.append((mode, a.check_associativity(mode, 1),
                        c.check_coassociativity(mode, 1)))
        back = duality.dualize_coalgebra(c)
        same = back.mu == a.mu and back.alpha1 == a.alpha1 \
            and back.alpha2 == a.alpha2
        return out, same

    def check(self, result):
        out, same = result
        verdicts = [[mode, x.passed, y.passed] for mode, x, y in out]
        reports = [r for _, x, y in out for r in (x, y)]
        ok = same and all(a == b for _, a, b in verdicts)
        return verdicts + [same], reports, ok

    def inputs(self):
        return [self.alg]


# the rational automorphisms of fixture et1 among maps with entries in
# {-1, 0, 1}, as tabulated in the acceptance suite
ET1_AUTOS = [((1, 0), (0, 1)), ((-1, 0), (0, -1)),
             ((-1, -1), (0, 1)), ((1, 1), (0, -1))]


class AutomorphismOracle(Item):
    """All 81 maps over {-1,0,1} against the known automorphism list.

    The algebra is fixture et1 carried by a signed permutation p and its
    product rescaled; conjugation by p maps the set of candidate maps onto
    itself, so exactly the four conjugated automorphisms must be found.
    """

    def __init__(self, key, alg, expected):
        super().__init__(key)
        self.alg, self.expected = alg, expected

    def run(self):
        vals = [QuadScalar(-1), QuadScalar(0), QuadScalar(1)]
        found = []
        for a, b, c, d in itertools.product(vals, repeat=4):
            f = [[a, b], [c, d]]
            if alg_mod.is_algebra_isomorphism(f, self.alg, self.alg):
                found.append(f)
        return found

    def check(self, found):
        got = sorted(_mat_rows(f) for f in found)
        return got, [], got == self.expected

    def outcome(self, projection):
        return len(projection)

    def inputs(self):
        return [self.alg]


def _int_mat(rows):
    return [[QuadScalar(x) for x in row] for row in rows]


def _make_automorphism_item(rng, key, et1):
    perm = rng.choice([(0, 1), (1, 0)])
    signs = [rng.choice([1, -1]) for _ in range(2)]
    p = [[0, 0], [0, 0]]
    for j in range(2):
        p[perm[j]][j] = signs[j]
    # p is a signed permutation, so its inverse is its transpose
    p_inv = [[p[j][i] for j in range(2)] for i in range(2)]
    alg = transport(et1, _int_mat(p))
    scale = rand_scalar(rng, 1)
    alg = alg_mod.TernaryHomAlgebra(
        2, {k: {l: c * scale for l, c in v.items()} for k, v in alg.mu.items()},
        alg.alpha1, alg.alpha2)
    expected = []
    for f in ET1_AUTOS:
        g = [[sum(p[i][k] * f[k][l] * p_inv[l][j] for k in range(2)
                  for l in range(2)) for j in range(2)] for i in range(2)]
        expected.append(tuple(tuple(str(x) for x in row) for row in g))
    return AutomorphismOracle(key, alg, sorted(expected))


def _random_pair(rng, n, m):
    a = random_small_algebra(rng, n, rng.randrange(3))
    b = random_small_algebra(rng, m, rng.randrange(3))
    return mp_mod.MatchedPairData(a, b, random_actions(rng, n, m, 2),
                                  random_actions(rng, m, n, 2))


# (name, count per pass, maker); dimensions 1-3 as in the acceptance oracles
def _oracle_strata(fixtures):
    et1 = fixtures["et1"]
    out = []
    for n, m, count in ((1, 1, 40), (1, 2, 40), (2, 1, 60), (2, 2, 80),
                        (3, 1, 40)):
        def make(rng, key, n=n, m=m):
            alg = random_small_algebra(rng, n, rng.randrange(3 + n))
            beta = [[QuadScalar(rng.choice([0, 1, -1])) for _ in range(m)]
                    for _ in range(m)]
            mod = tri_mod.BihomModule(m, beta, beta)
            return SemidirectOracle(key, alg, mod,
                                    random_actions(rng, n, m, 3))
        out.append((f"semidirect-{n}x{m}", count, make))
    for n, m, count in ((1, 1, 40), (1, 2, 40), (2, 1, 40), (2, 2, 40)):
        out.append((f"bicrossed-{n}x{m}", count,
                    lambda rng, key, n=n, m=m:
                    BicrossedOracle(key, _random_pair(rng, n, m))))
    for n, count in ((1, 40), (2, 60), (3, 80)):
        out.append((f"duality-d{n}", count,
                    lambda rng, key, n=n:
                    DualityOracle(key, random_small_algebra(
                        rng, n, rng.randrange(4)))))
    out.append(("automorphisms-d2", 60,
                lambda rng, key: _make_automorphism_item(rng, key, et1)))
    return out


# -- cli_mix -------------------------------------------------------------


class CliItem(Item):
    """One in-process ``ternalg`` command with its stdout captured.

    For a ``--json`` check the projection is the law list of the report
    (the input path and digest are left out); for a construction it is
    the exit code and the digest of the bytes written.
    """

    def __init__(self, key, argv, out_path=None, sources=()):
        super().__init__(key)
        self.argv, self.out_path, self.sources = argv, out_path, list(sources)

    def run(self):
        buf, err = io.StringIO(), io.StringIO()
        with redirect_stdout(buf), redirect_stderr(err):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, result):
        code, text = result
        if self.out_path is None:
            doc = json.loads(text)
            return [code, json_report_projection(doc)], [doc], True
        path = Path(self.out_path)
        data = path.read_bytes()
        # the next run writes a new file: rewriting a truncated one can make
        # the file system flush it on close, which would time the disk
        path.unlink()
        return [code, hashlib.sha256(data).hexdigest()], [], code == 0

    def outcome(self, projection):
        code, body = projection
        if self.out_path is None:
            return [code, [law[1] for law in body]]
        return code

    def inputs(self):
        """The objects written to the input files (none for fixtures)."""
        return self.sources


# fixture files and the mode each one is checked in; map files are inputs
# of ``twist`` only
CLI_FIXTURES = {"ep1": "partial", "et1": "total", "t2": "total",
                "t2h1": "total", "t2h2": "total", "p2h": "partial",
                "pb2": "partial", "tb2": "total", "eq1": "partial",
                "eq2": "partial"}


def _big_group_algebra(rng, n, classical):
    """Group-type product with two outputs per entry, over Q(sqrt(5)).

    The classical form has one pair of coefficients for every entry, so
    that the maps of ``_twist_inputs`` respect it; otherwise every entry
    and the twist maps get their own random coefficients.
    """
    h = n // 2
    c1, c2 = rand_scalar(rng, 5), rand_scalar(rng, 5)
    mu = {}
    for a, b, c in itertools.product(range(n), repeat=3):
        s = (a + b + c) % n
        if not classical:
            c1, c2 = rand_scalar(rng, 5), rand_scalar(rng, 5)
        mu[(a, b, c)] = {s: c1, (s + h) % n: c2}
    if classical:
        return alg_mod.classical(n, mu, 5)
    tw = [[rand_scalar(rng, 5) if i == j or (i + 1) % n == j else ZERO
           for j in range(n)] for i in range(n)]
    return alg_mod.TernaryHomAlgebra(n, mu, tw, tw, 5)


def _twist_inputs(rng, n):
    # e_a -> e_{k a} fixes e_0 and e_h when k is odd, so it respects the
    # product of _big_group_algebra
    alg = _big_group_algebra(rng, n, classical=True)
    k = rng.choice([k for k in range(3, n, 2) if math.gcd(k, n) == 1] or [1])
    rho = [[ONE if i == (k * j) % n else ZERO for j in range(n)]
           for i in range(n)]
    return alg, rho


def _big_module(rng, n, m):
    alg = _big_group_algebra(rng, n, classical=False)
    beta = [[rand_scalar(rng, 5) if i <= j else ZERO for j in range(m)]
            for i in range(m)]
    act = tri_mod.TrimoduleActions()
    for tensor, shape in ((act.L, (n, n, m)), (act.R, (m, n, n)),
                          (act.M, (n, m, n))):
        for key in itertools.product(*map(range, shape)):
            if rng.random() < 0.5:
                tensor[key] = {rng.randrange(m): rand_scalar(rng, 5)}
    return serialization.ModuleBundle(alg, tri_mod.BihomModule(m, beta, beta),
                                      act)


def _big_pair(rng, n, m):
    a = _big_group_algebra(rng, n, classical=False)
    b = _big_group_algebra(rng, m, classical=False)
    acts = []
    for p, q in ((n, m), (m, n)):
        act = tri_mod.TrimoduleActions()
        for tensor, shape in ((act.L, (p, p, q)), (act.R, (q, p, p)),
                              (act.M, (p, q, p))):
            for key in itertools.product(*map(range, shape)):
                if rng.random() < 0.3:
                    tensor[key] = {rng.randrange(q): rand_scalar(rng, 5)}
        acts.append(act)
    return mp_mod.MatchedPairData(a, b, acts[0], acts[1])


def _big_bialgebra(rng, n):
    """A dense bialgebra file for commands that only transform it.

    ``signflip`` and ``dualize`` check no law, so the product, coproduct
    and twists are random rather than compatible.
    """
    alg = _big_group_algebra(rng, n, classical=False)
    delta = {l: {(a, b, (l - a - b) % n): rand_scalar(rng, 5)
                 for a in range(n) for b in range(n)} for l in range(n)}
    return bi_mod.TernaryBialgebra(
        alg, coalg_mod.TernaryHomCoalgebra(n, delta, alg.alpha1, alg.alpha2, 5))


def _small_structure(rng, kind):
    if kind == "algebra":
        return random_small_algebra(rng, 3, 6), "total"
    if kind == "bialgebra":
        a = random_small_algebra(rng, 2, 2)
        delta = {}
        for _ in range(2):
            delta.setdefault(rng.randrange(2), {})[
                tuple(rng.randrange(2) for _ in range(3))] = \
                QuadScalar(rng.choice([-1, 1]))
        return bi_mod.bialgebra(2, a.mu, delta, a.alpha1, a.alpha2), "partial"
    if kind == "module":
        alg = random_small_algebra(rng, 2, 2)
        beta = [[QuadScalar(rng.choice([0, 1, -1])) for _ in range(2)]
                for _ in range(2)]
        return serialization.ModuleBundle(
            alg, tri_mod.BihomModule(2, beta, beta),
            random_actions(rng, 2, 2, 3)), "total"
    return _random_pair(rng, 2, 1), "partial"


def _cli_strata(work: Path):
    def write(obj, key):
        path = work / (key.replace("/", "_") + ".json")
        path.write_text(serialization.dump_text(obj), encoding="utf-8")
        return str(path)

    def out_path(key):
        return str(work / (key.replace("/", "_") + ".out.json"))

    def small(kind):
        def make(rng, key):
            obj, mode = _small_structure(rng, kind)
            return CliItem(key, ["check", write(obj, key), "--json",
                                 "--mode", mode], sources=[obj])
        return make

    def construction(command, build, flags=()):
        def make(rng, key):
            obj, extra = build(rng)
            argv = [command, write(obj, key), "--out", out_path(key)]
            if extra is not None:
                argv += ["--endo", write(extra, key + "-endo")]
            return CliItem(key, argv + list(flags), out_path(key),
                           [obj] if extra is None else [obj, extra])
        return make

    out = [(f"check-{kind}", count, small(kind))
           for kind, count in (("algebra", 14), ("bialgebra", 14),
                               ("module", 6), ("matched_pair", 6))]
    out += [
        ("dualize-algebra-d8", 2, construction(
            "dualize", lambda rng: (_big_group_algebra(rng, 8, False), None))),
        ("dualize-algebra-d10", 8, construction(
            "dualize", lambda rng: (_big_group_algebra(rng, 10, False), None))),
        ("dualize-bialgebra-d6", 2, construction(
            "dualize", lambda rng: (_big_bialgebra(rng, 6), None))),
        ("signflip-d8", 2, construction(
            "signflip", lambda rng: (_big_bialgebra(rng, 8), None),
            ("--mu", "--delta"))),
        ("twist-d6", 2, construction(
            "twist", lambda rng: _twist_inputs(rng, 6))),
        ("twist-d10", 2, construction(
            "twist", lambda rng: _twist_inputs(rng, 10))),
        ("semidirect-d6x2", 2, construction(
            "semidirect", lambda rng: (_big_module(rng, 6, 2), None))),
        ("doublecross-d6x3", 2, construction(
            "doublecross", lambda rng: (_big_pair(rng, 6, 3), None))),
    ]
    return out


def fixture_items():
    return [CliItem(f"fixture/{name}",
                    ["check", str(FIXTURES / f"{name}.json"), "--json",
                     "--mode", mode])
            for name, mode in CLI_FIXTURES.items()]


# -- corpus assembly -----------------------------------------------------

WORKLOADS = ("dense_verify", "oracle_sweep", "cli_mix")


def load_fixtures():
    return {name: load_fixture(name) for name in ("pb2", "eq1", "eq2", "et1")}


def strata(workload, fixtures, work=None):
    if workload == "dense_verify":
        return _dense_strata(fixtures)
    if workload == "oracle_sweep":
        return _oracle_strata(fixtures)
    return _cli_strata(work)


def pool_size(count: int) -> int:
    return 2 * count + 2


def slot_range(count: int, holdout: bool) -> range:
    """Slots a seed may draw from; the last quarter is held out."""
    size = pool_size(count)
    cut = size - size // 4
    return range(cut, size) if holdout else range(0, cut)


def make_slot(workload, name, make, slot):
    key = f"{name}/{slot}"
    return make(random.Random(f"{workload}/{key}"), key)


def _apportion(slots, count, classes, workload, name):
    """Slots per outcome class, in the shares the class has in ``slots``.

    With the outcome classes recorded in the reference every corpus holds
    the same number of items of each class (say, "base algebra fails, no
    oracle run" against "both oracles decided"), whatever the seed, so its
    cost does not swing with how many expensive outcomes a seed drew.
    """
    groups = {}
    for slot in slots:
        ref = classes.get(reference_key(workload, f"{name}/{slot}"))
        groups.setdefault(ref, []).append(slot)
    shares = {k: len(v) * count / len(slots) for k, v in groups.items()}
    take = {k: int(v) for k, v in shares.items()}
    order = sorted(groups, key=lambda k: (take[k] - shares[k], str(k)))
    for k in order[:count - sum(take.values())]:
        take[k] += 1
    return [(groups[k], take[k]) for k in sorted(groups, key=str)]


def build_corpus(workload, seed, holdout=False, work=None, tiny=False,
                 classes=None):
    """The seeded list of items one pass of the workload runs.

    ``classes`` maps reference keys to recorded outcome classes; without
    it slots are drawn plainly.  With ``tiny`` every stratum small enough
    contributes a single item; the smoke test uses it.
    """
    fixtures = load_fixtures()
    rng = random.Random(f"{workload}:{seed}:{'holdout' if holdout else 'dev'}")
    items = []
    for name, count, make in strata(workload, fixtures, work):
        slots = slot_range(count, holdout)
        if tiny:
            if _too_big_for_tiny(name):
                continue
            count = 1
        groups = (_apportion(slots, count, classes, workload, name)
                  if classes else [(list(slots), count)])
        for group, take in groups:
            for slot in rng.sample(group, take):
                items.append(make_slot(workload, name, make, slot))
    if workload == "cli_mix":
        items += fixture_items()
    rng.shuffle(items)
    return items


def _too_big_for_tiny(name):
    return any(tag in name for tag in ("-d5-", "-d6-", "-d8", "-d10",
                                       "identity", "transport-d4"))


def corpus_digest(items) -> str:
    """Digest of the generated inputs: item keys and canonical dumps."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.key.encode())
        for obj in item.inputs():
            h.update(serialization.dump_text(obj).encode())
    return h.hexdigest()[:16]


def coefficients(items) -> list:
    """Every nonzero structure constant and map entry the items carry."""
    out = []

    def tensor(t):
        for v in t.values():
            out.extend(v.values())

    def matrix(m):
        out.extend(x for row in m for x in row if x)

    for item in items:
        for obj in item.inputs():
            if isinstance(obj, list):
                matrix(obj)
                continue
            for alg in _algebras(obj):
                tensor(alg.mu)
                matrix(alg.alpha1)
            if isinstance(obj, (coalg_mod.TernaryHomCoalgebra,
                                bi_mod.TernaryBialgebra)):
                co = getattr(obj, "coalg", obj)
                tensor(co.delta)
                matrix(co.alpha1)
    return out


def _algebras(obj):
    if isinstance(obj, alg_mod.TernaryHomAlgebra):
        return [obj]
    if isinstance(obj, bi_mod.TernaryBialgebra):
        return [obj.alg]
    if isinstance(obj, serialization.ModuleBundle):
        return [obj.algebra]
    if isinstance(obj, mp_mod.MatchedPairData):
        return [obj.A, obj.B]
    return []


def load_reference(path):
    """Reference key -> [output digest, outcome class digest]."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["slots"]


def reference_key(workload, item_key):
    return f"{workload}/{item_key}"

