"""Structured verdicts produced by the law checkers, and the loop behind them.

A checker evaluates a family of identities over all basis index tuples and
records every nonzero residual, up to a per-law cap.  ``check_laws`` is
that loop for every family: the family supplies its index tuples, the
members of its identity at each, how to combine them into a residual per
mode, and how to render a residual.  A family whose members come packed
a row of index tuples at a time, as big ints, goes through
``check_packed``, which decides each row by comparing ints and hands
``check_laws`` only the tuples where a law fails.  Reports aggregate one
``LawReport`` per identity and expose a single ``passed`` flag.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product

from .linalg import next_slot, pair_unpack, pair_width, vec_sub, vec_sum
from .scalars import lift, unlift

DEFAULT_MAX_VIOLATIONS = 10

MODES = ("total", "partial", "weak")

# how to subtract two members and sum all three, for scalar members, for
# sparse-vector members, and for int pairs, lifted scalars or packed rows
SCALAR = (operator.sub, lambda t: t[0] + t[1] + t[2])
VECTOR = (vec_sub, vec_sum)


def _nonzero(a: int, b: int):
    return (a, b) if a or b else None


PAIR = (lambda x, y: _nonzero(x[0] - y[0], x[1] - y[1]),
        lambda t: _nonzero(t[0][0] + t[1][0] + t[2][0],
                           t[0][1] + t[1][1] + t[2][1]))


@dataclass(frozen=True)
class Violation:
    """One failing basis index tuple (1-based) and its nonzero residual."""

    index: tuple
    residual: str


@dataclass
class LawReport:
    """The violations of one identity, in index order.

    ``truncated`` means the list may be incomplete: the checker saw one
    more nonzero residual after the cap was reached, or stopped with index
    tuples unexamined once every law it was checking had reached the cap.
    """

    law: str
    tag: str
    violations: list[Violation] = field(default_factory=list)
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "law": self.law,
            "tag": self.tag,
            "passed": self.passed,
            "truncated": self.truncated,
            "violations": [
                {"index": list(v.index), "residual": v.residual}
                for v in self.violations
            ],
        }


@dataclass
class Report:
    laws: list[LawReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(lr.passed for lr in self.laws)

    def add(self, law_report: LawReport) -> None:
        self.laws.append(law_report)

    def extend(self, other: "Report") -> None:
        self.laws.extend(other.laws)

    def law(self, name: str) -> LawReport:
        for lr in self.laws:
            if lr.law == name:
                return lr
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "laws": [lr.as_dict() for lr in self.laws]}


def check_mode(mode: str, modes=MODES) -> None:
    if mode not in modes:
        raise ValueError(f"unknown mode {mode!r}")


@lru_cache(maxsize=None)
def mode_residuals(mode: str, arith, chained: bool = False) -> tuple:
    """Residual functions, one per law, of an identity with members t1, t2, t3.

    Total mode asserts t1 = t2 = t3: the two laws t1 - t2 and t2 - t3, or
    one law when ``chained``, whose residual is t2 - t3 only where t1 - t2
    vanishes.  Partial mode asserts t1 + t2 + t3 = 0, weak mode t1 = t3.
    ``arith`` is ``SCALAR``, ``VECTOR`` or ``PAIR``, the kind of the
    members; a residual is falsy exactly where it vanishes.
    """
    sub, total = arith
    if mode == "total":
        first = lambda t: sub(t[0], t[1])
        second = lambda t: sub(t[1], t[2])
        if chained:
            return (lambda t: first(t) or second(t),)
        return first, second
    if mode == "partial":
        return (total,)
    return (lambda t: sub(t[0], t[2]),)


def mode_laws(name: str, tags: tuple, mode: str) -> list[LawReport]:
    """The laws of identity ``name`` in ``mode``, as ``mode_residuals`` splits it.

    ``tags`` holds the tags of total 1-2, total 2-3, partial and weak.
    """
    check_mode(mode)
    if mode == "total":
        return [LawReport(f"{name}:total:1-2", tags[0]),
                LawReport(f"{name}:total:2-3", tags[1])]
    return [LawReport(f"{name}:{mode}", tags[2 if mode == "partial" else 3])]


def difference(members):
    """Residual of a two-member identity between sparse vectors."""
    return vec_sub(*members)


def itself(residual):
    """Residual function of a family whose members are its residual."""
    return residual


def vec_str(vec: dict, basis: str = "e") -> str:
    """A sparse-vector residual as ``{e1: c, e3: c'}``, in index order."""
    return "{" + ", ".join(f"{basis}{i + 1}: {vec[i]}"
                           for i in sorted(vec)) + "}"


def check_laws(laws: list[LawReport], residuals: list, indices, members,
               fmt, cap: int) -> None:
    """Record the first ``cap`` nonzero residuals of each law over ``indices``.

    ``indices`` yields 0-based index tuples in order; ``members(index)``
    gives the members of the identity there, and ``residuals[i]`` maps them
    to the residual of ``laws[i]``, falsy where the law holds; ``fmt``
    renders a residual, and runs only on the residuals recorded.  A law that
    has reached the cap is still evaluated while another law is below it,
    and is marked truncated on its next nonzero residual.  Once every law
    has reached the cap the loop stops, and marks those laws truncated if
    an index remains; the members there are not evaluated.  A cap below 1
    raises ValueError, since it would report a failing law as passed.
    """
    if cap < 1:
        raise ValueError(f"max_violations must be at least 1, not {cap}")
    pending = list(zip(laws, residuals))
    below_cap = len(pending)
    for index in indices:
        if not below_cap:
            for lr, _ in pending:
                lr.truncated = True
            return
        values = members(index)
        for entry in pending:
            lr, residual = entry
            res = residual(values)
            if not res:
                continue
            violations = lr.violations
            if len(violations) < cap:
                violations.append(
                    Violation(tuple(i + 1 for i in index), fmt(res)))
                if len(violations) == cap:
                    below_cap -= 1
            else:
                lr.truncated = True
                pending = [e for e in pending if e is not entry]


# each law's residual at a tuple, from the list that check_packed keeps
_PICK = (operator.itemgetter(0), operator.itemgetter(1))


def check_packed(name: str, tags: tuple, mode: str, tables: tuple, rows,
                 span: int, key, fmt, cap: int) -> Report:
    """The report of identity ``name`` in ``mode``, its laws as
    ``mode_laws`` makes them, whose three members each have degree
    T^2 alpha1 alpha2 (an identity of another degree needs its own scale
    and width here) and come a row at a time, packed.

    ``tables``, T and the column lists of alpha1 and alpha2, are lifted to
    int pairs once; each member carries the scale D_T^2 D_alpha1 D_alpha2.
    ``rows(T, a1, a2, d, w)`` on the lifted tables yields ``(row, members,
    space)`` in index order: tuple k of the row, ``key(row, k)``, takes
    ``span`` slots of each of the three ``members`` (None when all are
    zero), pairs of ints (a, b), for a + b*sqrt(d), packed with signed
    slots of w = ``pair_width`` bits, from slot k*span on; the ints of
    ``space`` are nonzero exactly at the row's index tuples.  A row whose
    members are all zero may be left out, unless it is the last row with
    tuples and a member of an earlier row is not zero.

    Each law still open gets its residual on the packed members, one int
    comparison per row.  Only the tuples where one fails reach
    ``check_laws``, each law's residual there read back as
    ``{slot: QuadScalar}`` (slots of the tuple) for ``fmt``; after them,
    the next tuple of the space with no residual, so that ``check_laws``
    sees that an index remains.  No other tuple can change a report.
    """
    laws = mode_laws(name, tags, mode)
    d, (den, t), (den1, a1), (den2, a2) = lift(*tables)
    scale, w = den * den * den1 * den2, pair_width(d, t, a1, a2)
    found = {}
    tuples = _packed_tuples(rows(t, a1, a2, d, w),
                            list(zip(laws, mode_residuals(mode, PAIR))),
                            found, w * span, key)
    check_laws(laws, _PICK[:len(laws)], tuples, found.pop,
               lambda res: fmt(unlift(pair_unpack(*res, w, span), scale, d)),
               cap)
    return Report(laws)


def _packed_tuples(rows, laws: list, found: dict, w: int, key):
    """The index tuples ``check_packed`` hands ``check_laws``, each with
    the residuals of ``laws``, (report, residual function) pairs, put in
    ``found``; a tuple's slots are read as one of ``w`` bits."""
    mask, half = (1 << w) - 1, 1 << w - 1
    owed = False  # a row failed: the next tuple must reach check_laws
    for row, members, space in rows:
        # the packed residuals of the laws still open, and their ints
        residuals = [None if members is None or lr.truncated
                     else law(members) for lr, law in laws]
        failing = [x for res in residuals if res for x in res]
        last = -1  # the slot of the last tuple yielded
        if failing:
            slot = next_slot(failing, -1, w)
            while slot is not None:
                # each slot is below 2^(w-1) either way, so the slots
                # below sum to less than half a unit of this one: adding
                # that half rounds them away, and 2^(w-1) more at this
                # slot puts its digit where the mask reads it
                shift = w * slot
                carry = (half << shift) + (1 << shift >> 1)
                index = key(row, slot)
                found[index] = [
                    res and _nonzero(((res[0] + carry) >> shift & mask) - half,
                                     ((res[1] + carry) >> shift & mask) - half)
                    for res in residuals]
                yield index
                last, slot = slot, next_slot(failing, slot, w)
            owed = True
        elif not owed:
            continue
        rest = next_slot(space, last, w)
        if rest is not None:
            owed = False
            index = key(row, rest)
            found[index] = [None] * len(laws)
            yield index


@lru_cache(maxsize=None)
def compile_identity(text: str, slots: str):
    """The slot letters of ``t1 == t2 [== t3]``, in ``slots`` order, and a
    function of ``(idx, names, memo)`` giving its members, each a slot
    letter ``s`` (the basis vector ``names[s][idx[k]]``, ``s`` the k-th
    letter), a map of one, ``f(s)`` (the column ``names[f][idx[k]]``), or a
    call ``F(t, t, t)`` of ``names[F]``.  Parsed with ``ast`` on first use.

    A call inside a member is looked up in the dict ``memo`` by its name
    and the identities of its three values, and made only on a miss; a
    member itself is always called, and never stored.  An argument is a
    leaf that ``names`` holds or a value ``memo`` holds, so its id is not
    reused while both live; one ``memo`` serves every identity written
    over the same ``names``."""
    chain = ast.parse(text, mode="eval").body
    if not isinstance(chain, ast.Compare) or len(chain.ops) > 2 \
            or not all(isinstance(op, ast.Eq) for op in chain.ops):
        raise ValueError(f"not a chain of two or three members: {text}")
    nodes = list(ast.walk(chain))
    used = {node.id for node in nodes if isinstance(node, ast.Name)} - {
        getattr(node.func, "id", None) for node in nodes
        if isinstance(node, ast.Call)}
    letters = "".join(s for s in slots if s in used)
    pos = {s: k for k, s in enumerate(letters)}

    def term(node, root=False):
        call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        name, args = (node.func.id, node.args) if call else (None, [node])
        if len(args) == 3:
            f, g, h = map(term, args)
            if root:
                return lambda idx, names, memo: names[name](
                    f(idx, names, memo), g(idx, names, memo),
                    h(idx, names, memo))

            def shared(idx, names, memo):
                x, y, z = (f(idx, names, memo), g(idx, names, memo),
                           h(idx, names, memo))
                key = name, id(x), id(y), id(z)
                value = memo.get(key)
                if value is None:
                    value = memo[key] = names[name](x, y, z)
                return value
            return shared
        if len(args) == 1 and getattr(args[0], "id", None) in pos:
            name, k = name or args[0].id, pos[args[0].id]
            return lambda idx, names, memo: names[name][idx[k]]
        raise ValueError(f"not a term: {ast.unparse(node)}")

    members = [term(node, True) for node in (chain.left, *chain.comparators)]
    return letters, lambda idx, names, memo: [m(idx, names, memo)
                                              for m in members]


def check_identities(laws: list[LawReport], texts, slots: str, names: dict,
                     residual, fmt, cap: int) -> None:
    """``check_laws`` for each identity of ``texts`` against its law, each
    slot letter ``s`` it uses running over ``names[s]``, in ``slots`` order.
    The calls inside members share one memo, which lives for this call."""
    memo = {}
    for lr, text in zip(laws, texts):
        letters, members = compile_identity(text, slots)
        check_laws([lr], [residual],
                   product(*(range(len(names[s])) for s in letters)),
                   partial(members, names=names, memo=memo), fmt, cap)
