"""Exact scalar arithmetic over the quadratic extension Q(sqrt(d)).

Every coefficient in this package is a ``QuadScalar``: a value
``(a + b*sqrt(d)) / q`` held as four Python ints.  The radicand ``d`` is a
small square-free positive integer shared by all scalars of one structure.
The form is canonical: ``q > 0``, ``gcd(a, b, q) == 1``, and ``b == 0``
exactly when ``d == 1``, the pure-rational case.  So two scalars are equal
exactly when their quadruples are, and arithmetic never builds a rational
object: each result is reduced by one gcd.

Checkers that evaluate many products at once skip even that gcd: ``lift``
clears the denominators of a table of scalars once, the products run on
bare int pairs ``(a, b)`` standing for ``a + b*sqrt(d)``, and ``unlift``
reduces a pair back to a scalar only when it is reported.  Associativity,
coassociativity, every intertwining law (multiplicativity, morphisms, the
Yau-twist probe, the trimodule and matched-pair intertwining laws) and
the compatibility law of a bialgebra run this way.  Associativity and
coassociativity go one step further and pack a whole vector of such pairs
into two ints (``linalg.pair_pack``), so one int operation handles a row
of entries.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

BACKEND = "int"


class RadicandMismatch(ValueError):
    """Two scalars from genuinely different quadratic extensions were mixed."""


class ScalarParseError(ValueError):
    """A scalar literal does not conform to the grammar."""


MAX_RADICAND = 10 ** 9  # keeps the trial division below cheap


@lru_cache(maxsize=1024)
def square_free(k: int) -> tuple[int, int]:
    """(root, rest) with k = root**2 * rest and rest square-free.

    Raises ScalarParseError unless 1 <= k <= MAX_RADICAND.  The trial
    division runs to sqrt(k), so each radicand's result is kept: literals
    that differ only in their coefficients divide once.
    """
    if not 1 <= k <= MAX_RADICAND:
        raise ScalarParseError(f"radicand {k} is not in 1..{MAX_RADICAND}")
    root, p = 1, 2
    while p * p <= k:
        while k % (p * p) == 0:
            k //= p * p
            root *= p
        p += 1
    return root, k


def join_radicands(d1: int, d2: int) -> int:
    """The common radicand of two different ones, one of them 1."""
    if d1 == 1:
        return d2
    if d2 == 1:
        return d1
    raise RadicandMismatch(f"sqrt({d1}) vs sqrt({d2})")


class QuadScalar:
    """An element ``(a + b*sqrt(d)) / q`` of Q(sqrt(d)), immutable.

    ``QuadScalar(rat, irr, d)`` is ``rat + irr*sqrt(d)`` for ints,
    ``Fraction``s or strings such as ``"5/2"``; ``d`` is reduced to its
    square-free part, so ``QuadScalar(0, 1, 8)`` is ``2*sqrt(2)``.
    """

    __slots__ = ("_a", "_b", "_q", "_d")

    def __init__(self, rat, irr=0, d: int = 1):
        if d < 1:
            raise ValueError("radicand must be a positive integer")
        root, d = square_free(d)
        rat, irr = Fraction(rat), Fraction(irr) * root
        m1, m2 = rat.denominator, irr.denominator
        a, b = rat.numerator * m2, irr.numerator * m1
        if d == 1:
            # sqrt of a square folds into the rational part
            a, b = a + b, 0
        x = _make(a, b, m1 * m2, d)
        self._a, self._b, self._q, self._d = x._a, x._b, x._q, x._d

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    @property
    def q(self) -> int:
        return self._q

    @property
    def d(self) -> int:
        return self._d

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        a1, b1, q1, d = self._a, self._b, self._q, self._d
        a2, b2, q2, d2 = other._a, other._b, other._q, other._d
        if d != d2:
            d = join_radicands(d, d2)
        if q1 == q2:
            return _make(a1 + a2, b1 + b2, q1, d)
        return _make(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, q1 * q2, d)

    def __sub__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        a1, b1, q1, d = self._a, self._b, self._q, self._d
        a2, b2, q2, d2 = other._a, other._b, other._q, other._d
        if d != d2:
            d = join_radicands(d, d2)
        if q1 == q2:
            return _make(a1 - a2, b1 - b2, q1, d)
        return _make(a1 * q2 - a2 * q1, b1 * q2 - b2 * q1, q1 * q2, d)

    def __neg__(self):
        a, b, q, d = self._a, self._b, self._q, self._d
        return _make(-a, -b, q, d)

    def __mul__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        a1, b1, q1, d = self._a, self._b, self._q, self._d
        a2, b2, q2, d2 = other._a, other._b, other._q, other._d
        if not b1:
            if not b2:
                return _make(a1 * a2, 0, q1 * q2, 1)
            return _make(a1 * a2, a1 * b2, q1 * q2, d2)
        if not b2:
            return _make(a1 * a2, b1 * a2, q1 * q2, d)
        if d != d2:
            d = join_radicands(d, d2)
        return _make(a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, q1 * q2, d)

    def inverse(self) -> "QuadScalar":
        """Multiplicative inverse via the conjugate; raises on zero."""
        a, b, q, d = self._a, self._b, self._q, self._d
        norm = a * a - d * b * b
        if not norm:
            raise ZeroDivisionError("scalar has no inverse")
        if norm < 0:
            norm, q = -norm, -q
        return _make(q * a, -q * b, norm, d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._q == other._q and self._d == other._d)

    def __hash__(self):
        return hash((self._a, self._b, self._q, self._d))

    def __repr__(self):
        return f"QuadScalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


_new = object.__new__


def _make(a: int, b: int, q: int, d: int) -> QuadScalar:
    """The canonical scalar ``(a + b*sqrt(d)) / q``, given ``q > 0``.

    ``d`` must already be square-free; it becomes 1 when ``b`` vanishes.
    """
    g = gcd(a, b, q)
    if g != 1:
        a //= g
        b //= g
        q //= g
    if not b:
        d = 1
    x = _new(QuadScalar)
    x._a = a
    x._b = b
    x._q = q
    x._d = d
    return x


ZERO = _make(0, 0, 1, 1)
ONE = _make(1, 0, 1, 1)


# -- fraction-free int pairs ---------------------------------------------


def lift(*tables) -> list:
    """Tables of scalars as int pairs, each over its own denominator.

    A table is a dict or a list of sparse vectors of scalars.  Its
    denominator D is the lcm of its entries' ``q``, and an entry
    ``(a + b*sqrt(d)) / q`` becomes the pair ``(a*D/q, b*D/q)``.  Returns
    d, the one radicand other than 1 among all the entries, then for each
    table D and the lifted table, a dict with the table's keys.  Raises
    RadicandMismatch when the entries hold two radicands other than 1.
    """
    d = 1
    out = []
    for table in tables:
        vecs = table.values() if isinstance(table, dict) else table
        den = 1
        for vec in vecs:
            for x in vec.values():
                if x._d != d:
                    d = join_radicands(d, x._d)
                if den % x._q:
                    den = lcm(den, x._q)
        keyed = table.items() if isinstance(table, dict) else enumerate(table)
        lifted = {}
        for key, vec in keyed:
            pairs = lifted[key] = {}
            for i, x in vec.items():
                m = den // x._q
                pairs[i] = (x._a * m, x._b * m)
        out.append((den, lifted))
    return [d, *out]


def unlift(vec: dict, den: int, d: int) -> dict:
    """A vector of lifted pairs ``{key: (a, b)}`` as scalars, each
    ``(a + b*sqrt(d)) / den`` reduced, under the same keys."""
    return {key: _make(a, b, den, d) for key, (a, b) in vec.items()}


# -- literal grammar ----------------------------------------------------
#
#   scalar := term (("+" | "-") term)?
#   term   := rat | rat "*" "sqrt(" int ")" | "sqrt(" int ")"
#   rat    := int | int "/" posint

_TERM = re.compile(
    r"""
    (?:
        (?P<coef>-?\d+(?:/\d+)?)
        (?:\*sqrt\((?P<rad1>\d+)\))?
      |
        sqrt\((?P<rad2>\d+)\)
    )
    """,
    re.VERBOSE,
)


def _parse_term(text: str) -> tuple[int, int, int | None]:
    """(numerator, denominator, radicand or None) of one term."""
    m = _TERM.fullmatch(text)
    if m is None:
        raise ScalarParseError(f"bad scalar term: {text!r}")
    if m.group("rad2") is not None:
        return 1, 1, int(m.group("rad2"))
    num, _, den = m.group("coef").partition("/")
    den = int(den) if den else 1
    if den <= 0:
        raise ScalarParseError(f"denominator must be positive: {text!r}")
    rad = m.group("rad1")
    return int(num), den, (int(rad) if rad is not None else None)


def parse_scalar(text: str, radicand: int = 1) -> QuadScalar:
    """Parse a scalar literal; sqrt radicands must match ``radicand``.

    ``sqrt(k)`` is reduced to its square-free part, so ``sqrt(8)`` reads as
    ``2*sqrt(2)`` and ``sqrt(4)`` as ``2``.
    """
    text = text.replace(" ", "")
    if not text:
        raise ScalarParseError("empty scalar")
    # split on the binary +/- separating the two terms (unary minus only
    # opens the string or follows nothing, per the grammar)
    split_at = None
    for pos in range(1, len(text)):
        if text[pos] in "+-" and text[pos - 1] not in "+-*(/":
            split_at = pos
            break
    if split_at is None:
        parts = [text]
    else:
        parts = [text[:split_at], text[split_at:]]
        if parts[1][0] == "+":
            parts[1] = parts[1][1:]
    # the value read so far is (a + b*sqrt(seen_rad)) / q
    a, b, q = 0, 0, 1
    seen_rad = None
    for part in parts:
        if part.startswith("-sqrt"):
            raise ScalarParseError(f"write -1*sqrt(d), not -sqrt(d): {text!r}")
        num, den, rad = _parse_term(part)
        if rad is not None:
            root, rad = square_free(rad)
            num *= root
        if rad is None or rad == 1:
            # the root of a square folds into the rational part
            a, b = a * den + num * q, b * den
        else:
            if seen_rad is not None and seen_rad != rad:
                raise ScalarParseError(f"mixed radicands in {text!r}")
            seen_rad = rad
            a, b = a * den, b * den + num * q
        q *= den
    if seen_rad is not None and radicand != 1 and seen_rad != radicand:
        raise ScalarParseError(
            f"radicand {seen_rad} does not match context radicand {radicand}"
        )
    return _make(a, b, q, seen_rad or 1)


def _ratio_str(n: int, q: int) -> str:
    """``n/q`` in lowest terms as ``str(Fraction(n, q))`` writes it."""
    g = gcd(n, q)
    if g != 1:
        n //= g
        q //= g
    return str(n) if q == 1 else f"{n}/{q}"


def format_scalar(x: QuadScalar) -> str:
    """Canonical literal for ``x``; ``parse_scalar`` round-trips it."""
    a, b, q, d = x._a, x._b, x._q, x._d
    if not b:
        return _ratio_str(a, q)
    irr_term = f"{_ratio_str(b, q)}*sqrt({d})"
    if not a:
        return irr_term
    if b > 0:
        return f"{_ratio_str(a, q)}+{irr_term}"
    return f"{_ratio_str(a, q)}{irr_term}"
