"""Exact scalar arithmetic over the quadratic extension Q(sqrt(d)).

Every coefficient in this package is a ``QuadScalar``: a value
``rat + irr*sqrt(d)`` with exact rational parts.  The radicand ``d`` is a
small square-free positive integer shared by all scalars of one structure;
``d = 1`` is the pure-rational case and is the canonical form whenever the
irrational part vanishes.

The rational backend is selected once at import time: ``gmpy2.mpq`` when
it is importable, otherwise ``fractions.Fraction``; ``BACKEND`` names it.
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as Rational

    BACKEND = "gmpy2"
except ImportError:
    from fractions import Fraction as Rational

    BACKEND = "fractions"

_RAT_ZERO = Rational(0)
_RAT_ONE = Rational(1)


class RadicandMismatch(ValueError):
    """Two scalars from genuinely different quadratic extensions were mixed."""


class ScalarParseError(ValueError):
    """A scalar literal does not conform to the grammar."""


class QuadScalar:
    """An element ``rat + irr*sqrt(d)`` of Q(sqrt(d)), immutable."""

    __slots__ = ("rat", "irr", "d")

    def __init__(self, rat, irr=0, d: int = 1):
        rat = Rational(rat)
        irr = Rational(irr)
        if d < 1:
            raise ValueError("radicand must be a positive integer")
        if d == 1:
            # sqrt(1) folds into the rational part; canonical form keeps d = 1
            rat += irr
            irr = _RAT_ZERO
        elif irr == 0:
            d = 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    # -- ring structure -------------------------------------------------

    def _join(self, other: "QuadScalar") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise RadicandMismatch(f"sqrt({self.d}) vs sqrt({other.d})")

    def __add__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return QuadScalar(self.rat + other.rat, self.irr + other.irr, self._join(other))

    def __sub__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return QuadScalar(self.rat - other.rat, self.irr - other.irr, self._join(other))

    def __neg__(self):
        return QuadScalar(-self.rat, -self.irr, self.d)

    def __mul__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        d = self._join(other)
        if self.irr == 0:
            if other.irr == 0:
                return QuadScalar(self.rat * other.rat)
            return QuadScalar(self.rat * other.rat, self.rat * other.irr, d)
        return QuadScalar(
            self.rat * other.rat + d * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
            d,
        )

    def inverse(self) -> "QuadScalar":
        """Multiplicative inverse via the conjugate; raises on zero."""
        norm = self.rat * self.rat - self.d * self.irr * self.irr
        if norm == 0:
            raise ZeroDivisionError("scalar has no inverse")
        return QuadScalar(self.rat / norm, -self.irr / norm, self.d)

    def __bool__(self):
        return bool(self.rat) or bool(self.irr)

    def __eq__(self, other):
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr and self.d == other.d

    def __hash__(self):
        return hash((self.rat, self.irr, self.d))

    def __repr__(self):
        return f"QuadScalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = QuadScalar(0)
ONE = QuadScalar(1)


MAX_RADICAND = 10 ** 9  # keeps the trial division below cheap


def square_free(k: int) -> tuple[int, int]:
    """(root, rest) with k = root**2 * rest and rest square-free.

    Raises ScalarParseError unless 1 <= k <= MAX_RADICAND.
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


def _parse_term(text: str):
    m = _TERM.fullmatch(text)
    if m is None:
        raise ScalarParseError(f"bad scalar term: {text!r}")
    if m.group("rad2") is not None:
        return _RAT_ONE, int(m.group("rad2"))
    coef = m.group("coef")
    if "/" in coef:
        num, den = coef.split("/")
        if int(den) <= 0:
            raise ScalarParseError(f"denominator must be positive: {text!r}")
        value = Rational(int(num), int(den))
    else:
        value = Rational(int(coef))
    rad = m.group("rad1")
    return value, (int(rad) if rad is not None else None)


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
    rat = _RAT_ZERO
    irr = _RAT_ZERO
    seen_rad = None
    for part in parts:
        if part.startswith("-sqrt"):
            raise ScalarParseError(f"write -1*sqrt(d), not -sqrt(d): {text!r}")
        value, rad = _parse_term(part)
        if rad is not None:
            root, rad = square_free(rad)
            value *= root
        if rad is None or rad == 1:
            # the root of a square folds into the rational part
            rat += value
        else:
            if seen_rad is not None and seen_rad != rad:
                raise ScalarParseError(f"mixed radicands in {text!r}")
            seen_rad = rad
            irr += value
    if seen_rad is not None and radicand != 1 and seen_rad != radicand:
        raise ScalarParseError(
            f"radicand {seen_rad} does not match context radicand {radicand}"
        )
    return QuadScalar(rat, irr, seen_rad if seen_rad is not None else 1)


def format_scalar(x: QuadScalar) -> str:
    """Canonical literal for ``x``; ``parse_scalar`` round-trips it."""
    if x.irr == 0:
        return str(x.rat)
    irr_term = f"{x.irr!s}*sqrt({x.d})"
    if x.rat == 0:
        return irr_term
    if x.irr > 0:
        return f"{x.rat!s}+{irr_term}"
    return f"{x.rat!s}{irr_term}"
