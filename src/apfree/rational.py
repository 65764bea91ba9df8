"""Exact rational plumbing: parsing and rendering.

Every rational quantity in this package is a ``fractions.Fraction`` or
an exact integer numerator over a known denominator.  No computation
anywhere uses floats; decimal renderings are produced by integer long
division and are for display only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" (or plain integer) string into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid rational: {text!r}") from exc


def rat_str(x: Fraction) -> str:
    """Canonical "p/q" rendering (lowest terms; "p" when q == 1)."""
    return str(Fraction(x))


# the digits after the point that decimal_str prints
_PLACES = 12


def decimal_str(x: Fraction) -> str:
    """Truncating decimal rendering of x, computed without floats."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    n = abs(x.numerator)
    scaled = n * 10**_PLACES // x.denominator
    digits = str(scaled).rjust(_PLACES + 1, "0")
    return f"{sign}{digits[:-_PLACES]}.{digits[-_PLACES:]}"


def parse_point(parts: Iterable[str]) -> tuple[Fraction, ...]:
    return tuple(parse_rational(p) for p in parts)


def point_strs(p: Sequence[Fraction]) -> list[str]:
    return [rat_str(c) for c in p]
