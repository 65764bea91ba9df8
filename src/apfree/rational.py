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


def decimal_str(x: Fraction, places: int = 12) -> str:
    """Truncating decimal rendering of x, computed without floats."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    n = abs(x.numerator)
    scaled = n * 10**places // x.denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def parse_point(parts: Iterable[str]) -> tuple[Fraction, ...]:
    return tuple(parse_rational(p) for p in parts)


def point_strs(p: Sequence[Fraction]) -> list[str]:
    return [rat_str(c) for c in p]
