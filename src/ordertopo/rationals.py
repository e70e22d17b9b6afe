"""Exact rational scalars.

Every number in this package is a ``fractions.Fraction``: stored in lowest
terms with a positive denominator, backed by arbitrary-precision integers.
Nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction

ZERO = Fraction(0)


def rat(num, den=None) -> Fraction:
    """Build an exact rational from ints, a Fraction, or a "p/q" string."""
    if den is not None:
        return Fraction(num, den)
    if isinstance(num, str):
        return parse_rat(num)
    if isinstance(num, Fraction):
        return num
    if isinstance(num, int):
        return Fraction(num)
    raise TypeError(f"not an exact rational: {num!r}")


def parse_rat(text: str) -> Fraction:
    """Parse the wire form "p/q" (or "p" when the denominator is 1)."""
    body = text.strip()
    if "/" in body:
        num, _, den = body.partition("/")
        q = int(den)
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), q)
    return Fraction(int(body))


def format_rat(x: Fraction) -> str:
    """Render the wire form: "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def floor_frac(x: Fraction) -> int:
    """Largest integer <= x."""
    return x.numerator // x.denominator
