"""Lattice carriers and their vectors.

Two executable carriers:

* ``findim(n)`` -- rational n-tuples under the coordinatewise order.
* ``TAIL_SEQ`` -- sequences with a finite prefix followed by a constant
  tail, written (p1, ..., pm, t, t, t, ...).  This is a sublattice of the
  bounded sequences, big enough to hold every vector the counterexample
  machinery needs.

Vectors are immutable and always canonical: a tail-sequence prefix never
ends with an entry equal to the tail.  All operations are exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Union

from .rationals import ZERO, format_rat, rat
from .records import record

CoordLabel = Union[int, str]  # 1-based position, or "tail"


class CarrierMismatch(ValueError):
    """An operation mixed vectors from different carriers."""


@record
class Carrier:
    kind: str  # "findim" | "tailseq"
    dim: int = 0  # coordinate count for findim, 0 otherwise

    def __str__(self) -> str:
        return f"Q^{self.dim}" if self.kind == "findim" else "tailseq"


def findim(n: int) -> Carrier:
    if n < 1:
        raise ValueError("finite-dimensional carrier needs dimension >= 1")
    return Carrier("findim", n)


TAIL_SEQ = Carrier("tailseq", 0)


@record
class Vec:
    """An exact vector of one of the two carriers.

    For findim, ``coords`` holds all coordinates and ``tail`` is None.
    For tailseq, ``coords`` is the prefix and ``tail`` the constant value
    taken from position len(coords)+1 on.
    """

    carrier: Carrier
    coords: tuple[Fraction, ...]
    tail: Fraction | None = None

    def __post_init__(self):
        if self.carrier.kind == "findim":
            if self.tail is not None:
                raise ValueError("findim vectors carry no tail")
            if len(self.coords) != self.carrier.dim:
                raise ValueError(
                    f"expected {self.carrier.dim} coordinates, got {len(self.coords)}"
                )
        else:
            if self.tail is None:
                raise ValueError("tailseq vectors need a tail value")
            coords, tail = self.coords, self.tail
            n = len(coords)
            while n and coords[n - 1] == tail:
                n -= 1
            if n != len(coords):
                object.__setattr__(self, "coords", coords[:n])

    def __str__(self) -> str:
        """The text form: "(1, 1/2)" on findim, "(1; tail 0)" on tailseq."""
        coords = ", ".join(map(format_rat, self.coords))
        if self.tail is None:
            return f"({coords})"
        return f"({coords}{'; ' if coords else ''}tail {format_rat(self.tail)})"

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def fin(values: Iterable) -> "Vec":
        vals = tuple(rat(v) for v in values)
        return Vec(findim(len(vals)), vals)

    @staticmethod
    def seq(prefix: Iterable, tail) -> "Vec":
        return Vec(TAIL_SEQ, tuple(rat(v) for v in prefix), rat(tail))

    # -- coordinate access ---------------------------------------------------

    def coord(self, j: int) -> Fraction:
        """Value at 1-based position j (beyond the prefix: the tail)."""
        if j < 1:
            raise IndexError("positions are 1-based")
        if self.carrier.kind == "findim":
            if j > self.carrier.dim:
                raise IndexError(f"position {j} outside {self.carrier}")
            return self.coords[j - 1]
        if j <= len(self.coords):
            return self.coords[j - 1]
        return self.tail  # type: ignore[return-value]

    def at(self, label: CoordLabel) -> Fraction:
        if label == "tail":
            if self.tail is None:
                raise ValueError("findim vectors have no tail coordinate")
            return self.tail
        return self.coord(label)  # type: ignore[arg-type]

    @property
    def prefix_len(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords) and (self.tail is None or self.tail == 0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Vec") -> "Vec":
        return _zip_with(self, other, operator.add)

    def __sub__(self, other: "Vec") -> "Vec":
        return _zip_with(self, other, operator.sub)

    def __neg__(self) -> "Vec":
        return self.map(operator.neg)

    def __mul__(self, t) -> "Vec":
        return self.map(rat(t).__mul__)

    __rmul__ = __mul__

    def __abs__(self) -> "Vec":
        return self.map(abs)

    def map(self, fn) -> "Vec":
        if self.tail is None:
            return Vec(self.carrier, tuple(map(fn, self.coords)))
        return Vec(self.carrier, tuple(map(fn, self.coords)), fn(self.tail))


def _require_same_carrier(x: Vec, y: Vec) -> None:
    if x.carrier != y.carrier:
        raise CarrierMismatch(f"carriers differ: {x.carrier} vs {y.carrier}")


def _padded(v: Vec, n: int) -> tuple[Fraction, ...]:
    """The first n positions of a tailseq vector (its prefix, then its tail)."""
    return v.coords + (v.tail,) * (n - len(v.coords))  # type: ignore[operator]


def aligned(x: Vec, y: Vec, with_tail: bool = False
            ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Coordinate lists of equal length (tailseq prefixes padded with tails).

    ``with_tail`` pads one position further, so that the lists end with the
    tails and hold every position the order compares.
    """
    if x.carrier is not y.carrier:
        _require_same_carrier(x, y)
    if x.tail is None:
        return x.coords, y.coords
    n = max(len(x.coords), len(y.coords)) + (1 if with_tail else 0)
    return _padded(x, n), _padded(y, n)


def _zip_with(x: Vec, y: Vec, fn) -> Vec:
    xs, ys = aligned(x, y)
    coords = tuple(map(fn, xs, ys))
    if x.tail is None:
        return Vec(x.carrier, coords)
    return Vec(x.carrier, coords, fn(x.tail, y.tail))


# -- the lattice operations --------------------------------------------------


# The order tests compare rationals by integer cross-products, skipping the
# Fraction operator dispatch: a <= b iff a.num * b.den <= b.num * a.den,
# exact because a Fraction's denominator is positive.


def leq(x: Vec, y: Vec) -> bool:
    """Coordinatewise order (tail position included for tailseq)."""
    xs, ys = aligned(x, y, with_tail=True)
    for a, b in zip(xs, ys):
        if a.numerator * b.denominator > b.numerator * a.denominator:
            return False
    return True


def strictly_below_partial(x: Vec, y: Vec) -> bool:
    """x <= y and x != y in one pass: <= everywhere, < somewhere, tail included."""
    xs, ys = aligned(x, y, with_tail=True)
    below = False
    for a, b in zip(xs, ys):
        lhs, rhs = a.numerator * b.denominator, b.numerator * a.denominator
        if lhs > rhs:
            return False
        if lhs < rhs:
            below = True
    return below


def strictly_everywhere_below(x: Vec, y: Vec) -> bool:
    """x < y in every coordinate, tail included."""
    xs, ys = aligned(x, y, with_tail=True)
    for a, b in zip(xs, ys):
        if a.numerator * b.denominator >= b.numerator * a.denominator:
            return False
    return True


def within(v: Vec, c: Vec, r: Vec) -> bool:
    """|v - c| <= r coordinatewise, tail included; no vector is built.

    Per position, |a - b| <= e is |a.num*b.den - b.num*a.den| * e.den <=
    e.num * a.den * b.den, with every denominator positive.
    """
    for u in (c, r):
        if u.carrier is not v.carrier:
            _require_same_carrier(v, u)
    vs, cs, rs = v.coords, c.coords, r.coords
    if v.tail is not None:
        n = max(len(vs), len(cs), len(rs)) + 1
        vs, cs, rs = _padded(v, n), _padded(c, n), _padded(r, n)
    for a, b, e in zip(vs, cs, rs):
        ad, bd = a.denominator, b.denominator
        if abs(a.numerator * bd - b.numerator * ad) * e.denominator > e.numerator * ad * bd:
            return False
    return True


def add_scaled(c: Vec, t: Fraction, p: Vec) -> Vec:
    """c + t*p in one pass, tail included; where p is zero, c's own value is kept.

    Elsewhere a + t*b is (a.num*t.den*b.den + t.num*b.num*a.den) /
    (a.den*t.den*b.den), computed in integers and normalized once by
    ``Fraction(n, d)``, without the Fraction operators' dispatch.
    """
    cs, ps = aligned(c, p, with_tail=True)
    tn, td = t.numerator, t.denominator
    out = []
    for a, b in zip(cs, ps):
        if b:
            ad, bd = a.denominator, td * b.denominator
            a = Fraction(a.numerator * bd + tn * b.numerator * ad, ad * bd)
        out.append(a)
    if c.tail is None:
        return Vec(c.carrier, tuple(out))
    return Vec(c.carrier, tuple(out[:-1]), out[-1])


def sup(x: Vec, y: Vec) -> Vec:
    return _zip_with(x, y, max)


def inf(x: Vec, y: Vec) -> Vec:
    return _zip_with(x, y, min)


def add(x: Vec, y: Vec) -> Vec:
    return x + y


def scale(t, x: Vec) -> Vec:
    return x * rat(t)


def pos(x: Vec) -> Vec:
    """Positive part x v 0."""
    return sup(x, zero(x.carrier))


def neg(x: Vec) -> Vec:
    """Negative part (-x) v 0."""
    return sup(-x, zero(x.carrier))


# -- distinguished vectors ---------------------------------------------------


def zero(carrier: Carrier) -> Vec:
    if carrier.kind == "findim":
        return Vec(carrier, (ZERO,) * carrier.dim)
    return Vec(carrier, (), ZERO)


def ones(carrier: Carrier) -> Vec:
    """The all-ones vector: the natural strong unit of both carriers."""
    return constant(carrier, 1)


def constant(carrier: Carrier, value) -> Vec:
    v = rat(value)
    if carrier.kind == "findim":
        return Vec(carrier, (v,) * carrier.dim)
    return Vec(carrier, (), v)


def unit(carrier: Carrier, j: int) -> Vec:
    """Standard unit vector e_j (1-based)."""
    if j < 1:
        raise IndexError("positions are 1-based")
    if carrier.kind == "findim":
        if j > carrier.dim:
            raise IndexError(f"position {j} outside {carrier}")
        coords = tuple(rat(1) if i == j - 1 else ZERO for i in range(carrier.dim))
        return Vec(carrier, coords)
    return Vec(carrier, (ZERO,) * (j - 1) + (rat(1),), ZERO)
