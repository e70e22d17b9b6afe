"""Order intervals, a closed subset grammar, and structure procedures.

The grammar is deliberately closed: intervals, finitely generated ideals,
bands and solid hulls, coordinate half-spaces, the zero-tail ideal, and
boolean/affine combinations of those.  Membership is decidable everywhere;
solidity checking is three-valued with replayable refutation witnesses.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

from .carriers import (
    TAIL_SEQ,
    Carrier,
    CoordLabel,
    Vec,
    aligned,
    inf,
    leq,
    scale,
    strictly_below_partial,
    strictly_everywhere_below,
    zero,
)
from .rationals import rat
from .records import record

T = TypeVar("T")


class Semantics(Enum):
    """Meaning of the strict order "<" used by open intervals.

    STRICT_PARTIAL: a < z means a <= z and a != z (the lattice order, strict).
    STRICT_UNIFORM: a < z means strict inequality in every coordinate,
    tail included.
    """

    STRICT_PARTIAL = "strict-partial"
    STRICT_UNIFORM = "strict-uniform"


class IntervalKind(Enum):
    OPEN = "open"
    CLOSED = "closed"


@record
class Interval:
    lo: Vec
    hi: Vec
    kind: IntervalKind = IntervalKind.CLOSED
    semantics: Semantics = Semantics.STRICT_PARTIAL

    def __post_init__(self):
        if not leq(self.lo, self.hi):
            raise ValueError("interval endpoints must satisfy lo <= hi")
        if self.kind is IntervalKind.OPEN:
            if self.semantics is Semantics.STRICT_PARTIAL:
                if self.lo == self.hi:
                    raise ValueError("open interval needs lo strictly below hi")
            else:
                if not strictly_everywhere_below(self.lo, self.hi):
                    raise ValueError(
                        "open interval is empty under strict-uniform semantics"
                    )

    @property
    def carrier(self) -> Carrier:
        return self.lo.carrier

    def width(self) -> Vec:
        return self.hi - self.lo


def closed_interval(lo: Vec, hi: Vec,
                    semantics: Semantics = Semantics.STRICT_PARTIAL) -> Interval:
    return Interval(lo, hi, IntervalKind.CLOSED, semantics)


def open_interval(lo: Vec, hi: Vec,
                  semantics: Semantics = Semantics.STRICT_PARTIAL) -> Interval:
    return Interval(lo, hi, IntervalKind.OPEN, semantics)


def dilate_interval(iv: Interval, t: Fraction) -> Interval:
    """The image t*[lo, hi] of the interval under x -> t*x, t != 0."""
    lo, hi = scale(t, iv.lo), scale(t, iv.hi)
    if t < 0:
        lo, hi = hi, lo
    return Interval(lo, hi, iv.kind, iv.semantics)


def strictly_below(x: Vec, y: Vec, semantics: Semantics) -> bool:
    if semantics is Semantics.STRICT_PARTIAL:
        return strictly_below_partial(x, y)
    return strictly_everywhere_below(x, y)


def interval_contains(iv: Interval, z: Vec) -> bool:
    if iv.kind is IntervalKind.CLOSED:
        return leq(iv.lo, z) and leq(z, iv.hi)
    return strictly_below(iv.lo, z, iv.semantics) and strictly_below(z, iv.hi, iv.semantics)


# -- the set-expression grammar ----------------------------------------------


class SetExpr:
    """Base class; the constructors below are the whole grammar."""

    __slots__ = ()


@record
class IntervalSet(SetExpr):
    interval: Interval


@record
class Ideal(SetExpr):
    gens: tuple[Vec, ...]

    def __post_init__(self):
        if not self.gens:
            raise ValueError("ideal needs at least one generator")


@record
class Band(SetExpr):
    gens: tuple[Vec, ...]

    def __post_init__(self):
        if not self.gens:
            raise ValueError("band needs at least one generator")


@record
class SolidHull(SetExpr):
    gens: tuple[Vec, ...]

    def __post_init__(self):
        if not self.gens:
            raise ValueError("solid hull needs at least one generator")


@record
class HalfSpace(SetExpr):
    """{z : z_coord <= bound} or {z : z_coord >= bound}; coord may be "tail"."""

    coord: CoordLabel
    relation: str  # "le" | "ge"
    bound: Fraction

    def __post_init__(self):
        if self.relation not in ("le", "ge"):
            raise ValueError("half-space relation must be 'le' or 'ge'")
        if self.coord != "tail" and (not isinstance(self.coord, int) or self.coord < 1):
            raise ValueError("half-space coordinate must be a 1-based index or 'tail'")
        object.__setattr__(self, "bound", rat(self.bound))


@record
class TailZero(SetExpr):
    """Sequences whose constant tail is zero (an ideal, not a band)."""


@record
class Complement(SetExpr):
    inner: SetExpr


@record
class Union(SetExpr):
    parts: tuple[SetExpr, ...]


@record
class Intersection(SetExpr):
    parts: tuple[SetExpr, ...]


@record
class Translate(SetExpr):
    inner: SetExpr
    by: Vec


@record
class Dilate(SetExpr):
    inner: SetExpr
    factor: Fraction

    def __post_init__(self):
        object.__setattr__(self, "factor", rat(self.factor))
        if self.factor == 0:
            raise ValueError("dilation factor must be nonzero")


def member(expr: SetExpr, z: Vec) -> bool:
    """Exact membership by structural recursion."""
    if isinstance(expr, IntervalSet):
        return interval_contains(expr.interval, z)
    if isinstance(expr, Ideal):
        return ideal_member(expr.gens, z)[0]
    if isinstance(expr, Band):
        return band_member(expr.gens, z)
    if isinstance(expr, SolidHull):
        return solid_hull_member(expr.gens, z)
    if isinstance(expr, HalfSpace):
        value = z.at(expr.coord)
        return value <= expr.bound if expr.relation == "le" else value >= expr.bound
    if isinstance(expr, TailZero):
        if z.carrier != TAIL_SEQ:
            raise ValueError("tail-zero only makes sense in the tailseq carrier")
        return z.tail == 0
    if isinstance(expr, Complement):
        return not member(expr.inner, z)
    if isinstance(expr, Union):
        return any(member(p, z) for p in expr.parts)
    if isinstance(expr, Intersection):
        return all(member(p, z) for p in expr.parts)
    if isinstance(expr, Translate):
        return member(expr.inner, z - expr.by)
    if isinstance(expr, Dilate):
        return member(expr.inner, scale(1 / expr.factor, z))
    raise TypeError(f"not a set expression: {expr!r}")


def collect_vectors(expr: SetExpr) -> tuple[Vec, ...]:
    """Every vector embedded in the expression, in syntactic order."""
    out: list[Vec] = []

    def walk(e: SetExpr) -> None:
        if isinstance(e, IntervalSet):
            out.extend((e.interval.lo, e.interval.hi))
        elif isinstance(e, (Ideal, Band, SolidHull)):
            out.extend(e.gens)
        elif isinstance(e, Complement):
            walk(e.inner)
        elif isinstance(e, (Union, Intersection)):
            for p in e.parts:
                walk(p)
        elif isinstance(e, Translate):
            walk(e.inner)
            out.append(e.by)
        elif isinstance(e, Dilate):
            walk(e.inner)

    walk(expr)
    return tuple(out)


def carrier_of(expr: SetExpr) -> Optional[Carrier]:
    """The shared carrier of all embedded vectors (None if there are none)."""
    vecs = collect_vectors(expr)
    if not vecs:
        return TAIL_SEQ if "tail" in named_coords(expr) else None
    carrier = vecs[0].carrier
    for v in vecs[1:]:
        if v.carrier != carrier:
            raise ValueError("set expression mixes carriers")
    return carrier


def named_coords(expr: SetExpr) -> set[CoordLabel]:
    """The coordinates the half-spaces name, and "tail" if a tail-zero occurs."""
    if isinstance(expr, TailZero):
        return {"tail"}
    if isinstance(expr, HalfSpace):
        return {expr.coord}
    if isinstance(expr, Complement):
        return named_coords(expr.inner)
    if isinstance(expr, (Union, Intersection)):
        return set().union(*map(named_coords, expr.parts))
    if isinstance(expr, (Translate, Dilate)):
        return named_coords(expr.inner)
    return set()


# -- ideals, bands, hulls ------------------------------------------------------


def _abs_sum(gens: Sequence[Vec]) -> Vec:
    total = abs(gens[0])
    for g in gens[1:]:
        total = total + abs(g)
    return total


def ideal_member(gens: Sequence[Vec], y: Vec) -> tuple[bool, Optional[Fraction]]:
    """Membership in the ideal generated by ``gens``.

    y belongs iff |y| <= lam * (|g1| + ... + |gm|) for some rational lam > 0.
    Returns the smallest lam >= 0 achieving the bound (0 exactly for y = 0).
    """
    if not gens:
        raise ValueError("ideal needs at least one generator")
    s = _abs_sum(gens)
    ay = abs(y)
    ys, ss = aligned(ay, s)
    best = Fraction(0)
    for yv, sv in zip(ys, ss):
        if sv == 0:
            if yv != 0:
                return False, None
        else:
            best = max(best, yv / sv)
    if y.carrier.kind == "tailseq":
        if s.tail == 0:
            if ay.tail != 0:
                return False, None
        else:
            best = max(best, ay.tail / s.tail)  # type: ignore[operator]
    return True, best


def support_horizon(vecs: Sequence[Vec]) -> int:
    """Prefix length past which every listed vector equals its tail."""
    if vecs and vecs[0].carrier.kind == "findim":
        return vecs[0].carrier.dim
    return max((v.prefix_len for v in vecs), default=0)


def band_member(gens: Sequence[Vec], y: Vec) -> bool:
    """Membership in the band generated by ``gens`` (support rule).

    y belongs iff it vanishes at every position, tail included, where all
    generators vanish.
    """
    if not gens:
        raise ValueError("band needs at least one generator")
    horizon = support_horizon(list(gens) + [y])
    for p in range(1, horizon + 1):
        if y.coord(p) != 0 and all(g.coord(p) == 0 for g in gens):
            return False
    if y.carrier.kind == "tailseq":
        if y.tail != 0 and all(g.tail == 0 for g in gens):
            return False
    return True


def solid_hull_member(gens: Sequence[Vec], y: Vec) -> bool:
    """y belongs to the solid hull iff |y| <= |g| for some generator g."""
    if not gens:
        raise ValueError("solid hull needs at least one generator")
    ay = abs(y)
    return any(leq(ay, abs(g)) for g in gens)


def disjoint(x: Vec, y: Vec) -> bool:
    """|x| ^ |y| = 0."""
    return inf(abs(x), abs(y)).is_zero()


# -- atoms ---------------------------------------------------------------------


def is_atom(x: Vec) -> bool:
    """Positive x is an atom iff exactly one coordinate is nonzero.

    A nonzero tail stands for infinitely many nonzero coordinates, so such
    vectors are never atoms.  Equivalent to: no two disjoint nonzero
    elements fit below x.
    """
    if not leq(zero(x.carrier), x):
        raise ValueError("atoms are sought among positive vectors only")
    if x.is_zero():
        raise ValueError("the zero vector is not eligible")
    if x.carrier.kind == "tailseq" and x.tail != 0:
        return False
    return sum(1 for c in x.coords if c != 0) == 1


# -- solidity ------------------------------------------------------------------


@record
class SolidityVerdict:
    status: str  # "certified" | "refuted" | "unknown"
    rule_trace: tuple[str, ...] = ()
    witness: Optional[tuple[Vec, Vec]] = None  # (x in S, y with |y| <= |x| outside S)
    searched: int = 0


def _solid_rules(expr: SetExpr) -> Optional[list[str]]:
    if isinstance(expr, (Ideal, TailZero)):
        return ["ideal-is-solid"]
    if isinstance(expr, Band):
        return ["band-is-solid"]
    if isinstance(expr, SolidHull):
        return ["solid-hull-is-solid"]
    if isinstance(expr, IntervalSet):
        iv = expr.interval
        if iv.lo == -iv.hi:
            if iv.kind is IntervalKind.CLOSED:
                return ["symmetric-closed-interval"]
            if iv.semantics is Semantics.STRICT_UNIFORM:
                return ["symmetric-open-interval-uniform"]
            if len(_support(iv.hi)) <= 1:
                return ["symmetric-open-interval-one-position"]
        return None
    if isinstance(expr, Union):
        return _all_parts(expr.parts, _solid_rules, ["union-of-solid"])
    if isinstance(expr, Intersection):
        return _all_parts(expr.parts, _solid_rules, ["intersection-of-solid"])
    if isinstance(expr, Dilate):
        sub = _solid_rules(expr.inner)
        return ["dilate-of-solid"] + sub if sub is not None else None
    return None


def _support(u: Vec) -> list[int]:
    """The nonzero positions of u; a nonzero tail stands in by its first two."""
    nonzero = [j for j, a in enumerate(u.coords, 1) if a]
    if u.tail:
        nonzero += [len(u.coords) + 1, len(u.coords) + 2]
    return nonzero


def _peel_dilates(expr: SetExpr) -> SetExpr:
    """An interval under ``Dilate`` layers as the one dilated interval; any
    other expression as it is."""
    t, inner = Fraction(1), expr
    while isinstance(inner, Dilate):
        t, inner = t * inner.factor, inner.inner
    if not isinstance(inner, IntervalSet):
        return expr
    return inner if t == 1 else IntervalSet(dilate_interval(inner.interval, t))


def _open_box_witness(u: Vec) -> tuple[Vec, Vec]:
    """The pair refuting solidity of the strict-partial open interval (-u, u).

    Solidity of (-u, u) is decided in closed form: it is solid iff u has at
    most one nonzero position, a nonzero tail counting as infinitely many.
    A member z satisfies -u <= z <= u, z != -u and z != u.

    * If u = a*e_j (a > 0, as u != 0 in an open interval), the members are
      the s*e_j with |s| < a.  For a member x and |y| <= |x|, y vanishes off
      position j and |y_j| <= |x_j| < a, so y is a member: solid.
    * If u_i and u_j are nonzero, i < j, let x be u with u_i negated.  Then
      -u <= x <= u, and x differs from u at i and from -u at j, so x is a
      member; y = u is not, and |y| = |u| = |x|: refuted by (x, u).
    """
    i = _support(u)[0]
    coords = [u.coord(k) for k in range(1, max(i, len(u.coords)) + 1)]
    coords[i - 1] = -coords[i - 1]
    return Vec(u.carrier, tuple(coords), u.tail), u


def _all_parts(parts: Sequence[SetExpr], rules: Callable[[SetExpr], Optional[list[str]]],
               trace: list[str]) -> Optional[list[str]]:
    """``trace`` followed by every part's rule trace; None if a part has none."""
    for p in parts:
        sub = rules(p)
        if sub is None:
            return None
        trace.extend(sub)
    return trace


GRID_VALUES = tuple(  # small magnitudes first
    rat(v) for v in (0, Fraction(-1, 2), Fraction(1, 2), -1, 1, -2, 2)
)
GRID_PREFIX_LEN = 2  # longest tailseq prefix on the probe grid
GRID_LIMIT = 4096  # most probe vectors on one grid


# More slots than the carriers a run cycles through: an LRU cache smaller
# than that cycle misses on every call.  At most 8 * GRID_LIMIT vectors.
@functools.lru_cache(maxsize=8)
def grid_vectors(carrier: Carrier) -> tuple[Vec, ...]:
    """A deterministic grid of probe vectors, small magnitudes first.

    Built once per carrier; a tuple, so no caller can change the shared copy.
    """
    if carrier.kind == "findim":
        vecs = (Vec(carrier, combo)
                for combo in itertools.product(GRID_VALUES, repeat=carrier.dim))
    else:
        vecs = (Vec(carrier, combo, tail)
                for plen in range(GRID_PREFIX_LEN + 1)
                for tail in GRID_VALUES
                for combo in itertools.product(GRID_VALUES, repeat=plen))
    return tuple(_dedup(itertools.islice(vecs, GRID_LIMIT)))


def _dedup(items: Iterable[T]) -> list[T]:
    """The items in first-seen order, each once."""
    seen = set()
    out = []
    for v in items:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _lazy_map(fn: Callable, items: Sequence) -> Callable[[int], object]:
    """``i -> fn(items[i])``, each computed on first use and at most once.

    ``fn`` must never return None, which marks an index not yet computed.
    """
    done: list = [None] * len(items)

    def at(i: int):
        got = done[i]
        if got is None:
            got = done[i] = fn(items[i])
        return got

    return at


MAX_SOLID_PAIRS = 200_000  # (x, y) probe pairs tried before giving up


def check_solid(expr: SetExpr) -> SolidityVerdict:
    """Three-valued solidity check.

    Certified by structural rules; refuted by a witness pair (x in S,
    |y| <= |x|, y outside S), found in closed form for an open interval
    (-u, u) under any ``Dilate`` layers and by a grid search otherwise; else
    unknown.
    """
    trace = _solid_rules(expr)
    if trace is not None:
        return SolidityVerdict("certified", tuple(trace))
    box = _peel_dilates(expr)
    if isinstance(box, IntervalSet) and box.interval.lo == -box.interval.hi:
        # the rules certify every other symmetric interval, dilated or not
        return SolidityVerdict("refuted", witness=_open_box_witness(box.interval.hi))
    carrier = carrier_of(expr)
    if carrier is None:
        return SolidityVerdict("unknown")
    probes = grid_vectors(carrier)
    inside = _lazy_map(lambda p: member(expr, p), probes)
    size = _lazy_map(abs, probes)
    tried = 0
    for i, x in enumerate(probes):
        if not inside(i):
            continue
        ax = size(i)
        for j, y in enumerate(probes):
            tried += 1
            if tried > MAX_SOLID_PAIRS:
                return SolidityVerdict("unknown", searched=tried - 1)
            if leq(size(j), ax) and not inside(j):
                return SolidityVerdict("refuted", witness=(x, y), searched=tried)
    return SolidityVerdict("unknown", searched=tried)
