"""Fits on Q checked by a decision procedure of their own.

On findim(1) every grammar set is a finite union of points and open gaps
between rational breakpoints.  After normalization the leaves are
intervals, half-spaces, bands and ideals (Q, or {0} for a zero generator),
solid hulls [-|g|, |g|] and translates of the last two by t.  So every
breakpoint is a sum +-u +- v of two of the set's numbers: its vector
coordinates, its half-space bounds and 0.  Membership is constant on each
gap between consecutive sums, and an open interval (a, b) lies in the set
exactly when every sum inside it, and the midpoint of every gap inside it,
is a member.
"""

import random
from fractions import Fraction

from ordertopo.carriers import Vec, findim
from ordertopo.ordersets import (
    Complement,
    HalfSpace,
    Intersection,
    IntervalSet,
    Translate,
    Union,
    collect_vectors,
    member,
    open_interval,
)
from ordertopo.topology import interval_fit, is_order_open, normalize_expr
from test_randomized_oracles import random_set

F = Fraction
Q = findim(1)


def bounds(expr):
    if isinstance(expr, HalfSpace):
        return {expr.bound}
    if isinstance(expr, (Complement, Translate)):
        return bounds(expr.inner)
    if isinstance(expr, (Union, Intersection)):
        return set().union(*map(bounds, expr.parts))
    return set()


def breakpoints(norm):
    """A sorted superset of the breakpoints of a normalized set on Q."""
    nums = {v.coord(1) for v in collect_vectors(norm)} | bounds(norm) | {F(0)}
    return sorted({u + s * v for u in nums | {-u for u in nums} for v in nums for s in (1, -1)})


def oracle_contains(norm, cuts, a, b):
    """Whether the open interval (a, b) of Q lies in the set."""
    inside = [c for c in cuts if a < c < b]
    ends = [a] + inside + [b]
    probes = inside + [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    return all(member(norm, Vec.fin([z])) for z in probes)


def check_fit(expr, z):
    """Fit at z and check the fit against the oracle; whether one was found."""
    try:
        fit = interval_fit(Vec.fin([z]), expr)
    except ValueError:  # the set is refuted open
        return False
    if fit is None:
        return False
    norm = normalize_expr(expr)
    lo, hi = fit.interval.lo.coord(1), fit.interval.hi.coord(1)
    assert oracle_contains(norm, breakpoints(norm), lo, hi), (expr, z, lo, hi)
    return True


def test_the_fit_between_two_open_gaps_avoids_their_common_end():
    # (-1, 1/3) u (1/3, 1) at 0: the interval must stop short of 1/3
    expr = Union((IntervalSet(open_interval(Vec.fin([-1]), Vec.fin([F(1, 3)]))),
                  IntervalSet(open_interval(Vec.fin([F(1, 3)]), Vec.fin([1])))))
    assert check_fit(expr, F(0))


ENDS = [F(n, 3) for n in range(-4, 5)]  # few ends, so open parts often share one


def random_cover(rng):
    """Two or three open parts that often meet only at a shared end."""
    parts = []
    for _ in range(rng.randint(2, 3)):
        lo, hi = sorted(rng.sample(ENDS, 2))
        parts.append(rng.choice([
            IntervalSet(open_interval(Vec.fin([lo]), Vec.fin([hi]))),
            Complement(HalfSpace(1, "le", lo)),
            Complement(HalfSpace(1, "ge", hi)),
        ]))
    return Union(tuple(parts))


def test_fits_on_q_agree_with_the_breakpoint_oracle():
    rng = random.Random(220001)
    fits = certified = 0
    for trial in range(300):
        if trial % 3 == 2:
            expr = random_cover(rng)
        else:
            expr = random_set(rng, Q, depth=rng.randint(1, 3))
        cuts = breakpoints(normalize_expr(expr))
        mids = [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
        points = [z for z in cuts + mids if member(expr, Vec.fin([z]))]
        if not points:
            continue
        certified += is_order_open(expr).status == "certified"
        for z in rng.sample(points, min(4, len(points))):
            fits += check_fit(expr, z)
    assert fits > 300 and certified > 15
