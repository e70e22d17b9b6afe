"""Interval containment by the lattice operations agrees with the old scan.

``topology._interval_contained`` decides each set shape with ``leq``,
``sup``, ``inf`` and ``member``.  The coordinate scans it replaced are kept
below as references.  Wherever a reference decides, the two must agree;
the new rules may only decide more, and only for the complement of a closed
box, ideal, band, tail-zero ideal, solid hull or translate of one.  Each
refusal of those, and each refusal of a strict-uniform interval by a
strict-uniform target, names a point of the interval outside the set; each
acceptance is checked on a lattice of points of the interval.
"""

import itertools
import random
from fractions import Fraction

import pytest

from ordertopo.carriers import (
    TAIL_SEQ,
    Vec,
    aligned,
    findim,
    inf,
    leq,
    ones,
    scale,
    strictly_everywhere_below,
    sup,
    zero,
)
from ordertopo.ordersets import (
    Band,
    Complement,
    HalfSpace,
    Ideal,
    Intersection,
    Interval,
    IntervalKind,
    IntervalSet,
    Semantics,
    SolidHull,
    TailZero,
    Translate,
    Union,
    collect_vectors,
    interval_contains,
    member,
    open_interval,
    strictly_below,
    support_horizon,
)
from ordertopo.topology import (
    _interval_contained,
    _meets_box,
    _pinned_ends,
    interval_fit,
    normalize_expr,
)
from randvec import rand_rat, rand_vec
from test_randomized_oracles import random_set

F = Fraction
CARRIERS = [findim(1), findim(2), findim(3), TAIL_SEQ]


def reference_contained(iv, expr):
    a, b = iv.lo, iv.hi
    single = a.carrier.kind == "findim" and a.carrier.dim == 1
    if isinstance(expr, Intersection):
        if not expr.parts:
            return True
        results = [reference_contained(iv, p) for p in expr.parts]
        if any(r is False for r in results):
            return False
        if all(r is True for r in results):
            return True
        return None
    if isinstance(expr, Union):
        if not expr.parts:
            return False
        if any(reference_contained(iv, p) is True for p in expr.parts):
            return True
        return None
    if isinstance(expr, IntervalSet):
        target = expr.interval
        if target.kind is IntervalKind.CLOSED:
            return leq(target.lo, a) and leq(b, target.hi)
        if target.semantics is Semantics.STRICT_PARTIAL:
            return leq(target.lo, a) and leq(b, target.hi)
        if iv.semantics is Semantics.STRICT_UNIFORM:
            # both are products of open coordinate intervals, tail included
            return leq(target.lo, a) and leq(b, target.hi)
        if strictly_everywhere_below(target.lo, a) and strictly_everywhere_below(b, target.hi):
            return True
        return None
    if isinstance(expr, HalfSpace):
        if expr.relation == "le":
            return b.at(expr.coord) <= expr.bound
        return a.at(expr.coord) >= expr.bound
    if isinstance(expr, Complement):
        inner = expr.inner
        if isinstance(inner, HalfSpace):
            if inner.relation == "le":
                edge = a.at(inner.coord)
                return edge > inner.bound or (single and edge == inner.bound)
            edge = b.at(inner.coord)
            return edge < inner.bound or (single and edge == inner.bound)
        if isinstance(inner, IntervalSet) and inner.interval.kind is IntervalKind.CLOSED:
            lo, hi = inner.interval.lo, inner.interval.hi
            if reference_boxes_disjoint(a, b, lo, hi):
                return True
            return None
        return None
    if isinstance(expr, (Ideal, Band)):
        return reference_contained_in_support(a, b, expr.gens)
    if isinstance(expr, TailZero):
        return a.tail == 0 and b.tail == 0
    if isinstance(expr, SolidHull):
        for g in expr.gens:
            ag = abs(g)
            if leq(-ag, a) and leq(b, ag):
                return True
        return None
    if isinstance(expr, Translate):
        shifted = Interval(a - expr.by, b - expr.by, iv.kind, iv.semantics)
        return reference_contained(shifted, expr.inner)
    return None


def reference_boxes_disjoint(a, b, lo, hi):
    bs, los = aligned(b, lo)
    if any(bv < lv for bv, lv in zip(bs, los)):
        return True
    as_, his = aligned(a, hi)
    if any(av > hv for av, hv in zip(as_, his)):
        return True
    if a.carrier.kind == "tailseq":
        if b.tail < lo.tail or a.tail > hi.tail:
            return True
    return False


def reference_contained_in_support(a, b, gens):
    width = support_horizon(list(gens) + [a, b])
    for p in range(1, width + 1):
        if all(g.coord(p) == 0 for g in gens):
            if a.coord(p) != 0 or b.coord(p) != 0:
                return False
    if a.carrier.kind == "tailseq" and all(g.tail == 0 for g in gens):
        if a.tail != 0 or b.tail != 0:
            return False
    return True


def interval_lattice(iv, min_count):
    """A deterministic rational lattice of points of the open interval."""
    a, b = iv.lo, iv.hi
    if a.carrier.kind == "findim":
        axes = [(a.coord(j), b.coord(j)) for j in range(1, a.carrier.dim + 1)]
    else:
        width = max(a.prefix_len, b.prefix_len) + 1
        axes = [(a.coord(j), b.coord(j)) for j in range(1, width + 1)]
        axes.append((a.tail, b.tail))
    m = 2
    while m ** len(axes) < min_count + 2:
        m += 1
    steps = [[lo + (hi - lo) * F(i, m - 1) for i in range(m)] if lo != hi else [lo]
             for lo, hi in axes]
    for combo in itertools.product(*steps):
        if a.carrier.kind == "findim":
            z = Vec(a.carrier, tuple(combo))
        else:
            z = Vec(a.carrier, tuple(combo[:-1]), combo[-1])
        if interval_contains(iv, z):
            yield z


def shifted(iv, by):
    return Interval(iv.lo - by, iv.hi - by, iv.kind, iv.semantics)


def escape_point(iv, expr):
    """A point of the interval outside the set that ``_interval_contained``
    refuses, or None where no refusing part is one built here: a
    strict-uniform interval refused by a strict-uniform target, or a closed
    box inside a complemented leaf (the leaf itself, a box of a solid hull
    or a subspace's pinned box), translated or not."""
    if isinstance(expr, Intersection):
        points = (escape_point(iv, p) for p in expr.parts
                  if _interval_contained(iv, p) is False)
        return next((z for z in points if z is not None), None)
    if isinstance(expr, Translate):
        z = escape_point(shifted(iv, expr.by), expr.inner)
        return None if z is None else z + expr.by
    if isinstance(expr, IntervalSet):
        target = expr.interval
        uniform = iv.semantics is target.semantics is Semantics.STRICT_UNIFORM
        return uniform_escape(iv, target) if uniform and target.kind is IntervalKind.OPEN else None
    if not isinstance(expr, Complement):
        return None
    leaf = expr.inner
    if isinstance(leaf, Translate):
        return escape_point(shifted(iv, leaf.by), Complement(leaf.inner)) + leaf.by
    if isinstance(leaf, IntervalSet):
        assert leaf.interval.kind is IntervalKind.CLOSED
        boxes = [(leaf.interval.lo, leaf.interval.hi)]
    elif isinstance(leaf, SolidHull):
        boxes = [(-abs(g), abs(g)) for g in leaf.gens]
    elif isinstance(leaf, (Ideal, Band, TailZero)):
        boxes = [_pinned_ends(iv, leaf)]
    else:
        return None
    lo, hi = next(box for box in boxes if _meets_box(iv, *box))
    p, q = sup(iv.lo, lo), inf(iv.hi, hi)
    return p if p == q else scale(F(1, 2), p + q)


def uniform_escape(iv, target):
    """A point of the strict-uniform interval (a, b) outside the
    strict-uniform target (lo, hi): at a position, or the tail, where a < lo
    or hi < b, a value of (a, b) past the target's end; midpoints elsewhere."""
    a, b, lo, hi = iv.lo, iv.hi, target.lo, target.hi
    mid = scale(F(1, 2), a + b)
    if a.carrier.kind == "findim":
        width = a.carrier.dim
    else:
        width = max(v.prefix_len for v in (a, b, lo, hi))
    coords = [mid.coord(p) for p in range(1, width + 1)]
    tail = mid.tail
    ends = [(a.coord(p), b.coord(p), lo.coord(p), hi.coord(p)) for p in range(1, width + 1)]
    if tail is not None:
        ends.append((a.tail, b.tail, lo.tail, hi.tail))
    pos, (ap, bp, lop, hip) = next((pos, e) for pos, e in enumerate(ends)
                                   if e[0] < e[2] or e[3] < e[1])
    past = (ap + min(bp, lop)) / 2 if ap < lop else (max(ap, hip) + bp) / 2
    if pos < width:
        coords[pos] = past
    else:
        tail = past
    return Vec(a.carrier, tuple(coords), tail)


def random_interval(rng, carrier, semantics, anchors):
    # anchoring an end at a vector of the set makes touching boxes common
    if anchors and rng.random() < 0.4:
        a = rng.choice(anchors)
    else:
        a = rand_vec(rng, carrier, max_den=4, max_prefix=2)
    width = abs(rand_vec(rng, carrier, max_den=2, max_prefix=2))
    if semantics is Semantics.STRICT_UNIFORM:
        width = width + scale(F(1, rng.randint(1, 4)), ones(carrier))
    elif width.is_zero():
        width = ones(carrier)
    if anchors and rng.random() < 0.3:
        # or the upper end at one, when that leaves a nonempty interval
        b = rng.choice(anchors)
        if strictly_below(a, b, semantics):
            return open_interval(a, b, semantics)
    return open_interval(a, a + width, semantics)


def check_against_reference(iv, expr):
    """Compare on one case; returns whether the reference decided it."""
    want, got = reference_contained(iv, expr), _interval_contained(iv, expr)
    if want is not None:
        assert got is want
    if got is False:
        z = escape_point(iv, expr)
        assert z is not None or want is False
        if z is not None:
            assert interval_contains(iv, z) and not member(expr, z)
    if got is True:
        assert all(member(expr, z) for z in interval_lattice(iv, 30))
    return want is not None


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("carrier", CARRIERS)
def test_containment_matches_the_reference(carrier, semantics):
    rng = random.Random(f"{carrier}-{semantics.value}")
    decided = 0
    for trial in range(250):
        expr = normalize_expr(random_set(rng, carrier, depth=rng.randint(1, 3)))
        if isinstance(expr, Complement) and rng.random() < 0.5:
            expr = Intersection((expr, normalize_expr(random_set(rng, carrier, depth=1))))
        iv = random_interval(rng, carrier, semantics, list(collect_vectors(expr)))
        decided += check_against_reference(iv, expr)
    assert decided > 100


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("carrier", CARRIERS)
def test_box_complements_match_the_reference(carrier, semantics):
    # boxes spanned by the interval's own ends, its midpoint and random
    # vectors: touching, flat and overlapping boxes are all common
    rng = random.Random(f"box-{carrier}-{semantics.value}")
    undecided = 0
    for trial in range(150):
        iv = random_interval(rng, carrier, semantics, [])
        corners = [iv.lo, iv.hi, scale(F(1, 2), iv.lo + iv.hi),
                   rand_vec(rng, carrier, max_den=2, max_prefix=2)]
        x, y = rng.choice(corners), rng.choice(corners)
        expr = Complement(IntervalSet(Interval(inf(x, y), sup(x, y))))
        if rng.random() < 0.3:
            expr = Translate(expr, rand_vec(rng, carrier, max_den=2, max_prefix=2))
            iv = Interval(iv.lo + expr.by, iv.hi + expr.by, iv.kind, iv.semantics)
        undecided += not check_against_reference(iv, expr)
    assert undecided > 10


@pytest.mark.parametrize("carrier", CARRIERS)
def test_strict_uniform_targets_are_decided_exactly(carrier):
    # targets spanned by the interval's ends, its midpoint and random
    # vectors, so that touching and overhanging ends are both common
    uniform = Semantics.STRICT_UNIFORM
    rng = random.Random(f"uniform-{carrier}")
    answers = set()
    for trial in range(150):
        iv = random_interval(rng, carrier, uniform, [])
        ends = [iv.lo, iv.hi, scale(F(1, 2), iv.lo + iv.hi),
                rand_vec(rng, carrier, max_den=2, max_prefix=2)]
        lo = inf(rng.choice(ends), rng.choice(ends)) - scale(F(rng.randint(0, 1)), ones(carrier))
        hi = sup(rng.choice(ends), rng.choice(ends)) + scale(F(rng.randint(0, 1)), ones(carrier))
        if not strictly_everywhere_below(lo, hi):
            continue
        expr = IntervalSet(open_interval(lo, hi, uniform))
        if rng.random() < 0.3:
            expr = Intersection((expr, normalize_expr(random_set(rng, carrier, depth=1))))
        check_against_reference(iv, expr)
        answers.add(_interval_contained(iv, expr))
    assert {True, False} <= answers


def test_a_strict_uniform_fit_touches_its_strict_uniform_target():
    # (0, 2)^2 lies in itself, so the first dyadic step already fits
    uniform = Semantics.STRICT_UNIFORM
    target = IntervalSet(open_interval(Vec.fin([0, 0]), Vec.fin([2, 2]), uniform))
    fit = interval_fit(Vec.fin([1, 1]), target, semantics=uniform)
    assert fit.steps == 0
    assert (fit.interval.lo, fit.interval.hi) == (Vec.fin([0, 0]), Vec.fin([2, 2]))


def test_touching_boxes_are_decided_exactly():
    # the open interval (0, 2) of Q misses [-1, 0] and [2, 3] but meets [1, 1]
    carrier = findim(1)
    iv = open_interval(zero(carrier), ones(carrier) * 2)
    for lo, hi, inside in [(-1, 0, True), (2, 3, True), (1, 1, False), (0, 1, False)]:
        box = IntervalSet(Interval(ones(carrier) * lo, ones(carrier) * hi))
        assert _interval_contained(iv, Complement(box)) is inside


SMALL = (F(0), F(0), F(1), F(-1), F(1, 2), F(2))  # zeros make pinned positions common


def small_vec(rng, carrier, choices=SMALL):
    if carrier.kind == "findim":
        return Vec(carrier, tuple(rng.choice(choices) for _ in range(carrier.dim)))
    prefix = tuple(rng.choice(choices) for _ in range(rng.randint(0, 2)))
    return Vec(carrier, prefix, rng.choice(choices))


def new_leaf(rng, carrier):
    """(kind, complemented leaf) for the shapes only the new rules decide."""
    kinds = ["band", "ideal", "solid-hull"] + (["tail-zero"] if carrier == TAIL_SEQ else [])
    kind = rng.choice(kinds)
    if kind == "tail-zero":
        leaf = TailZero()
    else:
        gens = tuple(small_vec(rng, carrier) for _ in range(rng.randint(1, 2)))
        if all(g.is_zero() for g in gens):
            gens = (ones(carrier),)
        leaf = {"band": Band, "ideal": Ideal, "solid-hull": SolidHull}[kind](gens)
    if rng.random() < 0.3:
        return "translate", Complement(Translate(leaf, small_vec(rng, carrier)))
    return kind, Complement(leaf)


def placed_interval(rng, carrier, semantics):
    """An interval near the origin or moved off it, where it often misses
    a subspace or a hull: a pinned position then lies wholly on one side."""
    a = small_vec(rng, carrier, [rand_rat(rng, 4, 4) for _ in range(4)])
    width = abs(small_vec(rng, carrier, SMALL[2:]))
    if semantics is Semantics.STRICT_UNIFORM:
        width = width + scale(F(1, rng.randint(1, 4)), ones(carrier))
    return open_interval(a, a + width, semantics)


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("carrier", CARRIERS)
def test_new_leaves_are_decided_both_ways(carrier, semantics):
    rng = random.Random(f"leaves-{carrier}-{semantics.value}")
    answers = {}
    for trial in range(200):
        kind, expr = new_leaf(rng, carrier)
        iv = placed_interval(rng, carrier, semantics)
        got = _interval_contained(iv, expr)
        assert got is not None
        check_against_reference(iv, expr)
        answers.setdefault(kind, set()).add(got)
    assert len(answers) == 4 + (carrier == TAIL_SEQ)
    if carrier == findim(1):
        # a nonzero generator spans Q, so the complement of its band is empty
        assert answers.pop("band") == answers.pop("ideal") == {False}
    assert all(seen == {True, False} for seen in answers.values()), answers


def test_a_tail_zero_complement_is_missed_only_with_both_tails_on_one_side():
    # (0, e) on tailseq holds e_1, which has a zero tail; the pinned box
    # reaches one position past the prefixes, so it is not the single point 0
    s = Complement(TailZero())
    e = ones(TAIL_SEQ)
    assert _interval_contained(open_interval(zero(TAIL_SEQ), e), s) is False
    assert _interval_contained(open_interval(e * F(1, 2), e), s) is True
    assert _interval_contained(open_interval(Vec.seq([-1], F(1, 2)), e), s) is True
