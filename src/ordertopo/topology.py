"""The verdict engine for the two order-induced topologies.

A set is *quasi-order closed* when it contains the limit of every monotone
net of its elements, and *order closed* when that holds for every
order-convergent net.  Sets are *order open* when their complement is
quasi-order closed.  Closedness of a grammar expression is undecidable in
general, so verdicts are three-valued: Certified carries a trace of sound
structural rules, Refuted carries a self-contained witness family that can
be replayed without repeating the search, and Unknown reports what the
search grid covered.

Soundness of the rules rests on one fact about these carriers: a monotone
net has an order limit in the carrier exactly when its pointwise limit
exists there, and the two agree.  Closed coordinatewise bounds therefore
survive monotone limits, and the rules below never certify anything else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .carriers import (
    TAIL_SEQ,
    Carrier,
    Vec,
    add_scaled,
    inf,
    leq,
    ones,
    scale,
    strictly_everywhere_below,
    sup,
    unit,
    zero,
)
from .families import (
    Certificate,
    CoordDecay,
    Family,
    Scale,
    _direction_rule,
    eventually_in,
    monotonicity,
    order_converges,
    order_limit,
    pointwise_limit,
    shift_family,
    shift_up_family,
    validate_certificate,
    values_iter,
)
from .ordersets import (
    Band,
    Complement,
    Dilate,
    HalfSpace,
    Ideal,
    Intersection,
    Interval,
    IntervalKind,
    IntervalSet,
    Semantics,
    SetExpr,
    SolidHull,
    TailZero,
    Translate,
    Union,
    _all_parts,
    _dedup,
    carrier_of,
    collect_vectors,
    dilate_interval,
    interval_contains,
    member,
    named_coords,
    open_interval,
    support_horizon,
)
from .rationals import ZERO
from .records import record


# the witness search grid, following the artifact's grids
LAMBDAS = (Fraction(1, 2), Fraction(1, 3))  # ratios of the scale templates
GEN_SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))  # generator multiples
MAX_CANDIDATES = 600  # candidates tried per search


# -- normalization -----------------------------------------------------------------


def normalize_expr(expr: SetExpr) -> SetExpr:
    """Push complements and affine images down to the primitive leaves.

    Every rewrite is an exact set identity, so membership is preserved;
    the certification rules match on the result.  ``_apply_dilate``
    rewrites every node, so no ``Dilate`` is left, and the rules that take
    normalized input have no dilate case.
    """
    if isinstance(expr, Complement):
        inner = normalize_expr(expr.inner)
        if isinstance(inner, Complement):
            return inner.inner
        if isinstance(inner, Union):
            return Intersection(tuple(normalize_expr(Complement(p)) for p in inner.parts))
        if isinstance(inner, Intersection):
            return Union(tuple(normalize_expr(Complement(p)) for p in inner.parts))
        return Complement(inner)
    if isinstance(expr, Union):
        return Union(tuple(normalize_expr(p) for p in expr.parts))
    if isinstance(expr, Intersection):
        return Intersection(tuple(normalize_expr(p) for p in expr.parts))
    if isinstance(expr, Translate):
        return _apply_translate(normalize_expr(expr.inner), expr.by)
    if isinstance(expr, Dilate):
        return _apply_dilate(normalize_expr(expr.inner), expr.factor)
    return expr


def _apply_translate(inner: SetExpr, a: Vec) -> SetExpr:
    if a.is_zero():
        return inner
    if isinstance(inner, IntervalSet):
        iv = inner.interval
        return IntervalSet(Interval(iv.lo + a, iv.hi + a, iv.kind, iv.semantics))
    if isinstance(inner, HalfSpace):
        return HalfSpace(inner.coord, inner.relation, inner.bound + a.at(inner.coord))
    if isinstance(inner, TailZero) and a.tail == 0:
        return inner
    if isinstance(inner, (Ideal, Band)) and member(inner, a):
        return inner  # translating a subspace by one of its own elements
    if isinstance(inner, Union):
        return Union(tuple(_apply_translate(p, a) for p in inner.parts))
    if isinstance(inner, Intersection):
        return Intersection(tuple(_apply_translate(p, a) for p in inner.parts))
    if isinstance(inner, Complement):
        return Complement(_apply_translate(inner.inner, a))
    if isinstance(inner, Translate):
        return _apply_translate(inner.inner, a + inner.by)
    return Translate(inner, a)


def _apply_dilate(inner: SetExpr, t: Fraction) -> SetExpr:
    if t == 1:
        return inner
    if isinstance(inner, IntervalSet):
        return IntervalSet(dilate_interval(inner.interval, t))
    if isinstance(inner, HalfSpace):
        relation = inner.relation
        if t < 0:
            relation = "ge" if relation == "le" else "le"
        return HalfSpace(inner.coord, relation, inner.bound * t)
    if isinstance(inner, (TailZero, Ideal, Band)):
        return inner  # solid subspaces are stable under nonzero dilation
    if isinstance(inner, SolidHull):
        return SolidHull(tuple(scale(t, g) for g in inner.gens))
    if isinstance(inner, Union):
        return Union(tuple(_apply_dilate(p, t) for p in inner.parts))
    if isinstance(inner, Intersection):
        return Intersection(tuple(_apply_dilate(p, t) for p in inner.parts))
    if isinstance(inner, Complement):
        return Complement(_apply_dilate(inner.inner, t))
    if isinstance(inner, Translate):
        return _apply_translate(_apply_dilate(inner.inner, t), scale(t, inner.by))
    raise TypeError(f"not a set expression: {inner!r}")


# -- verdicts ---------------------------------------------------------------------


@record
class ClosureWitness:
    """A replayable closure failure: a family living in the set whose
    order limit escapes it."""

    family: Family
    mode: str  # "increasing" | "decreasing" | "order-convergent"
    limit: Vec
    in_set_from: int
    certificate: Optional[Certificate] = None


@record
class SearchReport:
    candidates: int
    grids: str


@record
class Verdict:
    status: str  # "certified" | "refuted" | "unknown"
    rule_trace: tuple[str, ...] = ()
    witness: Optional[ClosureWitness] = None
    search_report: Optional[SearchReport] = None


def _certify_closed(expr: SetExpr) -> Optional[list[str]]:
    """Sound structural rules for closedness under monotone order limits.

    The same rules are sound for full order closedness: each one rests on
    coordinatewise non-strict bounds, which survive any order limit.
    """
    if isinstance(expr, IntervalSet):
        if expr.interval.kind is IntervalKind.CLOSED:
            return ["closed-interval"]
        return None
    if isinstance(expr, HalfSpace):
        return ["coordinate-half-space"]
    if isinstance(expr, Band):
        return ["band-support"]
    if isinstance(expr, Ideal):
        # finitely generated ideals of these carriers have bounded
        # coordinate ratios, so they coincide with their bands
        return ["finitely-generated-ideal-is-band"]
    if isinstance(expr, SolidHull):
        return ["solid-hull-is-a-finite-union-of-closed-intervals"]
    if isinstance(expr, Intersection):
        trace = ["finite-intersection"] if expr.parts else ["full-space"]
        return _all_parts(expr.parts, _certify_closed, trace)
    if isinstance(expr, Union):
        trace = ["finite-union"] if expr.parts else ["empty-set"]
        return _all_parts(expr.parts, _certify_closed, trace)
    if isinstance(expr, Translate):
        sub = _certify_closed(expr.inner)
        return ["translate-image"] + sub if sub is not None else None
    return None


def _witness_candidates(expr: SetExpr, carrier: Carrier,
                        include_nonmonotone: bool) -> list[Family]:
    """The deterministic candidate grid, most promising templates first,
    cut at ``MAX_CANDIDATES``; an unknown report counts exactly these."""
    out: list[Family] = []
    if carrier == TAIL_SEQ:
        out.append(shift_family())
        out.append(shift_up_family())
    anchors = _dedup(list(collect_vectors(expr)) + [zero(carrier)])
    directions = [ones(carrier), -ones(carrier)]
    span = carrier.dim if carrier.kind == "findim" else 3
    for j in range(1, span + 1):
        directions.append(unit(carrier, j))
        directions.append(-unit(carrier, j))
    for center in anchors:
        for p in directions:
            out.append(CoordDecay(center, p))
    if include_nonmonotone and span >= 2:
        mixed = [unit(carrier, i) - unit(carrier, i + 1) for i in range(1, span)]
        for center in anchors:
            for p in mixed:
                out.append(CoordDecay(center, p))
    for g in anchors:
        ag = abs(g)
        if ag.is_zero():
            continue
        for s in GEN_SCALES:
            v = scale(s, ag)
            for lam in LAMBDAS:
                out.append(Scale(v, lam))
    return _dedup(out)[:MAX_CANDIDATES]


def _try_witness(expr: SetExpr, family: Family,
                 include_nonmonotone: bool) -> Optional[ClosureWitness]:
    """One candidate by closed forms alone, cheapest rejection first.

    The direction comes from the template rule and the limit from the
    closed-form tail; ``replay_witness`` re-checks both by exact scans.
    """
    direction, _ = _direction_rule(family)
    if direction == "neither" and not include_nonmonotone:
        return None
    limit = pointwise_limit(family)
    if member(expr, limit):
        return None
    ev = eventually_in(family, expr)
    if ev.status != "holds-from":
        return None
    if direction != "neither":
        return ClosureWitness(family, direction, limit, ev.index)
    certificate = order_converges(family, limit)
    if not isinstance(certificate, Certificate):
        return None
    return ClosureWitness(family, "order-convergent", limit, ev.index, certificate)


def _closure_check(expr: SetExpr, include_nonmonotone: bool,
                   carrier: Optional[Carrier]) -> Verdict:
    """Rules first, then the witness search; ``carrier`` is searched when the
    set names no vector of its own, and must hold every coordinate it names."""
    norm = normalize_expr(expr)
    trace = _certify_closed(norm)
    if trace is not None:
        return Verdict("certified", tuple(trace))
    named = carrier_of(norm)
    if named is None and carrier is not None and carrier.kind == "findim":
        # without a vector or the tail, the set names only integer coordinates
        outside = sorted(j for j in named_coords(norm) if j > carrier.dim)
        if outside:
            raise ValueError(f"coordinate {outside[0]} outside the carrier {carrier}")
    carrier = named or carrier
    if carrier is None:
        return Verdict("unknown",
                       search_report=SearchReport(0, "no carrier to search"))
    candidates = _witness_candidates(norm, carrier, include_nonmonotone)
    for family in candidates:
        hit = _try_witness(norm, family, include_nonmonotone)
        if hit is not None:
            return Verdict("refuted", witness=hit)
    count = len(candidates)
    # the grid is fixed; " scale=1" closes the report's wire text
    grids = (f"templates={count} lambdas={list(map(str, LAMBDAS))} "
             f"gen_scales={list(map(str, GEN_SCALES))} scale=1")
    return Verdict("unknown", search_report=SearchReport(count, grids))


def check_quasi_order_closed(expr: SetExpr, carrier: Optional[Carrier] = None) -> Verdict:
    """Certify or refute closedness under monotone order limits.

    ``carrier`` is the space to search when the set names no vector; a
    half-space coordinate outside it raises ValueError.
    """
    return _closure_check(expr, include_nonmonotone=False, carrier=carrier)


def check_order_closed(expr: SetExpr, carrier: Optional[Carrier] = None) -> Verdict:
    """Like the quasi check, but witnesses may be any order-convergent family."""
    return _closure_check(expr, include_nonmonotone=True, carrier=carrier)


def is_order_open(expr: SetExpr, carrier: Optional[Carrier] = None) -> Verdict:
    """Openness in the quasi-order topology: the complement must be closed."""
    return check_quasi_order_closed(Complement(expr), carrier)


REPLAY_HORIZON = 64  # indices from in_set_from whose membership is replayed


def replay_witness(expr: SetExpr, witness: ClosureWitness) -> bool:
    """Re-validate a refutation from its stored pieces alone, no search."""
    fam = witness.family
    if witness.mode in ("increasing", "decreasing"):
        if monotonicity(fam).direction != witness.mode:
            return False
        if order_limit(fam) != witness.limit:
            return False
    else:
        if witness.certificate is None:
            return False
        if witness.certificate.limit != witness.limit:
            return False
        if not validate_certificate(fam, witness.certificate):
            return False
    if member(expr, witness.limit):
        return False
    ev = eventually_in(fam, expr)
    if ev.status != "holds-from" or ev.index > witness.in_set_from:
        return False
    lo = witness.in_set_from
    return all(member(expr, v) for v in values_iter(fam, lo + REPLAY_HORIZON - 1, lo))


# -- neighborhood catalogs ------------------------------------------------------------


def symmetric_chain(x: Vec, depth: int,
                    semantics: Semantics = Semantics.STRICT_PARTIAL) -> tuple[Interval, ...]:
    """The nested chain (x - e/m, x + e/m), m = 1..depth, e the all-ones.

    Every interval holds x and the next one, and interval m has width
    exactly 2e/m, so the widths shrink strictly to zero.
    """
    if depth < 1:
        raise ValueError("catalog depth must be at least 1")
    e = ones(x.carrier)
    return tuple(
        open_interval(add_scaled(x, Fraction(-1, m), e), add_scaled(x, Fraction(1, m), e),
                      semantics)
        for m in range(1, depth + 1)
    )


def neighborhood_catalog(x: Vec, depth: int,
                         semantics: Semantics = Semantics.STRICT_PARTIAL) -> tuple[Interval, ...]:
    """Single-coordinate perturbation intervals, then the symmetric chain.

    Thin perturbation intervals are the sharpest refuters, so they probe
    first; each is (x - d*e_j, x + d*e_j) for d = 1, 1/2.
    """
    chain = symmetric_chain(x, depth, semantics)
    extras: list[Interval] = []
    span = min(depth, x.carrier.dim) if x.carrier.kind == "findim" else depth
    for j in range(1, span + 1):
        e_j = unit(x.carrier, j)
        for delta in (Fraction(1), Fraction(1, 2)):
            try:
                extras.append(open_interval(add_scaled(x, -delta, e_j),
                                            add_scaled(x, delta, e_j), semantics))
            except ValueError:
                continue  # empty under strict-uniform semantics
    return tuple(extras) + chain


@record
class TauEReport:
    """Outcome of probing convergence against a catalog of neighborhoods."""

    center: Vec
    consistent: bool
    refuted_by: Optional[Interval] = None
    thresholds: tuple[tuple[int, int], ...] = ()  # (catalog position, holds-from)


def tau_e_convergence_report(F: Family, x: Vec,
                             intervals: Sequence[Interval]) -> TauEReport:
    """One failed neighborhood refutes; all-pass is consistency, not proof.

    Every interval must hold x; the catalog builders above guarantee it.
    """
    if not all(interval_contains(iv, x) for iv in intervals):
        raise ValueError("catalog interval misses its center")
    thresholds: list[tuple[int, int]] = []
    for pos, iv in enumerate(intervals):
        got = eventually_in(F, IntervalSet(iv))
        if got.status != "holds-from":
            return TauEReport(x, False, refuted_by=iv,
                              thresholds=tuple(thresholds))
        thresholds.append((pos, got.index))
    return TauEReport(x, True, thresholds=tuple(thresholds))


# -- interval fitting ------------------------------------------------------------------


@record
class FitResult:
    interval: Interval
    steps: int  # dyadic shrink exponent used


def interval_fit(c: Vec, expr: SetExpr, budget: int = 16,
                 semantics: Semantics = Semantics.STRICT_PARTIAL) -> Optional[FitResult]:
    """Find an open interval around c inside the set by dyadic shrinking;
    a step that ``_interval_contained`` leaves undecided shrinks further."""
    if not member(expr, c):
        raise ValueError("the point lies outside the set")
    openness = is_order_open(expr)
    if openness.status == "refuted":
        raise ValueError("the set is not order open")
    norm = normalize_expr(expr)
    e = ones(c.carrier)
    for t in range(budget + 1):
        step = Fraction(1, 2 ** t)
        iv = open_interval(add_scaled(c, -step, e), add_scaled(c, step, e), semantics)
        if _interval_contained(iv, norm) is True:
            return FitResult(iv, t)
    return None


def _interval_contained(iv: Interval, expr: SetExpr) -> Optional[bool]:
    """Exact containment of the open interval (a, b) in the set; None when
    no rule decides: parts of a union that cover it only together, a
    strict-partial interval in a strict-uniform open target not strictly
    around it, a solid hull with no single box around it.

    Two strict-uniform open intervals are products of open coordinate
    intervals, tail included, so one holds the other exactly when it does
    so coordinate by coordinate: lo <= a and b <= hi.

    A leaf's complement holds the interval iff the interval misses the
    leaf, decided by ``_meets_box``: a closed box directly, a solid hull
    box by box ([-|g|, |g|]), a translate X + t by shifting the interval by
    -t.  An ideal, band or ``TailZero`` S is missed iff the box [P(a), P(b)]
    of ``_pinned_ends`` is, which lies in S.  For a band (an ideal is the
    band of its generators here), [a, b] meets S in [sup(a, P(a)),
    inf(b, P(b))], empty when a pinned position has 0 outside [a_p, b_p].
    For ``TailZero``, a point of the interval in S gives a_tail <= 0 <=
    b_tail; then that box is [P(a), P(b)], and its position past every
    prefix carries both tails, so it has two points or more unless a = b,
    and meets the interval.
    """
    a, b = iv.lo, iv.hi
    if isinstance(expr, Intersection):
        results = [_interval_contained(iv, p) for p in expr.parts]
        if any(r is False for r in results):
            return False
        if all(r is True for r in results):
            return True
        return None
    if isinstance(expr, Union):
        if not expr.parts:
            return False
        # containment in one part settles it; parts can also cover the
        # interval jointly, so a miss everywhere is not a refusal
        if any(_interval_contained(iv, p) is True for p in expr.parts):
            return True
        return None
    if isinstance(expr, IntervalSet):
        target = expr.interval
        if (target.kind is IntervalKind.CLOSED or target.semantics is Semantics.STRICT_PARTIAL
                or iv.semantics is Semantics.STRICT_UNIFORM):
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
            # the complement is a strict half-space
            single = a.carrier.kind == "findim" and a.carrier.dim == 1
            if inner.relation == "le":  # need z > bound throughout
                edge = a.at(inner.coord)
                return edge > inner.bound or (single and edge == inner.bound)
            edge = b.at(inner.coord)
            return edge < inner.bound or (single and edge == inner.bound)
        if isinstance(inner, IntervalSet) and inner.interval.kind is IntervalKind.CLOSED:
            return not _meets_box(iv, inner.interval.lo, inner.interval.hi)
        if isinstance(inner, (Ideal, Band, TailZero)):
            return not _meets_box(iv, *_pinned_ends(iv, inner))
        if isinstance(inner, SolidHull):
            return not any(_meets_box(iv, -abs(g), abs(g)) for g in inner.gens)
        if isinstance(inner, Translate):
            return _interval_contained(iv, Translate(Complement(inner.inner), inner.by))
        return None
    if isinstance(expr, (Ideal, Band, TailZero)):
        # a solid subspace holds the interval exactly when it holds both ends
        return member(expr, a) and member(expr, b)
    if isinstance(expr, SolidHull):
        for g in expr.gens:
            ag = abs(g)
            if leq(-ag, a) and leq(b, ag):
                return True
        return None
    if isinstance(expr, Translate):
        shifted = Interval(a - expr.by, b - expr.by, iv.kind, iv.semantics)
        return _interval_contained(shifted, expr.inner)
    return None


def _meets_box(iv: Interval, lo: Vec, hi: Vec) -> bool:
    """Whether the open interval shares a point with the closed box [lo, hi].

    Strict-partial: the common part is the box [sup(a, lo), inf(b, hi)]
    without the ends a and b.  A box of two or more points holds a whole
    segment, so the part is empty exactly when the box is empty or is the
    single point a or b.  Strict-uniform: coordinates are independent, and
    (a_i, b_i) meets [lo_i, hi_i] exactly when a_i < hi_i and lo_i < b_i.
    """
    a, b = iv.lo, iv.hi
    if iv.semantics is Semantics.STRICT_UNIFORM:
        return strictly_everywhere_below(a, hi) and strictly_everywhere_below(lo, b)
    p, q = sup(a, lo), inf(b, hi)
    return leq(p, q) and not (p == q and p in (a, b))


def _pinned_ends(iv: Interval, expr: SetExpr) -> tuple[Vec, Vec]:
    """The interval's ends with every position the subspace pins to 0 set to
    0, written out to one position past every prefix."""
    gens = () if isinstance(expr, TailZero) else expr.gens
    width = support_horizon([*gens, iv.lo, iv.hi]) + (iv.lo.tail is not None)
    free = [not gens or any(g.coord(p) for g in gens) for p in range(1, width + 1)]
    keep_tail = any(g.tail for g in gens)

    def pin(v: Vec) -> Vec:
        coords = tuple(v.coord(p) if f else ZERO for p, f in enumerate(free, 1))
        return Vec(v.carrier, coords, v.tail if v.tail is None or keep_tail else ZERO)

    return pin(iv.lo), pin(iv.hi)
