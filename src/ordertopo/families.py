"""Symbolic sequence families.

Five templates with exact per-index values and closed-form tails: finite
explicit lists (constant afterwards), two-level shifts (the classic
vanishing-prefix sequence and its mirror), shrinking positive multiples,
coordinatewise harmonic decay toward a center, and running suprema meet a
cap.  Each template knows its index base, its monotonicity, its order
limit, and -- through the eventual-form machinery -- how to decide
eventual membership in any grammar set with an explicit threshold.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union as TUnion

from .carriers import (
    TAIL_SEQ,
    Carrier,
    CarrierMismatch,
    CoordLabel,
    Vec,
    add_scaled,
    aligned,
    inf,
    leq,
    sup,
    within,
    zero,
)
from .eventual import (
    ConstForm,
    Form,
    Geom,
    Harmonic,
    MonoForm,
    ShiftForm,
    _and,
    _or,
    _positions,
    abs_centered_form,
    affine_form,
    coord_profile,
    form_eventually_le,
    form_limit,
    form_prefix_bound,
    form_settle_ops,
    form_settle_vs_vec,
    make_mono_form,
    running_sup_form,
    meet_const_form,
    settle_cmp,
    tail_profile,
)
from .ordersets import (
    Band,
    Complement,
    Dilate,
    HalfSpace,
    Ideal,
    Intersection,
    IntervalKind,
    IntervalSet,
    Semantics,
    SetExpr,
    SolidHull,
    TailZero,
    Translate,
    Union,
    closed_interval,
    member,
    support_horizon,
)
from .rationals import rat
from .records import record


@record
class Explicit:
    """Finitely many listed values, constant from the last one on."""

    values: tuple[Vec, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("explicit family needs at least one value")
        carrier = self.values[0].carrier
        if any(v.carrier != carrier for v in self.values):
            raise CarrierMismatch("explicit family mixes carriers")


@record
class Shift:
    """value(k) carries ``head`` on the first k positions and ``tail`` beyond.

    The default (head 0, tail 1) is the vanishing-prefix sequence indexed
    from 1; head 1 / tail 0 is its increasing mirror.
    """

    head: Fraction = Fraction(0)
    tail: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "head", rat(self.head))
        object.__setattr__(self, "tail", rat(self.tail))


@record
class Scale:
    """value(k) = lam^k * v with v >= 0 and 0 < lam < 1."""

    v: Vec
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", rat(self.lam))
        if not (0 < self.lam < 1):
            raise ValueError("scale factor must satisfy 0 < lam < 1")
        if not leq(zero(self.v.carrier), self.v):
            raise ValueError("scale template needs a nonnegative vector")


@record
class CoordDecay:
    """value(k) = c + p/(k+1+q), coordinatewise."""

    c: Vec
    p: Vec
    q: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q", rat(self.q))
        if self.q < 0:
            raise ValueError("decay offset must be nonnegative")
        if self.c.carrier != self.p.carrier:
            raise CarrierMismatch("center and direction live in different carriers")


@record
class RunningSupMeet:
    """value(k) = (sup of base values up to k) meet cap."""

    base: "Family"
    cap: Vec

    def __post_init__(self):
        if family_carrier(self.base) != self.cap.carrier:
            raise CarrierMismatch("cap lives in a different carrier than the base")


Family = TUnion[Explicit, Shift, Scale, CoordDecay, RunningSupMeet]


def shift_family() -> Shift:
    """The vanishing-prefix sequence: first k terms 0, the rest 1."""
    return Shift(Fraction(0), Fraction(1))


def shift_up_family() -> Shift:
    """First k terms 1, the rest 0; increases to the all-ones vector."""
    return Shift(Fraction(1), Fraction(0))


def running_sup_meet(base: Family, cap: Vec) -> RunningSupMeet:
    return RunningSupMeet(base, cap)


def family_carrier(F: Family) -> Carrier:
    if isinstance(F, Explicit):
        return F.values[0].carrier
    if isinstance(F, Shift):
        return TAIL_SEQ
    if isinstance(F, Scale):
        return F.v.carrier
    if isinstance(F, CoordDecay):
        return F.c.carrier
    return family_carrier(F.base)


def index_base(F: Family) -> int:
    """First index of the family as a net (shift templates start at 1)."""
    if isinstance(F, Shift):
        return 1
    if isinstance(F, RunningSupMeet):
        return index_base(F.base)
    return 0


def value(F: Family, k: int) -> Vec:
    """Exact value at index k >= 0.

    Below its index base a running sup gives its first value; a shift
    gives its formula, so ``value(Shift(), 0)`` is (; 1).
    """
    if k < 0:
        raise ValueError("indices are nonnegative")
    if isinstance(F, Explicit):
        return F.values[min(k, len(F.values) - 1)]
    if isinstance(F, Shift):
        return Vec.seq((F.head,) * k, F.tail)
    if isinstance(F, Scale):
        return F.v * F.lam ** k
    if isinstance(F, CoordDecay):
        return add_scaled(F.c, Fraction(1) / (k + 1 + F.q), F.p)
    base = index_base(F)
    return _walk(F).capped(max(k, base) - base)


def values_iter(F: Family, upto: int, lo: Optional[int] = None) -> Iterator[Vec]:
    """value(k) for k = lo .. upto; a running sup reads its shared walk.

    ``lo`` defaults to the index base and may not lie below it.
    """
    base = index_base(F)
    lo = base if lo is None else lo
    if isinstance(F, RunningSupMeet):
        walk = _walk(F)
        for i in range(lo - base, upto - base + 1):
            yield walk.capped(i)
        return
    for k in range(lo, upto + 1):
        yield value(F, k)


class _Walk:
    """The running suprema of one running-sup family, from its index base.

    Entry i of ``sups`` is the supremum of the base values up to index
    base + i, and entry i of ``vals`` is that supremum meet the cap.  Both
    grow on demand, one entry at a time and ``sups`` first, so an exception
    raised at any point (a deadline, say) leaves a walk that is still right.
    """

    def __init__(self, F: RunningSupMeet):
        self.F = F
        self.base = index_base(F)
        self.sups: list[Vec] = []
        self.vals: list[Vec] = []
        # a nested family holds its base's walk: it reads it without a cache
        # lookup, and evicting that walk from the cache cannot undo this one
        self.inner = _walk(F.base) if isinstance(F.base, RunningSupMeet) else None

    def capped(self, i: int) -> Vec:
        sups, vals = self.sups, self.vals
        while len(vals) <= i:
            j = len(vals)
            if len(sups) == j:
                base_val = (self.inner.capped(j) if self.inner is not None
                            else value(self.F.base, self.base + j))
                sups.append(sup(sups[-1], base_val) if sups else base_val)
            vals.append(inf(sups[j], self.F.cap))
        return vals[i]

    def uncapped(self, i: int) -> Vec:
        self.capped(i)
        return self.sups[i]


# one walk per running-sup family, shared by every scan of it; a document
# scans at most four such families, and the bound keeps a long-lived
# process at a fixed footprint
@functools.lru_cache(maxsize=4)
def _walk(F: RunningSupMeet) -> _Walk:
    return _Walk(F)


# bounded so that a long-lived process keeps a fixed footprint
@functools.lru_cache(maxsize=256)
def form_of(F: Family) -> Form:
    """Closed-form tail of the family, valid from its ``start`` index."""
    if isinstance(F, Explicit):
        return ConstForm(F.values[-1], len(F.values) - 1)
    if isinstance(F, Shift):
        if F.head == F.tail:
            return ConstForm(Vec.seq((), F.head), 1)
        return ShiftForm((), F.head, F.tail, 1)
    if isinstance(F, Scale):
        return make_mono_form(zero(F.v.carrier), F.v, Geom(F.lam), 0)
    if isinstance(F, CoordDecay):
        return make_mono_form(F.c, F.p, Harmonic(F.q), 0)
    base_form = form_of(F.base)
    early = base_form.start - 1 - index_base(F)
    early_sup = _walk(F).uncapped(early) if early >= 0 else None
    return meet_const_form(running_sup_form(base_form, early_sup), F.cap)


# -- monotonicity ---------------------------------------------------------------


@record
class Monotonicity:
    direction: str  # "increasing" | "decreasing" | "neither"
    rule: str


MONOTONICITY_HORIZON = 24  # consecutive pairs the exact cross-check compares


def monotonicity(F: Family) -> Monotonicity:
    """Template-level direction, cross-checked exactly up to a horizon when
    the template claims one; ``_direction_rule`` decides "neither" exactly."""
    direction, rule = _direction_rule(F)
    if direction != "neither":
        k0 = index_base(F)
        last = k0 + MONOTONICITY_HORIZON
        for k, (prev, cur) in enumerate(itertools.pairwise(values_iter(F, last)), k0 + 1):
            ok = leq(cur, prev) if direction == "decreasing" else leq(prev, cur)
            if not ok:
                raise AssertionError(f"template rule contradicted at index {k}")
    return Monotonicity(direction, rule)


def _direction_rule(F: Family) -> tuple[str, str]:
    if isinstance(F, Explicit):
        if all(leq(b, a) for a, b in zip(F.values, F.values[1:])):
            return "decreasing", "finite list is descending"
        if all(leq(a, b) for a, b in zip(F.values, F.values[1:])):
            return "increasing", "finite list is ascending"
        return "neither", "finite list is not a chain"
    if isinstance(F, Shift):
        if F.head <= F.tail:
            return "decreasing", "each step replaces a tail entry by the head"
        return "increasing", "each step replaces a tail entry by the head"
    if isinstance(F, Scale):
        return "decreasing", "shrinking multiple of a nonnegative vector"
    if isinstance(F, CoordDecay):
        z = zero(F.p.carrier)
        if leq(z, F.p):
            return "decreasing", "all decay directions nonnegative"
        if leq(F.p, z):
            return "increasing", "all decay directions nonpositive"
        return "neither", "decay directions of mixed sign"
    return "increasing", "running supremum over a growing index range"


def order_limit(F: Family) -> Vec:
    """Order limit of a monotone family (its pointwise limit).

    Monotonicity comes from the template rule; ``monotonicity`` is the
    exact cross-check, run by the replay and validation paths.
    """
    if _direction_rule(F)[0] == "neither":
        raise ValueError("order limit needs a monotone family")
    return form_limit(form_of(F))


def pointwise_limit(F: Family) -> Vec:
    return form_limit(form_of(F))


# -- order convergence -------------------------------------------------------------


@record
class Certificate:
    """Replayable evidence of order convergence.

    ``dominating`` decreases to zero and bounds |value(k) - limit|.  A
    ``threshold_map`` entry (m, t) promises the bound with the dominating
    value at index m from index t on; None means per-index domination.
    """

    limit: Vec
    dominating: Family
    threshold_map: Optional[tuple[tuple[int, int], ...]] = None


@record
class Refutation:
    limit: Vec
    candidate: Vec
    coord: CoordLabel
    separated_from: int
    gap: Fraction


def order_converges(F: Family, x: Vec) -> TUnion[Certificate, Refutation]:
    """Certify order convergence to x, or refute it with a coordinate."""
    if family_carrier(F) != x.carrier:
        raise CarrierMismatch("candidate limit lives in a different carrier")
    L = pointwise_limit(F)
    if L == x:
        return Certificate(x, dominating_family(F, x))
    label = _differing_label(L, x)
    form = form_of(F)
    if label == "tail" and isinstance(form, ShiftForm):
        # a shift's far positions tend to its head, not to its tail field
        label = max(L.prefix_len, x.prefix_len) + 1
    seq = tail_profile(form) if label == "tail" else coord_profile(form, label)
    mid = (L.at(label) + x.at(label)) / 2
    _, k = settle_cmp(seq, mid)
    gap = abs(L.at(label) - x.at(label)) / 2
    return Refutation(L, x, label, max(k, index_base(F)), gap)


def _differing_label(a: Vec, b: Vec) -> CoordLabel:
    xs, ys = aligned(a, b)
    for i, (p, r) in enumerate(zip(xs, ys)):
        if p != r:
            return i + 1
    if a.carrier.kind == "tailseq" and a.tail != b.tail:
        return "tail"
    raise ValueError("vectors do not differ")


def dominating_family(F: Family, x: Vec) -> Family:
    """The witnessing decreasing-to-zero family for |value(k) - x|."""
    if pointwise_limit(F) != x:
        raise ValueError("dominating family exists only at the true order limit")
    carrier = family_carrier(F)
    if isinstance(F, Explicit):
        devs = [abs(v - x) for v in F.values]
        return Explicit(tuple(_suffix_sups(devs)))
    if isinstance(F, Shift):
        return Shift(Fraction(0), abs(F.tail - F.head))
    if isinstance(F, Scale):
        return Scale(F.v, F.lam)
    if isinstance(F, CoordDecay):
        return CoordDecay(zero(carrier), abs(F.p), F.q)
    # running sup meet: read the deviation's own closed form, then raise its
    # coefficients so the early indices are covered as well
    dev = abs_centered_form(affine_form(form_of(F), Fraction(1), -x))
    k0 = index_base(F)
    early = [(k, abs(v - x)) for k, v in enumerate(values_iter(F, dev.start - 1), k0)]
    if isinstance(dev, ConstForm):
        vals = [d for _, d in early] + [zero(carrier)]
        padded = [vals[0]] * k0 + vals
        return Explicit(tuple(_suffix_sups(padded)))
    if isinstance(dev, MonoForm):
        v_star = dev.v
        for k, d in early:
            v_star = sup(v_star, d * (1 / dev.kernel.at(k)))
        if isinstance(dev.kernel, Geom):
            return Scale(v_star, dev.kernel.lam)
        return CoordDecay(zero(carrier), v_star, dev.kernel.q)
    delta = abs(dev.tailv)
    for k, d in early:
        if any(d.coord(j) != 0 for j in range(1, k + 1)):
            raise AssertionError("running-sup deviation lags its own prefix")
        for j in range(k + 1, d.prefix_len + 1):
            delta = max(delta, abs(d.coord(j)))
        delta = max(delta, abs(d.tail))  # type: ignore[arg-type]
    return Shift(Fraction(0), delta)


def _suffix_sups(devs: Sequence[Vec]) -> list[Vec]:
    out = list(devs)
    for i in range(len(out) - 2, -1, -1):
        out[i] = sup(out[i], out[i + 1])
    return out


CERTIFICATE_HORIZON = 48  # indices past the base that domination is replayed for


def validate_certificate(F: Family, cert: Certificate) -> bool:
    """Re-check a certificate from its stored pieces alone."""
    dom = cert.dominating
    carrier = family_carrier(F)
    if monotonicity(dom).direction != "decreasing":
        return False
    if order_limit(dom) != zero(carrier):
        return False
    k0 = max(index_base(F), index_base(dom))
    if cert.threshold_map is None:
        dev = abs_centered_form(affine_form(form_of(F), Fraction(1), -cert.limit))
        ok, settled = form_eventually_le(dev, form_of(dom))
        if not ok:
            return False
        hi = max(settled, k0 + CERTIFICATE_HORIZON)
        return all(within(v, cert.limit, d)
                   for v, d in zip(values_iter(F, hi, k0), values_iter(dom, hi, k0)))
    for m, t in cert.threshold_map:
        radius = value(dom, m)
        lo, hi = cert.limit - radius, cert.limit + radius
        got = eventually_in(F, IntervalSet(closed_interval(lo, hi)))
        if got.status != "holds-from" or got.index > t:
            return False
    return True


# -- eventual membership -------------------------------------------------------------


@record
class EventualVerdict:
    """Decided eventual membership.

    holds-from: member for every k >= index (least such index).
    fails-from: outside for every k >= index (hence infinitely often).
    """

    status: str  # "holds-from" | "fails-from"
    index: int
    settled_at: int = 0


def eventually_in(F: Family, expr: SetExpr) -> EventualVerdict:
    """Decide eventual membership of the family in a grammar set."""
    form = form_of(F)
    k0 = index_base(F)
    ok, settled = _eventual_member(form, expr)
    settled = max(settled, form.start, k0)
    if ok:
        n = settled
        while n > k0 and member(expr, value(F, n - 1)):
            n -= 1
        return EventualVerdict("holds-from", n, settled_at=settled)
    return EventualVerdict("fails-from", settled, settled_at=settled)


def _eventual_member(form: Form, expr: SetExpr) -> tuple[bool, int]:
    if isinstance(expr, IntervalSet):
        iv = expr.interval
        if iv.kind is IntervalKind.CLOSED:
            return _and([
                form_settle_vs_vec(form, iv.lo, "ge"),
                form_settle_vs_vec(form, iv.hi, "le"),
            ])
        if iv.semantics is Semantics.STRICT_UNIFORM:
            return _and([
                form_settle_vs_vec(form, iv.lo, "gt"),
                form_settle_vs_vec(form, iv.hi, "lt"),
            ])
        # one settle per endpoint serves both its bound and its "eq"
        ge, lo_eq = form_settle_ops(form, iv.lo, ("ge", "eq"))
        le, hi_eq = form_settle_ops(form, iv.hi, ("le", "eq"))
        return _and([ge, le] + [(not ok, k) for ok, k in (lo_eq, hi_eq)])
    if isinstance(expr, HalfSpace):
        seq = tail_profile(form) if expr.coord == "tail" else coord_profile(form, expr.coord)
        rel, k = settle_cmp(seq, expr.bound)
        ok = rel <= 0 if expr.relation == "le" else rel >= 0
        return ok, k
    if isinstance(expr, TailZero):
        rel, k = settle_cmp(tail_profile(form), Fraction(0))
        return rel == 0, k
    if isinstance(expr, (Ideal, Band)):
        return _and(_support_conditions(form, expr.gens))
    if isinstance(expr, SolidHull):
        conds = []
        for g in expr.gens:
            ag = abs(g)
            conds.append(_and([
                form_settle_vs_vec(form, -ag, "ge"),
                form_settle_vs_vec(form, ag, "le"),
            ]))
        return _or(conds)
    if isinstance(expr, Complement):
        ok, k = _eventual_member(form, expr.inner)
        return not ok, k
    if isinstance(expr, Union):
        if not expr.parts:
            return False, form.start
        return _or([_eventual_member(form, p) for p in expr.parts])
    if isinstance(expr, Intersection):
        if not expr.parts:
            return True, form.start
        return _and([_eventual_member(form, p) for p in expr.parts])
    if isinstance(expr, Translate):
        return _eventual_member(affine_form(form, Fraction(1), -expr.by), expr.inner)
    if isinstance(expr, Dilate):
        return _eventual_member(affine_form(form, 1 / expr.factor), expr.inner)
    raise TypeError(f"not a set expression: {expr!r}")


def _support_conditions(form: Form, gens: Sequence[Vec]) -> list[tuple[bool, int]]:
    """Eventual vanishing off the generators' support (band membership)."""
    width = max(support_horizon(list(gens)), form_prefix_bound(form))
    conds = [(True, form.start)]  # holds from the start when nothing is constrained
    for label, seq, present in _positions(form, width):
        if all(g.at(label) == 0 for g in gens):
            rel, k = settle_cmp(seq, Fraction(0))
            conds.append((rel == 0, max(k, present)))
    return conds
