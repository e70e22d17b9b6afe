"""Closed-form tails of template sequences.

Every template family in this package is, from a computable index on, one
of three symbolic shapes: constant; monotone to a limit, c + v*kernel(k),
where the kernel decreases strictly to zero and is geometric (lam^k) or
harmonic (1/(k+1+q)); or a two-level shift (fixed prefix, then a head
value up to position k, then a constant tail value).  The kernel owns its
exact values and its exact threshold solving.  This module provides exact
evaluation, limits, and -- the load-bearing part -- *settled* three-way
comparisons: for any such sequence and rational bound, the eventual
relation together with the least index from which it no longer changes.

The shapes are closed under affine maps, running suprema, and meets with a
constant vector, which is what makes eventual membership decidable for all
templates rather than sampled.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union as TUnion

from .carriers import TAIL_SEQ, Carrier, CoordLabel, Vec, inf, sup
from .rationals import ZERO, floor_frac, rat
from .records import record

Rel = int  # -1 below, 0 equal, +1 above


def _cmp(a: Fraction, b: Fraction) -> Rel:
    return (a > b) - (a < b)


def _least_true(pred: Callable[[int], bool], start: int) -> int:
    """Least k >= start with pred(k), for pred that is monotone once true."""
    if pred(start):
        return start
    step = 1
    while not pred(start + step):
        step *= 2
    lo, hi = start + step // 2, start + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


# -- kernels ---------------------------------------------------------------------


@record
class Geom:
    """k -> lam^k with 0 < lam < 1."""

    lam: Fraction

    def at(self, k: int) -> Fraction:
        return self.lam ** k

    def first_below(self, t: Fraction, start: int) -> int:
        """Least k >= start with lam^k < t.

        The float hint floor(log t / log lam) + 1 is confirmed exactly by
        lam^k < t <= lam^(k-1), from one power; if the hint misses, the exact
        bracket search decides.
        """
        if t <= 0:
            raise ValueError("a kernel threshold must be positive")
        k = max(start, _log_hint(self.lam, t))
        if k == start:
            if self.at(k) < t:
                return k
        else:
            prev = self.at(k - 1)
            if prev * self.lam < t <= prev:
                return k
        return _least_true(lambda i: self.at(i) < t, start)


def _log_hint(lam: Fraction, t: Fraction) -> int:
    """floor(log t / log lam) + 1 in floats, or 0 where floats give no hint.

    The logs come from the integer numerators and denominators, so no float
    range limits them; log lam goes through log1p near 1.
    """
    log_t = math.log(t.numerator) - math.log(t.denominator)
    if lam > Fraction(1, 2):
        log_lam = math.log1p(-float(1 - lam))
    else:
        log_lam = math.log(lam.numerator) - math.log(lam.denominator)
    x = log_t / log_lam if log_lam else math.inf
    return math.floor(x) + 1 if math.isfinite(x) else 0


@record
class Harmonic:
    """k -> 1/(k+1+q) with q >= 0."""

    q: Fraction

    def at(self, k: int) -> Fraction:
        # with q = p/s: 1/(k+1+q) = s/((k+1)*s + p), normalized once
        s = self.q.denominator
        return Fraction(s, (k + 1) * s + self.q.numerator)

    def first_below(self, t: Fraction, start: int) -> int:
        """Least k >= start with 1/(k+1+q) < t, solved exactly."""
        if t <= 0:
            raise ValueError("a kernel threshold must be positive")
        # 1/(k+1+q) < t  <=>  k > 1/t - 1 - q, floored in integers:
        # with t = n/d and q = p/s, 1/t - 1 - q = (d*s - n*(s+p)) / (n*s)
        n, d = t.numerator, t.denominator
        p, s = self.q.numerator, self.q.denominator
        return max(start, (d * s - n * (s + p)) // (n * s) + 1)


Kernel = TUnion[Geom, Harmonic]


# -- scalar sequences ----------------------------------------------------------


@record
class ConstSeq:
    a: Fraction
    start: int = 0


@record
class MonoSeq:
    """a + b * kernel(k) with b != 0; strictly monotone to a."""

    a: Fraction
    b: Fraction
    kernel: Kernel
    start: int = 0


@record
class StepSeq:
    """Constant ``before`` until position ``at``, constant ``after`` from it."""

    before: Fraction
    after: Fraction
    at: int
    start: int = 0


ScalarSeq = TUnion[ConstSeq, MonoSeq, StepSeq]


def make_mono(a, b, kernel: Kernel, start=0) -> ScalarSeq:
    return ConstSeq(rat(a), start) if b == 0 else MonoSeq(rat(a), rat(b), kernel, start)


def make_geom(a, b, lam, start=0) -> ScalarSeq:
    return make_mono(a, b, Geom(rat(lam)), start)


def make_decay(a, b, q, start=0) -> ScalarSeq:
    return make_mono(a, b, Harmonic(rat(q)), start)


def seq_eval(s: ScalarSeq, k: int) -> Fraction:
    if isinstance(s, ConstSeq):
        return s.a
    if isinstance(s, MonoSeq):
        return s.a + s.b * s.kernel.at(k)
    return s.after if k >= s.at else s.before


def seq_limit(s: ScalarSeq) -> Fraction:
    if isinstance(s, StepSeq):
        return s.after
    return s.a


def settle_cmp(s: ScalarSeq, r: Fraction) -> tuple[Rel, int]:
    """Eventual three-way relation of s(k) against r, with its settle index.

    Returns (rel, K) such that sign(s(k) - r) == rel for every k >= K.
    """
    r = rat(r)
    if isinstance(s, ConstSeq):
        return _cmp(s.a, r), s.start
    if isinstance(s, StepSeq):
        rel = _cmp(s.after, r)
        if _cmp(s.before, r) == rel:
            return rel, s.start
        return rel, max(s.start, s.at)
    # a + b*kernel(k) stays strictly on b's side of a; it crosses r exactly
    # when r lies on that side, from the first k with kernel(k) < (r-a)/b
    side = 1 if s.b > 0 else -1
    if not (r > s.a if side > 0 else r < s.a):
        return side, s.start
    return -side, s.kernel.first_below((r - s.a) / s.b, s.start)


def seq_neg(s: ScalarSeq) -> ScalarSeq:
    if isinstance(s, ConstSeq):
        return ConstSeq(-s.a, s.start)
    if isinstance(s, MonoSeq):
        return MonoSeq(-s.a, -s.b, s.kernel, s.start)
    return StepSeq(-s.before, -s.after, s.at, s.start)


def seq_eventually_le(A: ScalarSeq, B: ScalarSeq) -> tuple[bool, int]:
    """Decide the eventual truth of A(k) <= B(k).

    Returns (True, K) when A(k) <= B(k) for all k >= K, and (False, K) when
    A(k) > B(k) for all k >= K.
    """
    start = max(A.start, B.start)
    if isinstance(A, StepSeq):
        ok, k = seq_eventually_le(ConstSeq(A.after, max(A.at, A.start)), B)
        return ok, max(k, A.at, start)
    if isinstance(B, StepSeq):
        ok, k = seq_eventually_le(A, ConstSeq(B.after, max(B.at, B.start)))
        return ok, max(k, B.at, start)
    la, lb = seq_limit(A), seq_limit(B)
    if la != lb:
        m = (la + lb) / 2
        _, ka = settle_cmp(A, m)
        _, kb = settle_cmp(B, m)
        return la < lb, max(start, ka, kb)
    # equal limits
    if isinstance(A, ConstSeq) and isinstance(B, ConstSeq):
        return A.a <= B.a, start
    if isinstance(A, ConstSeq):
        # B approaches la from one side and never touches it
        return B.b > 0, start
    if isinstance(B, ConstSeq):
        return A.b < 0, start
    ca, cb = A.b, B.b
    if ca < 0 < cb:
        return True, start
    if cb < 0 < ca:
        return False, start
    if ca < 0 and cb < 0:
        # mirror: A <= B  <=>  -B <= -A with both coefficients positive
        ok, k = _le_same_limit_positive(seq_neg(B), seq_neg(A))
        return ok, k
    return _le_same_limit_positive(A, B)


def _le_same_limit_positive(A: MonoSeq, B: MonoSeq) -> tuple[bool, int]:
    """A, B share a limit and both approach it strictly from above."""
    start = max(A.start, B.start)
    ka, kb = A.kernel, B.kernel
    if isinstance(ka, Geom) and isinstance(kb, Geom):
        if ka.lam == kb.lam:
            return A.b <= B.b, start
        if ka.lam < kb.lam:
            # (A - l)/(B - l) -> 0, single crossing
            k = _least_true(lambda i: seq_eval(A, i) <= seq_eval(B, i), start)
            return True, k
        k = _least_true(lambda i: seq_eval(A, i) > seq_eval(B, i), start)
        return False, k
    if isinstance(ka, Harmonic) and isinstance(kb, Harmonic):
        # difference sign is the sign of (bA - bB)k + bA(1+qB) - bB(1+qA)
        slope = A.b - B.b
        const = A.b * (1 + kb.q) - B.b * (1 + ka.q)
        if slope == 0:
            return const <= 0, start
        x = -const / slope
        k = max(start, floor_frac(x) + 1)
        return slope < 0, k
    # one geometric and one harmonic kernel: the geometric side drops below
    # the harmonic one for good, from an index past k* on
    ok = isinstance(ka, Geom)
    g, h = (ka, kb) if ok else (kb, ka)
    k = _least_true(lambda i: (A.b * ka.at(i) <= B.b * kb.at(i)) == ok,
                    max(start, _monotone_from(g.lam, h.q)))
    return ok, k


def _monotone_from(lam: Fraction, q: Fraction) -> int:
    """Index past which lam^k * (k+1+q) is strictly decreasing."""
    # ratio < 1  <=>  lam (k+2+q) < k+1+q  <=>  k (1-lam) > lam(2+q) - (1+q)
    x = (lam * (2 + q) - (1 + q)) / (1 - lam)
    return max(0, floor_frac(x) + 1)


# -- vector forms ----------------------------------------------------------------


@record
class ConstForm:
    v: Vec
    start: int = 0


@record
class MonoForm:
    """c + v * kernel(k), coordinatewise, with v != 0."""

    c: Vec
    v: Vec
    kernel: Kernel
    start: int = 0


@record
class ShiftForm:
    """Tailseq only: fixed prefix, head up to position k, tail beyond."""

    fixed: tuple[Fraction, ...]
    head: Fraction
    tailv: Fraction
    start: int = 0

    def __post_init__(self):
        if self.start < len(self.fixed):
            object.__setattr__(self, "start", len(self.fixed))


Form = TUnion[ConstForm, MonoForm, ShiftForm]


def make_shift_form(fixed, head, tailv, start) -> Form:
    fixed = tuple(rat(f) for f in fixed)
    head, tailv = rat(head), rat(tailv)
    if head == tailv:
        return ConstForm(Vec(TAIL_SEQ, fixed, head), max(start, len(fixed)))
    return ShiftForm(fixed, head, tailv, start)


def make_mono_form(c: Vec, v: Vec, kernel: Kernel, start=0) -> Form:
    return ConstForm(c, start) if v.is_zero() else MonoForm(c, v, kernel, start)


def form_carrier(form: Form) -> Carrier:
    if isinstance(form, ConstForm):
        return form.v.carrier
    if isinstance(form, MonoForm):
        return form.c.carrier
    return TAIL_SEQ


def form_eval(form: Form, k: int) -> Vec:
    """Exact value at index k (requires k >= form.start)."""
    if k < form.start:
        raise ValueError(f"form valid from {form.start}, got {k}")
    if isinstance(form, ConstForm):
        return form.v
    if isinstance(form, MonoForm):
        return form.c + form.v * form.kernel.at(k)
    pad = (form.head,) * (k - len(form.fixed))
    return Vec(TAIL_SEQ, form.fixed + pad, form.tailv)


def form_limit(form: Form) -> Vec:
    """Pointwise limit vector (always a carrier element for these shapes)."""
    if isinstance(form, ConstForm):
        return form.v
    if isinstance(form, MonoForm):
        return form.c
    return Vec(TAIL_SEQ, form.fixed, form.head)


def form_prefix_bound(form: Form) -> int:
    if isinstance(form, ConstForm):
        return form.v.prefix_len
    if isinstance(form, MonoForm):
        return max(form.c.prefix_len, form.v.prefix_len)
    return len(form.fixed)


def affine_form(form: Form, t: Fraction, b: Optional[Vec] = None) -> Form:
    """The form of k -> t * value(k) + b."""
    t = rat(t)
    if t == 0:
        raise ValueError("affine form needs a nonzero scale")
    if isinstance(form, ConstForm):
        v = form.v * t
        return ConstForm(v + b if b is not None else v, form.start)
    if isinstance(form, MonoForm):
        c = form.c * t
        return make_mono_form(c + b if b is not None else c, form.v * t, form.kernel,
                              form.start)
    # shift: offsets with a longer prefix than the fixed part push the start up
    off = b if b is not None else Vec.seq((), 0)
    width = max(len(form.fixed), off.prefix_len)
    fixed = tuple(
        t * (form.fixed[j] if j < len(form.fixed) else form.head) + off.coord(j + 1)
        for j in range(width)
    )
    return make_shift_form(fixed, t * form.head + off.tail, t * form.tailv + off.tail,
                           max(form.start, width))


# -- per-coordinate profiles ------------------------------------------------------


def coord_profile(form: Form, j: int) -> ScalarSeq:
    """Scalar sequence of the values at fixed 1-based position j."""
    if isinstance(form, ConstForm):
        return ConstSeq(form.v.coord(j), form.start)
    if isinstance(form, MonoForm):
        return make_mono(form.c.coord(j), form.v.coord(j), form.kernel, form.start)
    if j <= len(form.fixed):
        return ConstSeq(form.fixed[j - 1], form.start)
    if j <= form.start:
        return ConstSeq(form.head, form.start)
    return StepSeq(form.tailv, form.head, j, form.start)


def tail_profile(form: Form) -> ScalarSeq:
    """Scalar sequence of the tail field of the values (tailseq only)."""
    if isinstance(form, ConstForm):
        return ConstSeq(form.v.tail, form.start)  # type: ignore[arg-type]
    if isinstance(form, MonoForm):
        return make_mono(form.c.tail, form.v.tail, form.kernel, form.start)
    return ConstSeq(form.tailv, form.start)


def far_members(form: Form, bound: int) -> list[tuple[ScalarSeq, int]]:
    """Value sequences occurring at positions beyond ``bound``.

    Each entry is (sequence, present_from): the sequence value appears at
    some position > bound for every index k >= present_from.  ``bound``
    must dominate the form's structural prefix.
    """
    if bound < form_prefix_bound(form):
        raise ValueError("far bound below the form's prefix")
    if isinstance(form, ShiftForm):
        return [
            (ConstSeq(form.head, form.start), max(form.start, bound + 1)),
            (ConstSeq(form.tailv, form.start), form.start),
        ]
    return [(tail_profile(form), form.start)]


_OPS = {"le", "ge", "lt", "gt", "eq"}


def _rel_ok(rel: Rel, op: str) -> bool:
    if op == "le":
        return rel <= 0
    if op == "ge":
        return rel >= 0
    if op == "lt":
        return rel < 0
    if op == "gt":
        return rel > 0
    return rel == 0


def _and(conds: Sequence[tuple[bool, int]]) -> tuple[bool, int]:
    """Conjunction of settled truths: true from the latest index, or false
    from the earliest failing one."""
    if all(ok for ok, _ in conds):
        return True, max(k for _, k in conds)
    return False, min(k for ok, k in conds if not ok)


def _or(conds: Sequence[tuple[bool, int]]) -> tuple[bool, int]:
    if any(ok for ok, _ in conds):
        return True, min(k for ok, k in conds if ok)
    return False, max(k for _, k in conds)


def _positions(form: Form, width: int) -> list[tuple[CoordLabel, ScalarSeq, int]]:
    """(label, profile, present_from) for every position of the values.

    Findim forms list their coordinates.  Tailseq forms list positions
    1..width, then the far members beyond ``width`` under the label "tail";
    a far member's value occurs at some position from ``present_from`` on.
    """
    carrier = form_carrier(form)
    if carrier.kind == "findim":
        return [(j, coord_profile(form, j), form.start) for j in range(1, carrier.dim + 1)]
    return ([(j, coord_profile(form, j), form.start) for j in range(1, width + 1)]
            + [("tail", seq, present) for seq, present in far_members(form, width)])


def form_settle_vs_vec(form: Form, w: Vec, op: str) -> tuple[bool, int]:
    """Eventual truth of ``value(k) op w`` coordinatewise (tail included).

    (True, K): holds for all k >= K; (False, K): fails for all k >= K.
    """
    return form_settle_ops(form, w, (op,))[0]


def form_settle_ops(form: Form, w: Vec, ops: Sequence[str]) -> list[tuple[bool, int]]:
    """``form_settle_vs_vec`` under each of ``ops``, one settle per position."""
    for op in ops:
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r}")
    settled = [(settle_cmp(seq, w.at(label)), present) for label, seq, present
               in _positions(form, max(form_prefix_bound(form), w.prefix_len))]
    out = []
    for op in ops:
        conds = []
        for (rel, k), present in settled:
            ok = _rel_ok(rel, op)
            # a failing position only counts once its value is present
            conds.append((ok, k if ok else max(k, present)))
        out.append(_and(conds))
    return out


# -- closure under running suprema and meets ---------------------------------------


def _per_label(form: MonoForm, other: Optional[Vec], rule) -> Form:
    """Rebuild a MonoForm label by label against a vector (or None).

    ``rule(c, v, w)`` gets the form's limit and coefficient at one label and
    the vector's entry there (None without a vector); it returns the new
    limit and coefficient there and the index from which they hold.
    """
    carrier = form_carrier(form)
    width = max(form_prefix_bound(form), other.prefix_len if other is not None else 0)
    tail = carrier.kind == "tailseq"
    labels = list(range(1, width + 1)) + (["tail"] if tail else [])
    cs, vs, ks = zip(*(rule(form.c.at(lab), form.v.at(lab),
                            None if other is None else other.at(lab)) for lab in labels))

    def vec(xs) -> Vec:
        return Vec(carrier, xs[:width], xs[width] if tail else None)

    return make_mono_form(vec(cs), vec(vs), form.kernel, max((form.start,) + ks))


def running_sup_form(form: Form, early_sup: Optional[Vec]) -> Form:
    """Form of k -> early_sup v (sup of value(j) for form.start <= j <= k)."""
    if isinstance(form, ConstForm):
        v = form.v if early_sup is None else sup(form.v, early_sup)
        return ConstForm(v, form.start)
    if isinstance(form, MonoForm):
        def rule(c, v, e):
            if v >= 0:
                # decreasing coordinate: the running max freezes at form.start
                top = c + v * form.kernel.at(form.start)
                return (top if e is None else max(top, e)), ZERO, form.start
            # increasing to c: either an early value dominates forever or
            # the curve overtakes it at a computable index
            if e is None:
                return c, v, form.start
            if e >= c:
                return e, ZERO, form.start
            rel, k0 = settle_cmp(make_mono(c, v, form.kernel, form.start), e)
            if rel <= 0:
                raise AssertionError("increasing coordinate must pass e")
            return c, v, k0

        return _per_label(form, early_sup, rule)
    # shift form
    s = form.start
    fixed = form.fixed + (form.head,) * (s - len(form.fixed))
    head = max(form.head, form.tailv)
    tailv = form.tailv
    if early_sup is not None:
        width = max(len(fixed), early_sup.prefix_len)
        fixed = tuple(
            max(fixed[j] if j < len(fixed) else head, early_sup.coord(j + 1))
            for j in range(width)
        )
        head = max(head, early_sup.tail)
        tailv = max(tailv, early_sup.tail)
    return make_shift_form(fixed, head, tailv, max(s, len(fixed)))


def meet_const_form(form: Form, cap: Vec) -> Form:
    """Form of k -> value(k) ^ cap."""
    if isinstance(form, ConstForm):
        return ConstForm(inf(form.v, cap), form.start)
    if isinstance(form, MonoForm):
        def rule(c, v, m):
            if v == 0:
                return min(c, m), ZERO, form.start
            seq = make_mono(c, v, form.kernel, form.start)
            if v > 0:
                # strictly decreasing, always above c
                if m <= c:
                    return m, ZERO, form.start
                if m >= seq_eval(seq, form.start):
                    return c, v, form.start
                return c, v, settle_cmp(seq, m)[1]
            # strictly increasing, always below c
            if m >= c:
                return c, v, form.start
            return m, ZERO, settle_cmp(seq, m)[1]

        return _per_label(form, cap, rule)
    width = max(len(form.fixed), cap.prefix_len)
    fixed = tuple(
        min(form.fixed[j] if j < len(form.fixed) else form.head, cap.coord(j + 1))
        for j in range(width)
    )
    return make_shift_form(fixed, min(form.head, cap.tail), min(form.tailv, cap.tail),
                           max(form.start, width))


def abs_centered_form(form: Form) -> Form:
    """Form of k -> |value(k)| for a form whose limit is zero."""
    if isinstance(form, ConstForm):
        return ConstForm(abs(form.v), form.start)
    if isinstance(form, MonoForm):
        if not form.c.is_zero():
            raise ValueError("absolute form needs a zero limit")
        return MonoForm(form.c, abs(form.v), form.kernel, form.start)
    if any(f != 0 for f in form.fixed) or form.head != 0:
        raise ValueError("absolute form needs a zero limit")
    return ShiftForm(form.fixed, form.head, abs(form.tailv), form.start)


def form_eventually_le(lhs: Form, rhs: Form) -> tuple[bool, int]:
    """Eventual coordinatewise domination lhs(k) <= rhs(k) (tail included)."""
    carrier = form_carrier(lhs)
    if carrier != form_carrier(rhs):
        raise ValueError("forms live in different carriers")
    start = max(lhs.start, rhs.start)
    conds: list[tuple[ScalarSeq, ScalarSeq]] = []
    if carrier.kind == "findim":
        for j in range(1, carrier.dim + 1):
            conds.append((coord_profile(lhs, j), coord_profile(rhs, j)))
    else:
        bound = max(form_prefix_bound(lhs), form_prefix_bound(rhs), start)
        for j in range(1, bound + 1):
            conds.append((coord_profile(lhs, j), coord_profile(rhs, j)))
        # far zones align positionwise for shift forms; otherwise compare tails
        if isinstance(lhs, ShiftForm) and isinstance(rhs, ShiftForm):
            conds.append((ConstSeq(lhs.head, start), ConstSeq(rhs.head, start)))
            conds.append((ConstSeq(lhs.tailv, start), ConstSeq(rhs.tailv, start)))
        else:
            for lseq, _ in far_members(lhs, bound):
                for rseq, _ in far_members(rhs, bound):
                    conds.append((lseq, rseq))
    return _and([seq_eventually_le(lseq, rseq) for lseq, rseq in conds])
