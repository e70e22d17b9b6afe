"""Randomized cross-checks of the closed-form machinery against brute force.

These are the adversarial tests: random template trees (including nested
running-sup-meets) and random grammar sets, with every closed-form claim
replayed by long exact scans.
"""

import random
from fractions import Fraction

from ordertopo.carriers import TAIL_SEQ, findim, leq
from ordertopo.eventual import form_eval
from ordertopo.families import (
    Certificate,
    CoordDecay,
    Explicit,
    RunningSupMeet,
    Scale,
    Shift,
    eventually_in,
    form_of,
    index_base,
    monotonicity,
    order_converges,
    pointwise_limit,
    validate_certificate,
    value,
    values_iter,
)
from ordertopo.ordersets import (
    Band,
    Complement,
    Dilate,
    HalfSpace,
    Ideal,
    Intersection,
    IntervalSet,
    SetExpr,
    SolidHull,
    TailZero,
    Translate,
    Union,
    closed_interval,
    member,
    open_interval,
)
from ordertopo.topology import normalize_expr
from randvec import rand_rat, rand_vec

F = Fraction


def random_family(rng, carrier, depth=2):
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        base = random_family(rng, carrier, depth - 1)
        cap = rand_vec(rng, carrier, max_den=6, max_prefix=2)
        return RunningSupMeet(base, cap)
    if carrier == TAIL_SEQ and roll < 0.45:
        return Shift(rand_rat(rng, max_den=4, max_num=4),
                     rand_rat(rng, max_den=4, max_num=4))
    if roll < 0.6:
        v = abs(rand_vec(rng, carrier, max_den=6, max_prefix=2))
        return Scale(v, rng.choice([F(1, 2), F(1, 3), F(3, 4)]))
    if roll < 0.85:
        c = rand_vec(rng, carrier, max_den=6, max_prefix=2)
        p = rand_vec(rng, carrier, max_den=6, max_prefix=2)
        return CoordDecay(c, p, rng.choice([F(0), F(1, 2), F(2)]))
    n = rng.randint(1, 4)
    return Explicit(tuple(rand_vec(rng, carrier, max_den=6, max_prefix=2)
                          for _ in range(n)))


def random_set(rng, carrier, depth=2) -> SetExpr:
    roll = rng.random()
    if depth > 0 and roll < 0.35:
        inner = random_set(rng, carrier, depth - 1)
        pick = rng.random()
        if pick < 0.3:
            return Complement(inner)
        if pick < 0.5:
            return Union((inner, random_set(rng, carrier, depth - 1)))
        if pick < 0.7:
            return Intersection((inner, random_set(rng, carrier, depth - 1)))
        if pick < 0.85:
            return Translate(inner, rand_vec(rng, carrier, max_den=4, max_prefix=2))
        factor = rng.choice([F(2), F(-1), F(1, 2), F(-3, 2)])
        return Dilate(inner, factor)
    pick = rng.random()
    if pick < 0.35:
        a = rand_vec(rng, carrier, max_den=4, max_prefix=2)
        b = rand_vec(rng, carrier, max_den=4, max_prefix=2)
        lo, hi = (a, b) if leq(a, b) else (b, a)
        from ordertopo.carriers import inf as vinf, sup as vsup

        lo, hi = vinf(a, b), vsup(a, b)
        if rng.random() < 0.5 or lo == hi:
            return IntervalSet(closed_interval(lo, hi))
        return IntervalSet(open_interval(lo, hi))
    if pick < 0.55:
        coord = ("tail" if carrier == TAIL_SEQ and rng.random() < 0.3
                 else rng.randint(1, carrier.dim if carrier.kind == "findim" else 4))
        relation = rng.choice(["le", "ge"])
        return HalfSpace(coord, relation, rand_rat(rng, max_den=4, max_num=4))
    if pick < 0.7:
        gens = tuple(rand_vec(rng, carrier, max_den=4, max_prefix=2)
                     for _ in range(rng.randint(1, 2)))
        if any(not g.is_zero() for g in gens):
            return rng.choice([Ideal, Band, SolidHull])(gens)
        return HalfSpace(1, "ge", F(0))
    if carrier == TAIL_SEQ and pick < 0.85:
        return TailZero()
    gens = (abs(rand_vec(rng, carrier, max_den=4, max_prefix=2)),)
    if gens[0].is_zero():
        return HalfSpace(1, "le", F(0))
    return SolidHull(gens)


def test_forms_match_values_on_random_family_trees():
    rng = random.Random(555001)
    for trial in range(120):
        carrier = findim(rng.randint(1, 3)) if rng.random() < 0.5 else TAIL_SEQ
        fam = random_family(rng, carrier)
        form = form_of(fam)
        k0 = index_base(fam)
        vals = list(values_iter(fam, form.start + 25))
        for k in range(form.start, form.start + 25):
            assert form_eval(form, k) == vals[k - k0], (trial, fam, k)


def test_monotonicity_claims_hold_on_long_scans():
    rng = random.Random(555002)
    for trial in range(120):
        carrier = findim(rng.randint(1, 3)) if rng.random() < 0.5 else TAIL_SEQ
        fam = random_family(rng, carrier)
        direction = monotonicity(fam).direction
        vals = list(values_iter(fam, index_base(fam) + 300))
        down = all(leq(b, a) for a, b in zip(vals, vals[1:]))
        up = all(leq(a, b) for a, b in zip(vals, vals[1:]))
        if direction == "decreasing":
            assert down, (trial, fam)
        elif direction == "increasing":
            assert up, (trial, fam)
        else:
            assert not down and not up, (trial, fam)


def test_convergence_certificates_validate_on_random_trees():
    rng = random.Random(555003)
    for trial in range(80):
        carrier = findim(rng.randint(1, 3)) if rng.random() < 0.5 else TAIL_SEQ
        fam = random_family(rng, carrier)
        limit = pointwise_limit(fam)
        got = order_converges(fam, limit)
        assert isinstance(got, Certificate), (trial, fam)
        assert validate_certificate(fam, got), (trial, fam)
        # spot-check the domination by hand on a long window
        dom = got.dominating
        k0 = max(index_base(fam), index_base(dom))
        for k in range(k0, k0 + 60):
            assert leq(abs(value(fam, k) - limit), value(dom, k)), (trial, fam, k)


def test_eventually_in_matches_long_exact_scan():
    rng = random.Random(555004)
    checked = 0
    for trial in range(250):
        carrier = findim(rng.randint(1, 3)) if rng.random() < 0.5 else TAIL_SEQ
        fam = random_family(rng, carrier, depth=1)
        expr = random_set(rng, carrier, depth=2)
        got = eventually_in(fam, expr)
        assert got.status in ("holds-from", "fails-from"), (trial, fam, expr)
        k0 = index_base(fam)
        horizon = got.settled_at + 120
        membership = [member(expr, v) for v in values_iter(fam, horizon)]
        if got.status == "holds-from":
            assert all(membership[got.index - k0:]), (trial, fam, expr)
            if got.index > k0:
                assert not membership[got.index - 1 - k0], (trial, fam, expr)
        else:
            assert not any(membership[got.index - k0:]), (trial, fam, expr)
        checked += 1
    assert checked == 250


def _nodes(expr):
    yield expr
    if isinstance(expr, (Complement, Translate, Dilate)):
        yield from _nodes(expr.inner)
    elif isinstance(expr, (Union, Intersection)):
        for p in expr.parts:
            yield from _nodes(p)


def test_normalization_leaves_no_dilate_and_keeps_membership():
    # the rules that take normalized input have no dilate case
    rng = random.Random(555005)
    dilated = translated = 0
    for trial in range(1000):
        carrier = findim(rng.randint(1, 3)) if rng.random() < 0.5 else TAIL_SEQ
        expr = random_set(rng, carrier, depth=rng.randint(1, 5))
        norm = normalize_expr(expr)
        nodes = list(_nodes(norm))
        assert not any(isinstance(n, Dilate) for n in nodes), (trial, expr)
        dilated += any(isinstance(n, Dilate) for n in _nodes(expr))
        translated += any(isinstance(n, Translate) for n in nodes)
        for _ in range(5):
            z = rand_vec(rng, carrier, max_den=4, max_prefix=3)
            assert member(expr, z) == member(norm, z), (trial, expr, z)
    assert dilated > 50 and translated > 0
