"""The lazy walks give exactly what the eager walks give.

``check_solid`` walks the cached probe grid and tests membership only where
the walk reaches.  The eager version below tests every grid point first,
after the same rules and the same closed form for an open interval (-u, u);
it is kept here as a reference, and the walk must agree with it on
statuses, witnesses and pair counts.  The closure search probes its candidate
families lazily and stops at the first that refutes; over the same
catalogue, every closure verdict is replayed by an eager walk over the whole
candidate list: a refutation is the first candidate that ``_try_witness``
accepts, and an unknown report counts every candidate, none of which
refutes.
"""

from fractions import Fraction

import pytest

from ordertopo.carriers import TAIL_SEQ, Vec, findim, leq, ones, scale, unit, zero
from ordertopo.ordersets import (
    MAX_SOLID_PAIRS,
    Band,
    Complement,
    Intersection,
    IntervalSet,
    SolidHull,
    SolidityVerdict,
    TailZero,
    Union,
    _open_box_witness,
    _solid_rules,
    carrier_of,
    check_solid,
    closed_interval,
    grid_vectors,
    member,
    open_interval,
)
from ordertopo.topology import (
    DEFAULT_CONFIG,
    _try_witness,
    _witness_candidates,
    check_order_closed,
    check_quasi_order_closed,
    normalize_expr,
)

F = Fraction
CARRIERS = [findim(1), findim(2), findim(3), findim(4), TAIL_SEQ]


def eager_check_solid(expr):
    trace = _solid_rules(expr)
    if trace is not None:
        return SolidityVerdict("certified", tuple(trace))
    if isinstance(expr, IntervalSet) and expr.interval.lo == -expr.interval.hi:
        return SolidityVerdict("refuted", witness=_open_box_witness(expr.interval.hi))
    carrier = carrier_of(expr)
    if carrier is None:
        return SolidityVerdict("unknown")
    probes = list(grid_vectors(carrier))
    inside = [x for x in probes if member(expr, x)]
    tried = 0
    for x in inside:
        ax = abs(x)
        for y in probes:
            tried += 1
            if tried > MAX_SOLID_PAIRS:
                return SolidityVerdict("unknown", searched=tried - 1)
            if leq(abs(y), ax) and not member(expr, y):
                return SolidityVerdict("refuted", witness=(x, y), searched=tried)
    return SolidityVerdict("unknown", searched=tried)


def catalogue(carrier):
    o, one, e1 = zero(carrier), ones(carrier), unit(carrier, 1)
    half = scale(F(1, 2), one)
    sets = [
        Complement(IntervalSet(open_interval(o, one))),  # open-box complement
        Complement(IntervalSet(open_interval(-e1, e1))),  # the separating counterexample
        IntervalSet(closed_interval(-one, one)),  # solid
        IntervalSet(closed_interval(o, one)),  # not solid
        IntervalSet(open_interval(-one, one)),
        IntervalSet(closed_interval(-half, one)),
        Union((IntervalSet(closed_interval(-half, half)), IntervalSet(closed_interval(o, one)))),
        Union((IntervalSet(closed_interval(-half, half)), Band((e1,)))),
        Intersection((IntervalSet(closed_interval(-one, one)), Complement(SolidHull((half,))))),
        Complement(IntervalSet(closed_interval(scale(2, one), scale(3, one)))),
    ]
    if carrier == TAIL_SEQ:
        sets.append(Complement(TailZero()))
    return sets


CASES = [(c, s) for c in CARRIERS for s in catalogue(c)]


# (closed set, check, whether non-monotone families may refute) per mode
MODES = {
    "quasi": (lambda s: s, check_quasi_order_closed, False),
    "order": (lambda s: s, check_order_closed, True),
    "open": (Complement, check_quasi_order_closed, False),
}


@pytest.mark.parametrize("carrier, expr", CASES)
def test_chain_probes_match_the_eager_walk(carrier, expr):
    for mode, (closed_set, check, nonmonotone) in MODES.items():
        target = closed_set(expr)
        got = check(target)
        if got.status == "certified":
            continue
        norm = normalize_expr(target)
        searched = carrier_of(norm)  # a set without a vector is not searched
        candidates = [] if searched is None else _witness_candidates(
            norm, searched, DEFAULT_CONFIG, nonmonotone)
        hits = (_try_witness(norm, fam, nonmonotone) for fam in candidates)
        first = next((hit for hit in hits if hit is not None), None)
        if got.status == "refuted":
            assert got.witness == first, mode
        else:
            assert first is None, mode
            assert got.search_report.candidates == len(candidates), mode


@pytest.mark.parametrize("carrier, expr", CASES)
def test_check_solid_matches_the_eager_walk(carrier, expr):
    got, want = check_solid(expr), eager_check_solid(expr)
    assert (got.status, got.witness, got.searched) == (want.status, want.witness, want.searched)


def test_catalogue_reaches_every_solidity_outcome():
    statuses = {check_solid(s).status for _, s in CASES}
    assert statuses == {"certified", "refuted", "unknown"}


def test_check_solid_takes_each_absolute_value_once(monkeypatch):
    calls = 0
    real = Vec.__abs__

    def counting(v):
        nonlocal calls
        calls += 1
        return real(v)

    carrier = findim(3)
    # not symmetric, so the grid walk decides it
    expr = IntervalSet(open_interval(-ones(carrier), ones(carrier) + unit(carrier, 1)))
    monkeypatch.setattr(Vec, "__abs__", counting)
    verdict = check_solid(expr)
    assert verdict.searched > len(grid_vectors(carrier))
    assert calls <= len(grid_vectors(carrier))
