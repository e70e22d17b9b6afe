"""The lazy grid walks give exactly what the eager walks gave.

``_chain_probes`` and ``check_solid`` walk the cached probe grid and test
membership only where the walk reaches.  The eager versions below test
every grid point first; they are kept here as references, and both walks
must agree with them on chains, statuses, witnesses and pair counts.
"""

from fractions import Fraction

import pytest

import ordertopo.topology as topology
from ordertopo.carriers import TAIL_SEQ, Vec, findim, leq, ones, scale, unit, zero
from ordertopo.families import Explicit
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
    _solid_rules,
    carrier_of,
    check_solid,
    closed_interval,
    grid_vectors,
    member,
    open_interval,
)
from ordertopo.topology import _chain_probes, normalize_expr

F = Fraction
CARRIERS = [findim(1), findim(2), findim(3), findim(4), TAIL_SEQ]


def eager_chain_probes(expr, carrier):
    points = [p for p in grid_vectors(carrier) if member(expr, p)]
    chains = []
    for start in points:
        if len(chains) >= topology.MAX_CHAINS:
            break
        above = next((q for q in points if q != start and leq(start, q)), None)
        if above is not None:
            chains.append(Explicit((start, above)))
    return chains


def eager_check_solid(expr):
    trace = _solid_rules(expr)
    if trace is not None:
        return SolidityVerdict("certified", tuple(trace))
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


@pytest.mark.parametrize("carrier, expr", CASES)
def test_chain_probes_match_the_eager_walk(carrier, expr, monkeypatch):
    norm = normalize_expr(expr)
    for max_chains in (0, 1, 4, 9):
        monkeypatch.setattr(topology, "MAX_CHAINS", max_chains)
        assert _chain_probes(norm, carrier) == eager_chain_probes(norm, carrier)


@pytest.mark.parametrize("carrier, expr", CASES)
def test_check_solid_matches_the_eager_walk(carrier, expr):
    got, want = check_solid(expr), eager_check_solid(expr)
    assert (got.status, got.witness, got.searched) == (want.status, want.witness, want.searched)


def test_catalogue_reaches_every_solidity_outcome():
    statuses = {check_solid(s).status for _, s in CASES}
    assert statuses == {"certified", "refuted", "unknown"}


def test_chain_probes_test_membership_only_where_the_walk_reaches(monkeypatch):
    calls = 0

    def counting(expr, z):
        nonlocal calls
        calls += 1
        return member(expr, z)

    carrier = findim(4)
    expr = normalize_expr(Complement(IntervalSet(open_interval(zero(carrier), ones(carrier)))))
    monkeypatch.setattr(topology, "member", counting)
    chains = _chain_probes(expr, carrier)
    assert len(chains) == topology.MAX_CHAINS
    assert calls < 100  # the eager walk tested all 2401 grid points


def test_check_solid_takes_each_absolute_value_once(monkeypatch):
    calls = 0
    real = Vec.__abs__

    def counting(v):
        nonlocal calls
        calls += 1
        return real(v)

    carrier = findim(3)
    expr = IntervalSet(open_interval(-ones(carrier), ones(carrier)))
    monkeypatch.setattr(Vec, "__abs__", counting)
    verdict = check_solid(expr)
    assert verdict.searched > len(grid_vectors(carrier))
    assert calls <= len(grid_vectors(carrier))
