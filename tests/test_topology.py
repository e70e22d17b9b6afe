import random
from fractions import Fraction

import pytest

from ordertopo.carriers import TAIL_SEQ, Vec, findim, leq, ones, scale, unit, zero
from ordertopo.families import Shift, value
from ordertopo.ordersets import (
    Band,
    Complement,
    Dilate,
    HalfSpace,
    Ideal,
    Intersection,
    IntervalSet,
    SolidHull,
    TailZero,
    Translate,
    Union,
    check_solid,
    closed_interval,
    interval_contains,
    member,
    open_interval,
)
import ordertopo.topology as topology
from ordertopo.topology import (
    check_order_closed,
    check_quasi_order_closed,
    interval_fit,
    is_order_open,
    neighborhood_catalog,
    normalize_expr,
    replay_witness,
    symmetric_chain,
    tau_e_convergence_report,
)
from randvec import rand_vec

F = Fraction


def e1():
    return unit(TAIL_SEQ, 1)


def quadrant():
    # the strictly positive quadrant of Q^2, built from strict half-spaces
    return Intersection((
        Complement(HalfSpace(1, "le", F(0))),
        Complement(HalfSpace(2, "le", F(0))),
    ))


# -- normalization ----------------------------------------------------------------


def test_normalize_pushes_complements():
    s = Complement(quadrant())
    n = normalize_expr(s)
    assert isinstance(n, Union)
    assert all(isinstance(p, HalfSpace) for p in n.parts)


def test_normalize_folds_transforms():
    box = IntervalSet(closed_interval(Vec.fin([0, 0]), Vec.fin([1, 1])))
    s = Translate(Dilate(box, F(2)), Vec.fin([1, 1]))
    n = normalize_expr(s)
    assert isinstance(n, IntervalSet)
    assert n.interval.lo == Vec.fin([1, 1]) and n.interval.hi == Vec.fin([3, 3])


def test_normalize_preserves_membership_randomized():
    rng = random.Random(23)
    box = IntervalSet(closed_interval(Vec.fin([-1, -1]), Vec.fin([1, 1])))
    exprs = [
        Complement(Union((box, HalfSpace(1, "ge", F(2))))),
        Translate(Complement(box), Vec.fin([1, 0])),
        Dilate(Intersection((box, Complement(HalfSpace(2, "le", F(0))))), F(-2)),
        Translate(Dilate(box, F(1, 2)), Vec.fin([-1, 2])),
        Dilate(box, F(3)),
    ]
    for s in exprs:
        n = normalize_expr(s)
        for _ in range(120):
            z = rand_vec(rng, findim(2), max_den=6)
            assert member(n, z) == member(s, z)


def test_normalize_tailseq_transforms_membership():
    rng = random.Random(29)
    s = Translate(TailZero(), Vec.seq([3], 0))
    n = normalize_expr(s)
    assert isinstance(n, TailZero)
    for _ in range(60):
        z = rand_vec(rng, TAIL_SEQ, max_den=6, max_prefix=3)
        assert member(n, z) == member(s, z)


# -- closure verdicts ---------------------------------------------------------------


def test_closed_interval_certified():
    s = IntervalSet(closed_interval(Vec.fin([-1, 0]), Vec.fin([2, 2])))
    got = check_quasi_order_closed(s)
    assert got.status == "certified"
    assert "closed-interval" in got.rule_trace


def test_complement_of_counterexample_interval_refuted():
    s = Complement(IntervalSet(open_interval(-e1(), e1())))
    got = check_quasi_order_closed(s)
    assert got.status == "refuted"
    w = got.witness
    assert w.family == Shift(F(0), F(1))
    assert w.mode == "decreasing"
    assert w.limit == zero(TAIL_SEQ)
    assert w.in_set_from == 1
    assert replay_witness(s, w)


def test_tail_zero_refuted_with_increasing_witness():
    got = check_quasi_order_closed(TailZero())
    assert got.status == "refuted"
    w = got.witness
    assert w.mode == "increasing"
    assert w.limit == ones(TAIL_SEQ)
    assert value(w.family, 3).tail == 0
    assert replay_witness(TailZero(), w)


def test_band_certified_both_carriers():
    assert check_quasi_order_closed(Band((e1(),))).status == "certified"
    assert check_quasi_order_closed(Band((Vec.fin([1, 0, 0]),))).status == "certified"
    assert check_quasi_order_closed(Ideal((Vec.fin([1, 0, 0]),))).status == "certified"


def test_order_closed_shares_certified_rules():
    s = IntervalSet(closed_interval(Vec.fin([-1, -1]), Vec.fin([1, 1])))
    assert check_order_closed(s).status == "certified"
    got = check_order_closed(TailZero())
    assert got.status == "refuted"


def test_order_closed_finds_nonmonotone_witness():
    # {z : z_1 >= 0} minus a closed chunk is not order closed around the
    # mixed-direction decay limit; quasi search (monotone only) also finds
    # witnesses here, so force the convergent route by checking the mode
    s = Complement(IntervalSet(closed_interval(Vec.fin([0, 0]), Vec.fin([1, 1]))))
    got = check_order_closed(s)
    assert got.status == "refuted"
    assert replay_witness(s, got.witness)


def test_duality_of_open_and_closed():
    cases = [
        IntervalSet(open_interval(-e1(), e1())),
        quadrant(),
        IntervalSet(closed_interval(Vec.fin([0, 0]), Vec.fin([1, 1]))),
    ]
    for s in cases:
        lhs = is_order_open(s)
        rhs = check_quasi_order_closed(Complement(s))
        assert lhs.status == rhs.status


def test_counterexample_interval_not_order_open():
    got = is_order_open(IntervalSet(open_interval(-e1(), e1())))
    assert got.status == "refuted"


def test_strictly_positive_quadrant_is_order_open():
    got = is_order_open(quadrant())
    assert got.status == "certified"


def test_full_space_is_order_open():
    got = is_order_open(Intersection(()))
    assert got.status == "certified"


def test_certified_open_sets_closed_under_union_and_intersection():
    a = quadrant()
    b = Translate(quadrant(), Vec.fin([-1, -1]))
    for s in (Union((a, b)), Intersection((a, b))):
        assert is_order_open(s).status == "certified"


def test_solid_certified_quasi_closed_is_order_closed():
    # the solidity remark: for solid sets the two closedness notions agree
    cases = [
        Band((Vec.fin([1, 0, 0]),)),
        Ideal((e1(),)),
        SolidHull((Vec.fin([2, 2]),)),
        IntervalSet(closed_interval(-ones(findim(2)), ones(findim(2)))),
    ]
    for s in cases:
        solidity = check_solid(s)
        quasi = check_quasi_order_closed(s)
        assert solidity.status == "certified" and quasi.status == "certified"
        assert check_order_closed(s).status != "refuted"


def test_verdicts_stable_under_grid_enlargement(monkeypatch):
    cases = [
        IntervalSet(closed_interval(Vec.fin([0, 0]), Vec.fin([1, 1]))),
        Complement(IntervalSet(open_interval(-e1(), e1()))),
        TailZero(),
    ]
    monkeypatch.setattr(topology, "MAX_CANDIDATES", 120)
    small = [check_quasi_order_closed(s).status for s in cases]
    monkeypatch.setattr(topology, "MAX_CANDIDATES", 600)
    monkeypatch.setattr(topology, "GEN_SCALES", (F(1, 2), F(1), F(2), F(3)))
    big = [check_quasi_order_closed(s).status for s in cases]
    assert small == big


def test_search_is_deterministic():
    s = Complement(IntervalSet(open_interval(-e1(), e1())))
    first = check_quasi_order_closed(s)
    second = check_quasi_order_closed(s)
    assert first == second


def open_box_complement(carrier):
    return Complement(IntervalSet(open_interval(zero(carrier), ones(carrier))))


@pytest.mark.parametrize("carrier, max_candidates, count", [
    (findim(3), 600, 26),
    (findim(3), 20, 20),
    (TAIL_SEQ, 600, 28),
])
def test_unknown_search_report_counts_the_candidates_tried(carrier, max_candidates, count,
                                                           monkeypatch):
    monkeypatch.setattr(topology, "MAX_CANDIDATES", max_candidates)
    got = check_order_closed(open_box_complement(carrier))
    assert got.status == "unknown"
    assert got.search_report.candidates == count
    assert got.search_report.grids == (
        f"templates={count} lambdas=['1/2', '1/3'] gen_scales=['1/2', '1', '2'] scale=1")


def test_every_search_refutation_replays():
    f2 = findim(2)
    lower_right = Intersection((
        Complement(HalfSpace(1, "le", F(0))),
        Complement(HalfSpace(2, "ge", F(0))),
        IntervalSet(closed_interval(-ones(f2), ones(f2))),
    ))
    base = [
        (Complement(IntervalSet(open_interval(-e1(), e1()))), TAIL_SEQ),
        (IntervalSet(open_interval(-e1(), e1())), TAIL_SEQ),
        (TailZero(), TAIL_SEQ),
        (Complement(TailZero()), TAIL_SEQ),
        (IntervalSet(open_interval(zero(findim(3)), ones(findim(3)))), findim(3)),
        (Complement(IntervalSet(closed_interval(zero(f2), ones(f2)))), f2),
        (lower_right, f2),
    ]
    rng = random.Random(23)
    cases = [s for s, _ in base]
    for s, carrier in base:
        cases.append(Translate(s, rand_vec(rng, carrier, max_den=4, max_prefix=2)))
        cases.append(Dilate(s, F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))))
    modes = set()
    for s in cases:
        for check in (check_quasi_order_closed, check_order_closed):
            got = check(s)
            if got.status == "refuted":
                modes.add(got.witness.mode)
                assert replay_witness(s, got.witness), (s, got.witness)
    assert modes == {"increasing", "decreasing", "order-convergent"}


# -- neighborhood catalogs -------------------------------------------------------------


def test_symmetric_chain_shape():
    chain = symmetric_chain(zero(findim(2)), 3)
    assert len(chain) == 3
    widths = [iv.width() for iv in chain]
    assert widths[0] == scale(2, ones(findim(2)))
    for a, b in zip(widths, widths[1:]):
        assert leq(b, a) and a != b


def test_neighborhood_catalog_contains_perturbations():
    catalog = neighborhood_catalog(zero(TAIL_SEQ), 2)
    chain = symmetric_chain(zero(TAIL_SEQ), 2)
    # the perturbation intervals probe first, and the chain follows
    extras = catalog[:-len(chain)]
    assert catalog[-len(chain):] == chain
    endpoints = {(iv.lo, iv.hi) for iv in extras}
    assert (-e1(), e1()) in endpoints
    for iv in catalog:
        assert interval_contains(iv, zero(TAIL_SEQ))


def test_building_a_catalog_computes_no_width(monkeypatch):
    from ordertopo.ordersets import Interval

    calls = 0
    real = Interval.width

    def counting(iv):
        nonlocal calls
        calls += 1
        return real(iv)

    monkeypatch.setattr(Interval, "width", counting)
    symmetric_chain(zero(findim(3)), 10)
    neighborhood_catalog(zero(TAIL_SEQ), 10)
    assert calls == 0


# -- tau_e convergence reports ----------------------------------------------------------


def test_shift_refuted_by_the_counterexample_interval():
    cat = neighborhood_catalog(zero(TAIL_SEQ), 1)
    report = tau_e_convergence_report(Shift(), zero(TAIL_SEQ), cat)
    assert not report.consistent
    assert report.refuted_by is not None
    assert (report.refuted_by.lo, report.refuted_by.hi) == (-e1(), e1())


def test_decay_consistent_over_symmetric_chain():
    from ordertopo.families import CoordDecay

    f = CoordDecay(zero(findim(2)), Vec.fin([1, 1]))
    cat = symmetric_chain(zero(findim(2)), 5)
    report = tau_e_convergence_report(f, zero(findim(2)), cat)
    assert report.consistent
    # membership in (x - e/m, x + e/m) begins exactly at k = m: the index
    # k = m-1 collides with the upper endpoint
    for pos, threshold in report.thresholds:
        assert threshold == pos + 1


def test_constant_family_consistent_with_zero_thresholds():
    from ordertopo.families import Explicit

    x = Vec.fin([1, 2])
    f = Explicit((x,))
    cat = symmetric_chain(x, 3)
    report = tau_e_convergence_report(f, x, cat)
    assert report.consistent
    assert all(t == 0 for _, t in report.thresholds)


def test_report_requires_matching_center():
    # e1 lies in (-e, e) but not in (-e/2, e/2): the whole catalog is checked
    # before any interval is probed
    with pytest.raises(ValueError, match="misses its center"):
        tau_e_convergence_report(Shift(), e1(), symmetric_chain(zero(TAIL_SEQ), 2))


# -- interval fitting --------------------------------------------------------------------


def test_interval_fit_full_space():
    got = interval_fit(zero(findim(2)), Intersection(()))
    assert got is not None and got.steps == 0
    assert got.interval.lo == -ones(findim(2))


def test_interval_fit_quadrant_at_ones():
    got = interval_fit(Vec.fin([1, 1]), quadrant())
    assert got is not None
    assert got.steps == 1 and got.evidence == "exact"
    assert got.interval.lo == Vec.fin([F(1, 2), F(1, 2)])
    assert got.interval.hi == Vec.fin([F(3, 2), F(3, 2)])


def test_interval_fit_rejects_outside_point():
    with pytest.raises(ValueError):
        interval_fit(Vec.fin([-1, -1]), quadrant())


def test_interval_fit_rejects_refuted_open_set():
    with pytest.raises(ValueError):
        interval_fit(zero(TAIL_SEQ), IntervalSet(open_interval(-e1(), e1())))


def test_interval_fit_avoids_a_thin_box():
    # the sampling lattice of (-1, 1)^2 steps over the strip 1/1000 <= y <= 1/500
    box = closed_interval(Vec.fin([-5, F(1, 1000)]), Vec.fin([5, F(1, 500)]))
    got = interval_fit(Vec.fin([0, 0]), Complement(IntervalSet(box)))
    assert got is not None and got.evidence == "exact"
    assert not interval_contains(got.interval, Vec.fin([0, F(3, 2000)]))


def test_interval_fit_avoids_a_flat_box():
    # the box is flat in coordinate 2, which no lattice point of (-1, 1) hits
    box = closed_interval(Vec.fin([0, 0, 0, 0]), Vec.fin([1, 0, 1, 1]))
    c = Vec.fin([F(1, 2), 0, F(1, 2), F(3, 2)])
    got = interval_fit(c, Complement(IntervalSet(box)))
    assert got is not None and (got.steps, got.evidence) == (2, "exact")
    assert not interval_contains(got.interval, Vec.fin([F(1, 2), 0, F(1, 2), 1]))


def test_interval_fit_touching_a_box_is_exact():
    # (1, 3) touches [0, 1] only at its own excluded end
    box = closed_interval(Vec.fin([0]), Vec.fin([1]))
    got = interval_fit(Vec.fin([2]), Complement(IntervalSet(box)))
    assert (got.steps, got.evidence, got.samples) == (0, "exact", 0)


def test_interval_fit_sampling_path():
    # two overlapping open half-planes cover the plane; no single part
    # contains a fitted interval around the origin, so sampling decides
    s = Union((
        Complement(HalfSpace(1, "le", F(0))),
        Complement(HalfSpace(1, "ge", F(1))),
    ))
    assert is_order_open(s).status == "certified"
    got = interval_fit(Vec.fin([0, 0]), s, min_samples=200)
    assert got is not None
    assert got.evidence == "sampled" and got.samples >= 200
    from ordertopo.topology import _interval_lattice

    for z in _interval_lattice(got.interval, 200):
        assert member(s, z)


# -- translates and dilates of open sets ----------------------------------------------------


def test_translates_and_dilates_of_the_quadrant_stay_open():
    q = quadrant()
    for s in (q, Translate(q, Vec.fin([-1, -1])), Translate(q, Vec.fin([2, 0])),
              Dilate(q, F(2)), Dilate(q, F(-1)), Dilate(q, F(1, 2))):
        assert is_order_open(s).status == "certified", s


def test_translates_and_dilates_of_the_full_space_stay_open():
    full = Intersection(())
    for s in (full, Translate(full, Vec.fin([7, -3])), Dilate(full, F(-5))):
        assert is_order_open(s).status == "certified", s
