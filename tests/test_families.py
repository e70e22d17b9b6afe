from fractions import Fraction

import pytest

from ordertopo.carriers import (
    TAIL_SEQ,
    CarrierMismatch,
    Vec,
    findim,
    inf,
    leq,
    ones,
    sup,
    unit,
    zero,
)
from ordertopo.families import (
    Certificate,
    CoordDecay,
    Explicit,
    Monotonicity,
    Refutation,
    Scale,
    Shift,
    dominating_family,
    eventually_in,
    form_of,
    index_base,
    monotonicity,
    order_converges,
    order_limit,
    pointwise_limit,
    running_sup_meet,
    shift_family,
    shift_up_family,
    validate_certificate,
    value,
    values_iter,
)
from ordertopo.ordersets import (
    Complement,
    HalfSpace,
    IntervalSet,
    closed_interval,
    member,
    open_interval,
)

F = Fraction


def e1():
    return unit(TAIL_SEQ, 1)


# -- values ---------------------------------------------------------------------


def test_shift_values():
    f = shift_family()
    assert value(f, 2) == Vec.seq([0, 0], 1)
    assert value(f, 0) == ones(TAIL_SEQ)
    assert index_base(f) == 1


def test_scale_values():
    f = Scale(Vec.fin([1, 1]), F(1, 2))
    assert value(f, 3) == Vec.fin([F(1, 8), F(1, 8)])


def test_coord_decay_values():
    f = CoordDecay(zero(findim(2)), Vec.fin([1, 2]))
    assert value(f, 0) == Vec.fin([1, 2])


def test_scale_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Scale(Vec.fin([1, 1]), F(2))
    with pytest.raises(ValueError):
        Scale(Vec.fin([-1, 0]), F(1, 2))


# -- monotonicity ------------------------------------------------------------------


def test_shift_decreasing():
    mono = monotonicity(shift_family())
    assert mono.direction == "decreasing"


def test_scale_decreasing():
    assert monotonicity(Scale(Vec.fin([1, 1]), F(1, 2))).direction == "decreasing"


def test_explicit_neither_with_witness():
    a, b = Vec.fin([0, 2]), Vec.fin([1, 0])
    assert monotonicity(Explicit((a, b))).direction == "neither"
    assert not leq(a, b) and not leq(b, a)  # the first step breaks both directions


def test_mixed_decay_neither():
    f = CoordDecay(zero(findim(2)), Vec.fin([1, -1]))
    assert monotonicity(f).direction == "neither"


def test_shift_up_increasing():
    assert monotonicity(shift_up_family()).direction == "increasing"


def test_running_sup_meet_always_increasing():
    base = Explicit((Vec.fin([0, 2]), Vec.fin([1, 0])))
    f = running_sup_meet(base, Vec.fin([1, 1]))
    assert monotonicity(f).direction == "increasing"


def test_monotonicity_checks_each_family_once():
    f = CoordDecay(Vec.fin([1, F(1, 3)]), Vec.fin([2, F(1, 2)]), F(1, 4))
    monotonicity.cache_clear()
    first = monotonicity(f)
    hits = monotonicity.cache_info().hits
    again = monotonicity(CoordDecay(Vec.fin([1, F(1, 3)]), Vec.fin([2, F(1, 2)]), F(1, 4)))
    assert monotonicity.cache_info().hits == hits + 1
    assert again == first == Monotonicity("decreasing", "all decay directions nonnegative")
    assert monotonicity.cache_info().maxsize == 256


def test_a_contradicted_rule_still_raises_after_a_cache_clear(monkeypatch):
    import ordertopo.families as families

    f = CoordDecay(Vec.fin([0, 1]), Vec.fin([1, 2]))
    assert monotonicity(f).direction == "decreasing"  # cached
    real = families.values_iter

    def broken(F, upto, lo=None):
        # the values run backwards: every step goes up
        return reversed(list(real(F, upto, lo)))

    monkeypatch.setattr(families, "values_iter", broken)
    assert monotonicity(f).direction == "decreasing"  # a hit runs no scan
    monotonicity.cache_clear()
    for _ in range(2):  # the exception is not cached
        with pytest.raises(AssertionError, match="template rule contradicted"):
            monotonicity(f)
    monkeypatch.undo()
    monotonicity.cache_clear()
    assert monotonicity(f).direction == "decreasing"


# -- order limits ----------------------------------------------------------------


def test_shift_limit_zero():
    assert order_limit(shift_family()) == zero(TAIL_SEQ)


def test_coord_decay_limit():
    f = CoordDecay(Vec.fin([1, -1]), Vec.fin([1, 1]))
    assert order_limit(f) == Vec.fin([1, -1])


def test_order_limit_requires_monotone():
    with pytest.raises(ValueError):
        order_limit(Explicit((Vec.fin([0, 2]), Vec.fin([1, 0]))))


def test_running_sup_meet_shift_up_limit():
    f = running_sup_meet(shift_up_family(), ones(TAIL_SEQ))
    assert order_limit(f) == ones(TAIL_SEQ)


def test_running_sup_meet_example_values():
    base = Explicit((Vec.fin([0, 2]), Vec.fin([1, 0])))
    f = running_sup_meet(base, Vec.fin([1, 1]))
    assert value(f, 0) == Vec.fin([0, 1])
    assert value(f, 1) == Vec.fin([1, 1])
    assert value(f, 2) == Vec.fin([1, 1])
    assert order_limit(f) == Vec.fin([1, 1])


def test_running_sup_meet_constant_base():
    x = Vec.fin([2, 3])
    f = running_sup_meet(Explicit((x,)), x)
    assert value(f, 0) == x and value(f, 5) == x
    assert order_limit(f) == x


def test_forms_match_values_on_all_templates():
    families = [
        shift_family(),
        shift_up_family(),
        Shift(F(1, 2), F(-1)),
        Scale(Vec.fin([1, 2]), F(1, 3)),
        CoordDecay(Vec.fin([1, -1]), Vec.fin([-2, 3]), F(1, 2)),
        Explicit((Vec.fin([0, 2]), Vec.fin([1, 0]), Vec.fin([1, 1]))),
        running_sup_meet(shift_up_family(), Vec.seq([F(1, 2)], 1)),
        running_sup_meet(CoordDecay(Vec.fin([0, 1]), Vec.fin([2, -3])), Vec.fin([1, F(1, 2)])),
        running_sup_meet(Scale(Vec.fin([1, 1]), F(1, 2)), Vec.fin([1, F(1, 4)])),
        running_sup_meet(
            running_sup_meet(CoordDecay(Vec.fin([0, 0]), Vec.fin([-1, -2])), Vec.fin([0, 0])),
            Vec.fin([0, -1]),
        ),
        running_sup_meet(Explicit((Vec.seq([3], 0),)), Vec.seq([1, 2], 0)),
    ]
    for fam in families:
        form = form_of(fam)
        vals = list(values_iter(fam, form.start + 30))
        k0 = index_base(fam)
        for k in range(form.start, form.start + 30):
            from ordertopo.eventual import form_eval

            assert form_eval(form, k) == vals[k - k0], f"{fam} at {k}"


def test_monotone_templates_agree_with_brute_force_to_1000():
    cases = [
        shift_family(),
        Scale(Vec.fin([1, 1]), F(1, 2)),
        CoordDecay(Vec.fin([1, -1]), Vec.fin([1, 1])),
        Explicit((Vec.fin([3, 3]), Vec.fin([1, 2]), Vec.fin([0, 0]))),
        running_sup_meet(shift_up_family(), ones(TAIL_SEQ)),
    ]
    for fam in cases:
        mono = monotonicity(fam)
        limit = order_limit(fam)
        vals = list(values_iter(fam, 1000))
        for a, b in zip(vals, vals[1:]):
            if mono.direction == "decreasing":
                assert leq(b, a)
                assert leq(limit, b)
            else:
                assert leq(a, b)
                assert leq(b, limit)
        # the limit is tight: nudging it by a grid step stops it bounding
        probe = F(1, 100) * ones(limit.carrier)
        if mono.direction == "decreasing":
            assert any(not leq(limit + probe, v) for v in vals)
        else:
            assert any(not leq(v, limit - probe) for v in vals)


# -- convergence -----------------------------------------------------------------


def test_shift_converges_to_zero_with_itself_dominating():
    f = shift_family()
    cert = order_converges(f, zero(TAIL_SEQ))
    assert isinstance(cert, Certificate)
    assert cert.dominating == Shift(F(0), F(1))
    assert validate_certificate(f, cert)


def test_coord_decay_certificate():
    f = CoordDecay(zero(findim(2)), Vec.fin([1, 2]))
    cert = order_converges(f, zero(findim(2)))
    assert isinstance(cert, Certificate)
    assert cert.dominating == CoordDecay(zero(findim(2)), Vec.fin([1, 2]), F(0))
    assert validate_certificate(f, cert)


def test_scale_refutes_wrong_limit():
    # closed-form limit is the origin; the candidate e_1 differs at coordinate 1
    f = Scale(Vec.fin([1, 1]), F(1, 2))
    out = order_converges(f, unit(findim(2), 1))
    assert isinstance(out, Refutation)
    assert out.coord == 1
    assert out.limit == zero(findim(2))
    # replay: beyond the separation index the coordinate stays a gap away
    for k in range(out.separated_from, out.separated_from + 20):
        assert abs(value(f, k).at(out.coord) - out.candidate.at(out.coord)) >= out.gap


@pytest.mark.parametrize("f,x", [
    (Shift(F(-4, 3), F(2)), Vec.seq([], F(5, 3))),
    (Shift(F(0), F(1)), Vec.seq([], 1)),
    (running_sup_meet(shift_up_family(), Vec.seq([], 2)), Vec.seq([], 0)),
])
def test_shift_tail_refutation_replays(f, x):
    # the candidate differs from the limit only at the tail label, but a
    # shift's far positions tend to its head: the refutation names the first
    # position past both prefixes, and its gap holds there
    out = order_converges(f, x)
    assert isinstance(out, Refutation)
    assert out.coord == max(out.limit.prefix_len, x.prefix_len) + 1
    for k in range(out.separated_from, out.separated_from + 201):
        assert abs(value(f, k).at(out.coord) - x.at(out.coord)) >= out.gap, k


def test_tail_refutation_of_non_shift_keeps_tail_label():
    f = Scale(ones(TAIL_SEQ), F(1, 2))
    out = order_converges(f, ones(TAIL_SEQ))
    assert isinstance(out, Refutation)
    assert out.coord == "tail"
    for k in range(out.separated_from, out.separated_from + 201):
        assert abs(value(f, k).tail - 1) >= out.gap


def test_mixed_decay_order_converges_without_monotonicity():
    f = CoordDecay(Vec.fin([1, -1]), Vec.fin([1, -2]))
    cert = order_converges(f, Vec.fin([1, -1]))
    assert isinstance(cert, Certificate)
    assert validate_certificate(f, cert)


def test_dominating_explicit_uses_suffix_sups():
    x = Vec.fin([1, 1])
    f = Explicit((Vec.fin([1, 0]), Vec.fin([0, 2]), x))
    cert = order_converges(f, x)
    assert isinstance(cert, Certificate)
    dom = cert.dominating
    assert isinstance(dom, Explicit)
    assert monotonicity(dom).direction == "decreasing"
    assert validate_certificate(f, cert)


def test_dominating_for_running_sup_meet_over_decay():
    base = CoordDecay(Vec.fin([0, 1]), Vec.fin([2, -3]))
    f = running_sup_meet(base, Vec.fin([1, 1]))
    limit = pointwise_limit(f)
    cert = order_converges(f, limit)
    assert isinstance(cert, Certificate)
    assert validate_certificate(f, cert)


def test_dominating_for_running_sup_meet_over_shift_up():
    f = running_sup_meet(shift_up_family(), ones(TAIL_SEQ))
    cert = order_converges(f, ones(TAIL_SEQ))
    assert isinstance(cert, Certificate)
    assert isinstance(cert.dominating, Shift)
    assert validate_certificate(f, cert)


def test_value_of_nested_running_sup_is_linear(monkeypatch):
    import ordertopo.families as families

    calls = 0
    real = families.value

    def counting(F, k):
        nonlocal calls
        calls += 1
        return real(F, k)

    monkeypatch.setattr(families, "value", counting)
    monotonicity.cache_clear()
    inner = running_sup_meet(CoordDecay(Vec.fin([0, 1]), Vec.fin([2, -3])), Vec.fin([1, 1]))
    f = running_sup_meet(inner, Vec.fin([F(1, 2), 1]))
    got = families.value(f, 200)
    assert calls <= 2 * 200 + 10
    assert got == list(values_iter(f, 200))[-1]


def test_scans_of_nested_running_sup_are_linear(monkeypatch):
    import ordertopo.families as families

    calls = 0
    real = families.value

    def counting(F, k):
        nonlocal calls
        calls += 1
        return real(F, k)

    monkeypatch.setattr(families, "value", counting)
    monotonicity.cache_clear()
    n = 200
    base = Explicit(tuple(Vec.fin([F(k, n), F(k * 7 % 11, 11)]) for k in range(n)))
    f = running_sup_meet(running_sup_meet(base, Vec.fin([1, 1])), Vec.fin([1, 1]))
    box = IntervalSet(closed_interval(zero(findim(2)), ones(findim(2))))
    low = IntervalSet(closed_interval(zero(findim(2)), Vec.fin([F(n - 2, n), 1])))
    calls = 0
    # every value is in the box: the backward walk goes down to the base
    assert eventually_in(f, box).index == 0
    assert calls <= 3 * n
    calls = 0
    # the last listed value is the first outside, and every later one is too
    got = eventually_in(f, low)
    assert (got.status, got.index) == ("fails-from", n - 1)
    assert calls <= 3 * n
    assert not any(member(low, v) for v in values_iter(f, n + 20, got.index))
    cert = order_converges(f, Vec.fin([F(n - 1, n), F(10, 11)]))
    calls = 0
    assert validate_certificate(f, cert)
    assert calls <= 3 * n


def _count_value_calls(monkeypatch, only=None):
    """Count families.value calls (on ``only`` alone, when given)."""
    import ordertopo.families as families

    counter = {"calls": 0}
    real = families.value

    def counting(F, k):
        if only is None or F is only:
            counter["calls"] += 1
        return real(F, k)

    monkeypatch.setattr(families, "value", counting)
    monotonicity.cache_clear()
    return counter


def test_tau_e_report_walks_a_nested_running_sup_once(monkeypatch):
    from ordertopo.families import _walk
    from ordertopo.topology import symmetric_chain, tau_e_convergence_report

    n = 200
    base = Explicit(tuple(Vec.fin([F(k, n), F(k * 7 % 13, 13)]) for k in range(n)))
    f = running_sup_meet(running_sup_meet(base, Vec.fin([1, 1])), Vec.fin([F(3, 4), 1]))
    x = order_limit(f)
    _walk.cache_clear()
    counter = _count_value_calls(monkeypatch, only=base)
    report = tau_e_convergence_report(f, x, symmetric_chain(x, 10))
    assert report.consistent and len(report.thresholds) == 10
    # one walk serves all ten intervals: each base value is read once
    assert 0 < counter["calls"] <= n + 10


def test_scans_of_deeply_nested_running_sups_stay_linear(monkeypatch):
    # six nested walks outnumber the walk cache; each still reads its base once
    n = 100
    base = Explicit(tuple(Vec.fin([F(k, n), F(k * 3 % 7, 7)]) for k in range(n)))
    f = base
    for depth in range(6):
        f = running_sup_meet(f, Vec.fin([1, 1 - F(depth, 10)]))
    box = IntervalSet(closed_interval(zero(findim(2)), ones(findim(2))))
    counter = _count_value_calls(monkeypatch, only=base)
    assert eventually_in(f, box).index == 0
    assert validate_certificate(f, order_converges(f, order_limit(f)))
    assert 0 < counter["calls"] <= n + 50


def test_running_sup_walks_are_bounded():
    from ordertopo.families import _walk

    for j in range(1000):
        f = running_sup_meet(Explicit((Vec.fin([j]), Vec.fin([j + 1]))), Vec.fin([j]))
        assert value(f, 3) == Vec.fin([j])
    info = _walk.cache_info()
    assert info.currsize == info.maxsize == 4


def test_running_sup_walk_survives_an_interrupted_step(monkeypatch):
    import ordertopo.families as families
    from ordertopo.families import _walk

    class Stop(BaseException):
        pass

    base = CoordDecay(Vec.fin([0, 1]), Vec.fin([2, -3]))
    f = running_sup_meet(base, Vec.fin([F(5, 4), F(1, 2)]))
    want, acc = [], None
    for k in range(60):
        acc = value(base, k) if acc is None else sup(acc, value(base, k))
        want.append(inf(acc, f.cap))

    def stop_at_call(fn, n):
        calls = 0

        def wrapped(*args):
            nonlocal calls
            calls += 1
            if calls == n:
                raise Stop()
            return fn(*args)

        return wrapped

    # stop while reading a base value, and between the uncapped and the
    # capped step of one index
    for name, fn in (("value", families.value), ("inf", families.inf)):
        _walk.cache_clear()
        monotonicity.cache_clear()
        monkeypatch.setattr(families, name, stop_at_call(fn, 30))
        with pytest.raises(Stop):
            list(values_iter(f, 59))
        monkeypatch.undo()
        assert list(values_iter(f, 59)) == want


def test_explicit_hashes_its_values_once(monkeypatch):
    values = tuple(Vec.fin([k, -k, F(k, 7)]) for k in range(1000))
    f = Explicit(values)
    calls = 0
    real = Vec.__hash__

    def counting(v):
        nonlocal calls
        calls += 1
        return real(v)

    monkeypatch.setattr(Vec, "__hash__", counting)
    form_of(f)
    form_of(f)
    assert calls == len(values)


def test_dominating_requires_true_limit():
    with pytest.raises(ValueError):
        dominating_family(shift_family(), ones(TAIL_SEQ))


def test_order_converges_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        order_converges(shift_family(), Vec.fin([0, 0]))


# -- eventual membership ------------------------------------------------------------


def test_shift_eventually_outside_the_counterexample_interval():
    f = shift_family()
    s = Complement(IntervalSet(open_interval(-e1(), e1())))
    got = eventually_in(f, s)
    assert got.status == "holds-from"
    assert got.index == 1
    for k in range(1, 120):
        assert member(s, value(f, k))


def test_scale_eventually_in_symmetric_interval():
    v = Vec.fin([1, 1])
    f = Scale(v, F(1, 2))
    got = eventually_in(f, IntervalSet(closed_interval(-v, v)))
    assert got.status == "holds-from" and got.index == 0


def test_decay_halfspace_threshold_is_least_index():
    f = CoordDecay(zero(findim(2)), Vec.fin([1, 0]))
    got = eventually_in(f, HalfSpace(1, "le", F(1, 10)))
    assert got.status == "holds-from"
    # 1/(k+1) <= 1/10 first holds at k = 9 and forever after
    assert got.index == 9
    assert not member(HalfSpace(1, "le", F(1, 10)), value(f, 8))


def test_eventually_in_failure_reports_witness():
    f = shift_family()
    hole = IntervalSet(open_interval(-e1(), e1()))
    got = eventually_in(f, hole)
    assert (got.status, got.index) == ("fails-from", 1)
    # every value from the index on witnesses the failure
    assert not any(member(hole, v) for v in values_iter(f, 40, got.index))


def test_a_failure_is_decided_without_reading_a_value(monkeypatch):
    counter = _count_value_calls(monkeypatch)
    got = eventually_in(Shift(), IntervalSet(open_interval(-e1(), e1())))
    assert got.status == "fails-from"
    assert counter["calls"] == 0


def test_eventually_in_shift_up_stays_tail_zero():
    from ordertopo.ordersets import TailZero

    f = shift_up_family()
    got = eventually_in(f, TailZero())
    assert got.status == "holds-from" and got.index == 1


def test_eventually_in_verdict_stable_under_longer_horizon():
    f = CoordDecay(zero(findim(2)), Vec.fin([1, 0]))
    s = HalfSpace(1, "le", F(1, 10))
    first = eventually_in(f, s)
    again = eventually_in(f, s)
    assert first == again


def test_eventually_in_translate_and_dilate():
    from ordertopo.ordersets import Dilate, Translate

    f = CoordDecay(zero(findim(2)), Vec.fin([1, 1]))
    box = IntervalSet(closed_interval(Vec.fin([-1, -1]), Vec.fin([1, 1])))
    shifted = Translate(box, Vec.fin([5, 5]))
    got = eventually_in(f, shifted)
    assert got.status == "fails-from"
    grown = Dilate(box, F(4))
    got2 = eventually_in(f, grown)
    assert got2.status == "holds-from" and got2.index == 0


def two_pass_open_member(form, iv):
    # the open-interval rule settling each endpoint once per op
    from ordertopo.eventual import _and, form_settle_vs_vec

    eqs = [form_settle_vs_vec(form, w, "eq") for w in (iv.lo, iv.hi)]
    return _and([form_settle_vs_vec(form, iv.lo, "ge"), form_settle_vs_vec(form, iv.hi, "le")]
                + [(not ok, k) for ok, k in eqs])


def test_open_interval_member_settles_each_endpoint_once(monkeypatch):
    import ordertopo.eventual as eventual
    from ordertopo.families import _eventual_member

    f2 = findim(2)
    families = [
        CoordDecay(zero(f2), Vec.fin([1, -2])),
        CoordDecay(Vec.fin([1, 0]), Vec.fin([-1, 3])),
        Scale(Vec.fin([1, 4]), F(1, 3)),
        Explicit((Vec.fin([0, 0]), Vec.fin([1, 1]), Vec.fin([2, 0]))),
    ]
    intervals = [
        open_interval(Vec.fin([-1, -3]), Vec.fin([2, 1])),
        open_interval(zero(f2), Vec.fin([1, 1])),
        open_interval(Vec.fin([0, -1]), Vec.fin([1, 0])),
        open_interval(Vec.fin([1, 1]), Vec.fin([2, 2])),
    ]
    real = eventual.settle_cmp
    calls = 0

    def counting(seq, c):
        nonlocal calls
        calls += 1
        return real(seq, c)

    outcomes = set()
    for fam in families:
        form = form_of(fam)
        for iv in intervals:
            want = two_pass_open_member(form, iv)
            monkeypatch.setattr(eventual, "settle_cmp", counting)
            calls = 0
            got = _eventual_member(form, IntervalSet(iv))
            monkeypatch.setattr(eventual, "settle_cmp", real)
            assert got == want
            assert calls == 4  # two positions, two endpoints; 8 when settled per op
            outcomes.add(got[0])
    assert outcomes == {True, False}
