from fractions import Fraction

import pytest

from ordertopo.carriers import TAIL_SEQ, Vec, findim, inf, sup, zero
from ordertopo.eventual import (
    ConstForm,
    ConstSeq,
    Geom,
    Harmonic,
    StepSeq,
    _least_true,
    affine_form,
    far_members,
    form_eval,
    form_eventually_le,
    form_limit,
    form_settle_vs_vec,
    make_decay,
    make_geom,
    make_mono_form,
    make_shift_form,
    meet_const_form,
    running_sup_form,
    seq_eval,
    seq_eventually_le,
    settle_cmp,
)

F = Fraction


def check_settle(seq, r, lo=0, hi=120):
    """Brute-force the settled relation and compare against settle_cmp."""
    rel, k = settle_cmp(seq, F(r))
    assert k >= seq.start
    for i in range(k, k + 60):
        got = (seq_eval(seq, i) > r) - (seq_eval(seq, i) < r)
        assert got == rel, f"relation changed at {i}"
    return rel, k


def test_settle_const():
    assert settle_cmp(ConstSeq(F(3)), F(2)) == (1, 0)
    assert settle_cmp(ConstSeq(F(3)), F(3)) == (0, 0)


def test_settle_decay_exact_threshold():
    # 1/(k+1) <= 1/10 from k = 9; the three-way relation settles at 10
    s = make_decay(F(0), F(1), F(0))
    rel, k = settle_cmp(s, F(1, 10))
    assert rel == -1 and k == 10
    assert seq_eval(s, 9) == F(1, 10)
    check_settle(s, F(1, 10))


def test_settle_decay_never_crossing():
    s = make_decay(F(1), F(1), F(0))
    assert check_settle(s, F(1)) == (1, 0)
    assert check_settle(s, F(0)) == (1, 0)


def test_settle_decay_negative_direction():
    s = make_decay(F(1), F(-2), F(1))
    rel, k = check_settle(s, F(1, 2))
    assert rel == 1
    assert seq_eval(s, k) > F(1, 2) and seq_eval(s, k - 1) <= F(1, 2)


def test_settle_geom():
    s = make_geom(F(0), F(3), F(1, 2))
    rel, k = check_settle(s, F(1, 16))
    assert rel == -1
    assert seq_eval(s, k) < F(1, 16) <= seq_eval(s, k - 1)
    assert check_settle(make_geom(F(2), F(-1), F(1, 3)), F(2)) == (-1, 0)


def test_first_below_is_the_least_index():
    import random

    rng = random.Random(8103)
    kernels = [Geom(F(1, 2)), Geom(F(2, 3)), Geom(F(9, 10)),
               Harmonic(F(0)), Harmonic(F(1, 2)), Harmonic(F(3))]
    for _ in range(400):
        kernel = rng.choice(kernels)
        t = F(rng.randint(1, 40), rng.randint(1, 400))
        start = rng.randrange(6)
        k = kernel.first_below(t, start)
        assert k >= start and kernel.at(k) < t, (kernel, t, start)
        assert k == start or kernel.at(k - 1) >= t, (kernel, t, start)


def test_first_below_rejects_nonpositive_thresholds():
    for kernel in (Geom(F(1, 2)), Geom(F(9999, 10000)), Harmonic(F(0)), Harmonic(F(3, 2))):
        for t in (F(0), F(-1, 3)):
            with pytest.raises(ValueError):
                kernel.first_below(t, 0)


GEOM_RATIOS = [F(1, 2), F(9, 10), 1 - F(1, 10 ** 3), 1 - F(1, 10 ** 4), 1 - F(1, 10 ** 6)]


@pytest.mark.parametrize("lam", GEOM_RATIOS, ids=str)
def test_geom_first_below_matches_the_bracket_search(lam):
    import random

    rng = random.Random(f"first-below:{lam}")
    kernel = Geom(lam)
    for _ in range(25):
        # thresholds near exact powers, above 1, and starts past the answer;
        # exponents stay small enough for the bracket search to be cheap
        j = rng.randint(0, 2500)
        t = rng.choice([lam ** j, lam ** j * F(rng.randint(990, 1010), 1000),
                        F(rng.randint(1, 9), 1) + F(1, 7)])
        start = rng.choice([0, rng.randrange(8), rng.randrange(3000)])
        want = _least_true(lambda i: lam ** i < t, start)
        assert kernel.first_below(t, start) == want, (t, start)


def test_geom_first_below_beyond_the_float_range():
    half = Geom(F(1, 2))
    tiny = F(1, 10 ** 400)  # below the smallest float
    k = half.first_below(tiny, 0)
    assert half.at(k) < tiny <= half.at(k - 1)
    huge = F(3 * 2 ** 4001 + 1, 2 ** 4003 + 7)  # numerator and denominator above 2^4000
    assert half.first_below(huge, 0) == 1
    assert half.first_below(F(1, 8), 0) == 4
    assert half.first_below(F(1, 8), 10) == 10  # a start past the answer
    assert half.first_below(F(5, 2), 3) == 3  # t > 1


def test_geom_first_below_evaluates_few_powers(monkeypatch):
    calls = 0
    real = F.__pow__

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    lam, t = F(9999, 10000), F(1, 100)
    monkeypatch.setattr(F, "__pow__", counting)
    k = Geom(lam).first_below(t, 0)
    assert calls <= 3
    monkeypatch.undo()
    assert lam ** k < t <= lam ** (k - 1)


def test_settle_step():
    s = StepSeq(F(5), F(1), 7)
    assert check_settle(s, F(3)) == (-1, 7)
    assert check_settle(s, F(0)) == (1, 0)


@pytest.mark.parametrize("a,b", [
    (ConstSeq(F(1)), ConstSeq(F(2))),
    (ConstSeq(F(2)), ConstSeq(F(1))),
    (make_geom(F(0), F(1), F(1, 2)), make_geom(F(0), F(2), F(1, 2))),
    (make_geom(F(0), F(2), F(1, 2)), make_geom(F(0), F(1), F(1, 2))),
    (make_geom(F(0), F(1), F(1, 3)), make_geom(F(0), F(1, 5), F(1, 2))),
    (make_geom(F(0), F(1, 5), F(1, 2)), make_geom(F(0), F(1), F(1, 3))),
    (make_decay(F(0), F(1), F(0)), make_decay(F(0), F(2), F(5))),
    (make_decay(F(0), F(2), F(5)), make_decay(F(0), F(1), F(0))),
    (make_decay(F(1), F(1), F(0)), make_decay(F(1), F(1), F(3))),
    (make_geom(F(0), F(5), F(1, 2)), make_decay(F(0), F(1, 7), F(0))),
    (make_decay(F(0), F(1, 7), F(0)), make_geom(F(0), F(5), F(1, 2))),
    (make_geom(F(1), F(-1), F(1, 2)), make_decay(F(1), F(-3), F(0))),
    (make_decay(F(1), F(-3), F(0)), make_geom(F(1), F(-1), F(1, 2))),
    (make_geom(F(0), F(-1), F(1, 2)), make_decay(F(0), F(1), F(0))),
    (ConstSeq(F(0)), make_geom(F(0), F(1), F(1, 2))),
    (make_geom(F(0), F(1), F(1, 2)), ConstSeq(F(0))),
    (StepSeq(F(9), F(0), 4), make_decay(F(0), F(1), F(0))),
    (make_decay(F(3), F(1), F(0)), ConstSeq(F(1))),
])
def test_seq_eventually_le_agrees_with_brute_force(a, b):
    ok, k = seq_eventually_le(a, b)
    for i in range(k, k + 80):
        if ok:
            assert seq_eval(a, i) <= seq_eval(b, i), f"claimed <= broken at {i}"
        else:
            assert seq_eval(a, i) > seq_eval(b, i), f"claimed > broken at {i}"


# -- vector forms -----------------------------------------------------------------


def shift_form_x():
    # classic vanishing-prefix shape: zeros up to k, ones beyond
    return make_shift_form((), 0, 1, 1)


def test_form_eval_shift():
    f = shift_form_x()
    assert form_eval(f, 2) == Vec.seq([0, 0], 1)
    assert form_limit(f) == zero(TAIL_SEQ)


def test_affine_form_shift_with_offset():
    f = shift_form_x()
    off = Vec.seq([5, 7], 2)
    g = affine_form(f, F(3), off)
    for k in range(g.start, g.start + 8):
        assert form_eval(g, k) == form_eval(f, k) * 3 + off


def test_affine_form_decay():
    c = Vec.fin([1, -1])
    p = Vec.fin([1, 2])
    f = make_mono_form(c, p, Harmonic(F(0)))
    g = affine_form(f, F(1, 2), Vec.fin([1, 1]))
    for k in range(0, 10):
        assert form_eval(g, k) == form_eval(f, k) * F(1, 2) + Vec.fin([1, 1])


def test_form_settle_vs_vec_shift_against_interval_endpoint():
    # values never drop below -e1 but always poke above e1 at far positions
    f = shift_form_x()
    e1 = Vec.seq([1], 0)
    ok, k = form_settle_vs_vec(f, e1, "le")
    assert ok is False
    ok2, k2 = form_settle_vs_vec(f, -e1, "ge")
    assert ok2 is True
    for i in range(max(k, k2, 1), max(k, k2) + 20):
        v = form_eval(f, i)
        from ordertopo.carriers import leq

        assert not leq(v, e1)
        assert leq(-e1, v)


def test_form_settle_vs_vec_decay():
    from ordertopo.carriers import leq

    f = make_mono_form(zero(findim(2)), Vec.fin([1, 2]), Harmonic(F(0)))
    bound = Vec.fin([F(1, 10), F(1, 10)])
    ok, k = form_settle_vs_vec(f, bound, "le")
    assert ok is True
    # 2/(k+1) <= 1/10 holds from k = 19 (with equality); the strict relation
    # settles one step later
    assert k == 20
    for i in range(19, 60):
        assert leq(form_eval(f, i), bound)
    assert not leq(form_eval(f, 18), bound)


def test_running_sup_form_matches_brute_force_decay_mixed():
    c = Vec.fin([0, 1])
    p = Vec.fin([2, -3])  # coordinate 1 decreasing, coordinate 2 increasing
    f = make_mono_form(c, p, Harmonic(F(1, 2)))
    rs = running_sup_form(f, None)
    acc = form_eval(f, 0)
    for k in range(0, 30):
        acc = sup(acc, form_eval(f, k))
        if k >= rs.start:
            assert form_eval(rs, k) == acc, f"mismatch at {k}"


def test_running_sup_form_with_early_supremum():
    f = make_mono_form(Vec.fin([1, 0]), Vec.fin([-2, 1]), Geom(F(1, 2)))
    early = Vec.fin([F(1, 2), 5])
    rs = running_sup_form(f, early)
    acc = early
    for k in range(0, 30):
        acc = sup(acc, form_eval(f, k))
        if k >= rs.start:
            assert form_eval(rs, k) == acc


def test_running_sup_form_shift():
    f = make_shift_form((), 1, 0, 1)  # increasing mirror shift
    rs = running_sup_form(f, None)
    acc = form_eval(f, 1)
    for k in range(1, 20):
        acc = sup(acc, form_eval(f, k))
        if k >= rs.start:
            assert form_eval(rs, k) == acc


def test_meet_const_form_matches_brute_force():
    cap = Vec.fin([F(1, 3), F(1, 2)])
    f = make_mono_form(zero(findim(2)), Vec.fin([1, -1]), Harmonic(F(0)))
    m = meet_const_form(f, cap)
    for k in range(m.start, m.start + 25):
        assert form_eval(m, k) == inf(form_eval(f, k), cap)


def test_meet_const_form_shift():
    cap = Vec.seq([F(1, 2)], 1)
    f = make_shift_form((), 1, 0, 1)
    m = meet_const_form(f, cap)
    for k in range(m.start, m.start + 15):
        assert form_eval(m, k) == inf(form_eval(f, k), cap)


def test_form_eventually_le_shift_pair():
    dev = make_shift_form((0, 0), 0, F(1, 2), 2)
    dom = make_shift_form((), 0, 1, 1)
    ok, k = form_eventually_le(dev, dom)
    assert ok
    from ordertopo.carriers import leq

    for i in range(k, k + 15):
        assert leq(form_eval(dev, i), form_eval(dom, i))


def test_far_members_presence():
    f = shift_form_x()
    members = far_members(f, 3)
    # the head value only shows past position 3 once k >= 4
    assert any(present == 4 for _, present in members)


def _random_seq(rng):
    kind = rng.randrange(4)
    a = F(rng.randint(-8, 8), rng.randint(1, 6))
    if kind == 0:
        return ConstSeq(a, rng.randrange(3))
    if kind == 1:
        b = F(rng.choice([-1, 1]) * rng.randint(1, 8), rng.randint(1, 6))
        lam = rng.choice([F(1, 2), F(1, 3), F(2, 3), F(3, 4)])
        return make_geom(a, b, lam, rng.randrange(3))
    if kind == 2:
        b = F(rng.choice([-1, 1]) * rng.randint(1, 8), rng.randint(1, 6))
        q = rng.choice([F(0), F(1, 2), F(2)])
        return make_decay(a, b, q, rng.randrange(3))
    after = F(rng.randint(-8, 8), rng.randint(1, 6))
    return StepSeq(a, after, rng.randrange(1, 6), rng.randrange(3))


def test_settle_cmp_randomized_against_scans():
    import random

    rng = random.Random(8101)
    for _ in range(400):
        s = _random_seq(rng)
        r = F(rng.randint(-8, 8), rng.randint(1, 6))
        rel, k = settle_cmp(s, r)
        assert k >= s.start
        for i in range(k, k + 150):
            got = (seq_eval(s, i) > r) - (seq_eval(s, i) < r)
            assert got == rel, (s, r, i)


def test_seq_eventually_le_randomized_against_scans():
    import random

    rng = random.Random(8102)
    for _ in range(400):
        a, b = _random_seq(rng), _random_seq(rng)
        ok, k = seq_eventually_le(a, b)
        for i in range(k, k + 150):
            if ok:
                assert seq_eval(a, i) <= seq_eval(b, i), (a, b, i)
            else:
                assert seq_eval(a, i) > seq_eval(b, i), (a, b, i)


# -- pinned settle indices --------------------------------------------------------
# The brute-force tests above accept any valid settle index; these pin the
# exact (ok, k) pairs and forms, so that a refactor cannot move an index.


def _random_mono(rng, a):
    b = F(rng.choice([-1, 1]) * rng.randint(1, 8), rng.randint(1, 6))
    if rng.random() < 0.5:
        return make_geom(a, b, rng.choice([F(1, 2), F(1, 3), F(2, 3), F(3, 4)]), rng.randrange(3))
    return make_decay(a, b, rng.choice([F(0), F(1, 2), F(2)]), rng.randrange(3))


def _small(rng):
    return F(rng.randint(-3, 3), rng.choice([1, 2, 3]))


def _random_vec(rng, carrier):
    if carrier.kind == "findim":
        return Vec(carrier, tuple(_small(rng) for _ in range(carrier.dim)))
    return Vec(carrier, tuple(_small(rng) for _ in range(rng.randrange(4))), _small(rng))


def _near(rng, v):
    """v moved by a small amount at some positions, or a random vector."""
    if rng.random() < 0.2:
        return _random_vec(rng, v.carrier)

    def nudge(x):
        if rng.random() < 0.6:
            return x + F(rng.choice([-1, 1]), rng.randint(3, 40))
        return x

    if v.carrier.kind == "findim":
        return Vec(v.carrier, tuple(nudge(x) for x in v.coords))
    prefix = v.coords + tuple(v.tail for _ in range(rng.randrange(3)))
    return Vec(v.carrier, tuple(nudge(x) for x in prefix), nudge(v.tail))


def _random_form(rng):
    carrier = rng.choice([findim(1), findim(2), findim(3), TAIL_SEQ])
    kind = rng.randrange(4 if carrier == TAIL_SEQ else 3)
    start = rng.randrange(4)
    if kind == 0:
        return ConstForm(_random_vec(rng, carrier), start)
    if kind == 3:
        fixed = tuple(_small(rng) for _ in range(rng.randrange(3)))
        return make_shift_form(fixed, _small(rng), _small(rng), max(start, len(fixed)))
    if kind == 1:
        kernel = Geom(rng.choice([F(1, 2), F(2, 3)]))
    else:
        kernel = Harmonic(rng.choice([F(0), F(1, 2)]))
    return make_mono_form(_random_vec(rng, carrier), _random_vec(rng, carrier), kernel, start)


PINNED_SEQ_LE = [
    (False, 2), (False, 6), (True, 2), (True, 4), (True, 2), (False, 4), (False, 2),
    (True, 2), (False, 5), (True, 1), (True, 4), (True, 4), (False, 6), (True, 2),
    (True, 2), (False, 4), (False, 2), (True, 4), (True, 14), (True, 2), (True, 2),
    (False, 2), (True, 2), (False, 7), (True, 1), (True, 4), (False, 4), (True, 5),
    (True, 4), (False, 2), (False, 3), (False, 4), (False, 2), (True, 5), (True, 2),
    (False, 3), (False, 2), (False, 2), (False, 1), (False, 2), (True, 2), (True, 2),
    (False, 1), (False, 2), (True, 1), (False, 0), (True, 2), (True, 1), (True, 2),
    (True, 1), (True, 1), (False, 2), (False, 1), (False, 0), (True, 2), (False, 5),
    (False, 1), (False, 2), (True, 1), (True, 1), (False, 0), (False, 2), (False, 2),
    (False, 1), (False, 3), (False, 2), (False, 2), (True, 2), (True, 1), (False, 2),
    (True, 2), (False, 2), (True, 3), (True, 1), (False, 5), (False, 2), (True, 8),
    (True, 1), (True, 1), (True, 2), (True, 1), (False, 1), (False, 2), (False, 18),
    (False, 1), (True, 2), (True, 2), (True, 2), (True, 2), (False, 1), (True, 2),
    (True, 2), (False, 0), (False, 2), (False, 1), (True, 2), (True, 2), (False, 0),
    (True, 4), (False, 2),
]


def test_seq_eventually_le_pinned_settle_indices():
    import random

    rng = random.Random(8103)
    got = [seq_eventually_le(_random_seq(rng), _random_seq(rng)) for _ in range(40)]
    for _ in range(60):
        a = F(rng.randint(-8, 8), rng.randint(1, 6))
        got.append(seq_eventually_le(_random_mono(rng, a), _random_mono(rng, a)))
    assert got == PINNED_SEQ_LE


PINNED_SETTLE_VS_VEC = [
    [(False, 0), (False, 7), (False, 0), (False, 7), (False, 0)],
    [(False, 2), (False, 2), (False, 2), (False, 2), (False, 2)],
    [(False, 6), (True, 11), (False, 6), (True, 11), (False, 6)],
    [(False, 0), (True, 0), (False, 0), (False, 0), (False, 0)],
    [(True, 2), (False, 2), (True, 2), (False, 2), (False, 2)],
    [(False, 0), (True, 0), (False, 0), (True, 0), (False, 0)],
    [(False, 2), (False, 2), (False, 2), (False, 2), (False, 2)],
    [(False, 0), (True, 0), (False, 0), (False, 0), (False, 0)],
    [(False, 1), (True, 1), (False, 1), (True, 1), (False, 1)],
    [(False, 1), (False, 1), (False, 1), (False, 1), (False, 1)],
    [(False, 3), (True, 3), (False, 3), (True, 3), (False, 3)],
    [(False, 9), (False, 1), (False, 9), (False, 1), (False, 1)],
    [(False, 0), (False, 1), (False, 0), (False, 1), (False, 0)],
    [(False, 1), (False, 1), (False, 1), (False, 1), (False, 1)],
    [(False, 10), (False, 0), (False, 0), (False, 0), (False, 0)],
    [(False, 2), (True, 2), (False, 2), (False, 2), (False, 2)],
    [(False, 1), (False, 1), (False, 1), (False, 1), (False, 1)],
    [(False, 1), (False, 1), (False, 1), (False, 1), (False, 1)],
    [(True, 1), (True, 1), (False, 1), (False, 1), (True, 1)],
    [(True, 3), (False, 3), (True, 3), (False, 3), (False, 3)],
    [(True, 3), (False, 3), (False, 3), (False, 3), (False, 3)],
    [(False, 7), (False, 2), (False, 7), (False, 2), (False, 2)],
    [(True, 5), (False, 3), (True, 5), (False, 3), (False, 3)],
    [(False, 0), (False, 0), (False, 0), (False, 0), (False, 0)],
]


def test_form_settle_vs_vec_pinned_settle_indices():
    import random

    rng = random.Random(8104)
    got = []
    for _ in range(24):
        form = _random_form(rng)
        w = _near(rng, form_limit(form))
        got.append([form_settle_vs_vec(form, w, op) for op in ("le", "ge", "lt", "gt", "eq")])
    assert got == PINNED_SETTLE_VS_VEC


PINNED_SUP_MEET_STARTS = [
    'MonoForm:2', 'MonoForm:2', 'ConstForm:3', 'MonoForm:3', 'MonoForm:1', 'MonoForm:1',
    'ConstForm:3', 'ConstForm:3', 'ConstForm:0', 'ConstForm:0', 'ConstForm:0',
    'MonoForm:4', 'ConstForm:0', 'ConstForm:0', 'ConstForm:0', 'ConstForm:0',
    'MonoForm:3', 'MonoForm:3', 'ConstForm:2', 'ConstForm:2', 'ConstForm:3',
    'MonoForm:3', 'MonoForm:1', 'ConstForm:3', 'MonoForm:3', 'MonoForm:67',
    'ConstForm:0', 'ConstForm:0', 'ConstForm:0', 'ConstForm:0', 'MonoForm:0',
    'MonoForm:11', 'MonoForm:3', 'MonoForm:2', 'ShiftForm:2', 'ShiftForm:2',
    'ConstForm:1', 'ConstForm:1', 'MonoForm:21', 'MonoForm:3', 'ConstForm:0',
    'ConstForm:0', 'ShiftForm:2', 'ShiftForm:2', 'ConstForm:1', 'ConstForm:1',
    'ConstForm:3', 'ConstForm:30', 'ConstForm:3', 'ConstForm:3', 'ConstForm:0',
    'ConstForm:0', 'MonoForm:3', 'MonoForm:3', 'ConstForm:2', 'MonoForm:2',
    'ConstForm:1', 'ConstForm:1', 'MonoForm:1', 'ConstForm:14', 'ConstForm:2',
    'ConstForm:2', 'ConstForm:1', 'MonoForm:1', 'ConstForm:0', 'MonoForm:0',
    'ConstForm:0', 'ConstForm:0', 'ConstForm:3', 'ConstForm:3', 'MonoForm:10',
    'MonoForm:1', 'MonoForm:0', 'ConstForm:5', 'ConstForm:1', 'MonoForm:5',
    'ConstForm:2', 'ShiftForm:2', 'ConstForm:2', 'MonoForm:2',
]
PINNED_SUP_MEET_DIGEST = "f62a9126dd62e0f5bb5be9a6a6dd28f17b7afba9edddb3f7779d4018b3a5f646"


def test_running_sup_and_meet_forms_pinned():
    import hashlib
    import random

    rng = random.Random(8105)
    got = []
    for _ in range(40):
        form = _random_form(rng)
        early = None if rng.random() < 0.3 else _near(rng, form_limit(form))
        got.append(running_sup_form(form, early))
        got.append(meet_const_form(form, _near(rng, form_limit(form))))
    assert [f"{type(f).__name__}:{f.start}" for f in got] == PINNED_SUP_MEET_STARTS
    assert hashlib.sha256(repr(got).encode()).hexdigest() == PINNED_SUP_MEET_DIGEST
