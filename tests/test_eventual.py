from fractions import Fraction

import pytest

from ordertopo.carriers import TAIL_SEQ, Vec, findim, inf, sup, zero
from ordertopo.eventual import (
    ConstSeq,
    Geom,
    Harmonic,
    StepSeq,
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
