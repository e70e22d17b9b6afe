"""The single-pass carrier kernels against the generator versions they replace.

The reference functions below are the implementations the kernels
replaced: generator expressions and lambdas over padded coordinate lists.
Every kernel must give the same vectors and the same truth values on
seeded random inputs, including zero coefficients, decay offsets q > 0
and tails that equal the last prefix entry.  The order tests and ``within``
compare by integer cross-products, and ``add_scaled``, ``Harmonic.at`` and
the neighborhood catalogs compute in integers and normalize once;
``hypothesis`` checks them against the Fraction operators as well,
derandomized and without an example database.
"""

import operator
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ordertopo.carriers import (
    TAIL_SEQ,
    Carrier,
    CarrierMismatch,
    Vec,
    add_scaled,
    constant,
    findim,
    inf,
    leq,
    ones,
    scale,
    strictly_below_partial,
    strictly_everywhere_below,
    unit,
    sup,
    within,
    zero,
)
from ordertopo.eventual import Harmonic
from ordertopo.families import (
    Certificate,
    CoordDecay,
    Explicit,
    Shift,
    order_converges,
    pointwise_limit,
    validate_certificate,
    value,
)
from ordertopo.ordersets import Interval, Semantics, open_interval
from ordertopo.records import replace
from ordertopo.topology import neighborhood_catalog, symmetric_chain

# -- references ------------------------------------------------------------------


def ref_aligned(x, y):
    if x.carrier != y.carrier:
        raise CarrierMismatch(f"carriers differ: {x.carrier} vs {y.carrier}")
    if x.carrier.kind == "findim":
        return x.coords, y.coords
    n = max(len(x.coords), len(y.coords))
    xs = x.coords + (x.tail,) * (n - len(x.coords))
    ys = y.coords + (y.tail,) * (n - len(y.coords))
    return xs, ys


def ref_zip_with(x, y, fn):
    xs, ys = ref_aligned(x, y)
    coords = tuple(fn(a, b) for a, b in zip(xs, ys))
    if x.carrier.kind == "findim":
        return Vec(x.carrier, coords)
    return Vec(x.carrier, coords, fn(x.tail, y.tail))


def ref_map(x, fn):
    if x.carrier.kind == "findim":
        return Vec(x.carrier, tuple(fn(c) for c in x.coords))
    return Vec(x.carrier, tuple(fn(c) for c in x.coords), fn(x.tail))


def ref_leq(x, y):
    xs, ys = ref_aligned(x, y)
    if any(a > b for a, b in zip(xs, ys)):
        return False
    if x.carrier.kind == "tailseq" and x.tail > y.tail:
        return False
    return True


def ref_strictly_everywhere_below(x, y):
    xs, ys = ref_aligned(x, y)
    if any(a >= b for a, b in zip(xs, ys)):
        return False
    if x.carrier.kind == "tailseq" and x.tail >= y.tail:
        return False
    return True


def ref_coord_decay_value(fam, k):
    t = F(1) / (k + 1 + fam.q)
    return ref_zip_with(fam.c, ref_map(fam.p, lambda a: a * t), lambda a, b: a + b)


def ref_dominated(v, c, r):
    return ref_leq(ref_map(ref_zip_with(v, c, lambda a, b: a - b), abs), r)


def ref_add_scaled(c, t, p):
    return c + p * t


def ref_strip(coords, tail):
    while coords and coords[-1] == tail:
        coords = coords[:-1]
    return coords


def ref_strictly_below_partial(x, y):
    return ref_leq(x, y) and x != y


def ref_symmetric_chain(x, depth, semantics):
    e = ones(x.carrier)
    return tuple(open_interval(x - scale(F(1, m), e), x + scale(F(1, m), e), semantics)
                 for m in range(1, depth + 1))


def ref_neighborhood_catalog(x, depth, semantics):
    extras = []
    span = min(depth, x.carrier.dim) if x.carrier.kind == "findim" else depth
    for j in range(1, span + 1):
        for delta in (F(1), F(1, 2)):
            step = scale(delta, unit(x.carrier, j))
            try:
                extras.append(open_interval(x - step, x + step, semantics))
            except ValueError:
                continue
    return tuple(extras) + ref_symmetric_chain(x, depth, semantics)


# -- seeded inputs -----------------------------------------------------------------

# a small pool, so that zero coefficients, equal coordinates and tails equal
# to the last prefix entry all come up often
POOL = [F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(5, 4)]
CARRIERS = [findim(1), findim(2), findim(3), findim(4), TAIL_SEQ]


def pick(rng):
    return rng.choice(POOL) if rng.random() < 0.8 else F(rng.randint(-9, 9), rng.randint(1, 7))


def rand_vec(rng, carrier):
    if carrier.kind == "findim":
        return Vec(carrier, tuple(pick(rng) for _ in range(carrier.dim)))
    prefix = tuple(pick(rng) for _ in range(rng.randint(0, 4)))
    tail = pick(rng)
    if prefix and rng.random() < 0.3:
        tail = prefix[-1]  # the constructor strips the entry
    return Vec(carrier, prefix, tail)


def rand_pairs(seed, n=300):
    rng = random.Random(seed)
    for i in range(n):
        carrier = CARRIERS[i % len(CARRIERS)]
        yield rng, carrier, rand_vec(rng, carrier), rand_vec(rng, carrier)


# -- equal results -----------------------------------------------------------------


def test_arithmetic_matches_the_generator_versions():
    for rng, _, x, y in rand_pairs(13001):
        t = pick(rng)
        assert x + y == ref_zip_with(x, y, lambda a, b: a + b)
        assert x - y == ref_zip_with(x, y, lambda a, b: a - b)
        assert -x == ref_map(x, lambda a: -a)
        assert x * t == ref_map(x, lambda a: a * t)
        assert 3 * x == ref_map(x, lambda a: a * 3)
        assert abs(x) == ref_map(x, abs)
        assert sup(x, y) == ref_zip_with(x, y, max)
        assert inf(x, y) == ref_zip_with(x, y, min)
        assert x.map(operator.neg) == ref_map(x, operator.neg)


def test_order_tests_match_the_generator_versions():
    outcomes = set()
    for rng, carrier, x, y in rand_pairs(13002, n=500):
        above = x + abs(y) if rng.random() < 0.5 else y
        for a, b in ((x, y), (y, x), (x, above), (x, x)):
            got = leq(a, b)
            assert got == ref_leq(a, b)
            strict = strictly_everywhere_below(a, b)
            assert strict == ref_strictly_everywhere_below(a, b)
            outcomes.add((carrier.kind, got, strict))
    # both answers of both tests were reached on both carrier kinds
    assert len(outcomes) == 6


def test_coord_decay_value_matches_the_two_vector_form():
    for rng, _, c, p in rand_pairs(13003):
        q = rng.choice([F(0), F(0), F(1, 2), F(3), F(7, 5)])
        fam = CoordDecay(c, p, q)
        for k in range(6):
            assert value(fam, k) == ref_coord_decay_value(fam, k)
        t = pick(rng)
        assert add_scaled(c, t, p) == ref_zip_with(
            c, ref_map(p, lambda a: a * t), lambda a, b: a + b)


def test_tailseq_normal_form_matches_the_reference_strip():
    rng = random.Random(13005)
    stripped = 0
    for _ in range(300):
        tail = pick(rng)
        coords = [pick(rng) for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 3)):  # runs of tail-equal entries, some long
            coords += [tail] * rng.choice([1, 2, 50, 400])
            if rng.random() < 0.5:
                coords.append(pick(rng))
        coords = tuple(coords)
        got = Vec(TAIL_SEQ, coords, tail).coords
        assert got == ref_strip(coords, tail)
        stripped += got != coords
    assert stripped > 100


def test_a_long_constant_shift_value_is_one_tail():
    assert value(Shift(F(1), F(1)), 16000) == Vec(TAIL_SEQ, (), F(1))


def test_within_matches_the_abs_difference_test():
    outcomes = set()
    for rng, carrier, v, c in rand_pairs(13004, n=500):
        dev = ref_map(ref_zip_with(v, c, lambda a, b: a - b), abs)
        nudge = rand_vec(rng, carrier)
        for r in (dev, dev + nudge, abs(nudge), dev - abs(nudge)):
            got = within(v, c, r)
            assert got == ref_dominated(v, c, r)
            outcomes.add((carrier.kind, got))
    assert len(outcomes) == 4


# -- integer cross-products against the Fraction operators --------------------------

properties = settings(derandomize=True, database=None, deadline=None, max_examples=60)
set_hypothesis_home_dir(os.devnull)  # as in test_record_properties: no cache files

HUGE = 2**64
# negatives, zero, repeats (so that equal values come up often) and
# denominators above 2**64
rationals = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 2)]),
    st.fractions(-3, 3, max_denominator=5),
    st.builds(F, st.integers(-HUGE * 8, HUGE * 8), st.integers(HUGE + 1, HUGE * 4)),
)


@st.composite
def vector_triples(draw):
    """Three vectors of one carrier; on tailseq their prefixes have three
    different lengths."""
    carrier = draw(st.sampled_from(CARRIERS))
    if carrier.kind == "findim":
        return [Vec(carrier, tuple(draw(st.lists(rationals, min_size=carrier.dim,
                                                 max_size=carrier.dim))))
                for _ in range(3)]
    vecs = []
    for n in draw(st.permutations([0, 1, 3])):
        tail = draw(rationals)
        prefix = draw(st.lists(rationals, min_size=n, max_size=n))
        if prefix and prefix[-1] == tail:
            prefix[-1] = tail + 1  # keep the length through canonicalization
        vecs.append(Vec(carrier, tuple(prefix), tail))
    assert len({v.prefix_len for v in vecs}) == 3
    return vecs


@properties
@given(vector_triples())
def test_order_tests_match_the_fraction_operators(vecs):
    x, y, z = vecs
    for a, b in ((x, y), (y, x), (x, x), (x, z), (x, x + abs(y)), (x, sup(x, z))):
        assert leq(a, b) == ref_leq(a, b)
        assert strictly_everywhere_below(a, b) == ref_strictly_everywhere_below(a, b)


@properties
@given(vector_triples(), st.sampled_from([F(0), F(1, HUGE * 3), F(1, 2), F(-1, 7)]))
def test_within_matches_the_fraction_operators(vecs, nudge):
    v, c, r = vecs
    dev = ref_map(ref_zip_with(v, c, lambda a, b: a - b), abs)
    # r as drawn (negative entries too), the exact deviation, and the
    # deviation moved by a tiny, a plain and a negative amount
    for radius in (r, abs(r), dev, dev + abs(r) * nudge, dev + r * nudge):
        for args in ((v, c, radius), (c, v, radius), (v, v, radius)):
            assert within(*args) == ref_dominated(*args)


@properties
@given(vector_triples(), rationals)
def test_add_scaled_matches_the_fraction_operators(vecs, t):
    c, p, r = vecs
    for centre, direction in ((c, p), (c, r), (p, c), (c, c - c), (c, -c)):
        got = add_scaled(centre, t, direction)
        assert got == ref_add_scaled(centre, t, direction)
        # where the direction is zero, the stored value is the centre's own
        for j in range(1, got.prefix_len + 1):
            if direction.coord(j) == 0:
                assert got.coord(j) is centre.coord(j)
        if got.tail is not None and direction.tail == 0:
            assert got.tail is centre.tail


@properties
@given(st.integers(0, 10**6), st.one_of(rationals.map(abs), st.just(F(0))))
def test_harmonic_kernel_matches_the_fraction_operators(k, q):
    assert Harmonic(q).at(k) == F(1) / (k + 1 + q)


@properties
@given(vector_triples())
def test_strict_partial_order_matches_leq_and_not_equal(vecs):
    x, y, z = vecs
    for a, b in ((x, y), (y, x), (x, x), (x, z), (x, x + abs(y)), (x, sup(x, z))):
        assert strictly_below_partial(a, b) == ref_strictly_below_partial(a, b)


@properties
@given(vector_triples(), st.integers(1, 4), st.sampled_from(list(Semantics)))
def test_catalogs_match_the_scaled_vector_construction(vecs, depth, semantics):
    x = vecs[0]
    chain = symmetric_chain(x, depth, semantics)
    catalog = neighborhood_catalog(x, depth, semantics)
    want_chain = ref_symmetric_chain(x, depth, semantics)
    want_catalog = ref_neighborhood_catalog(x, depth, semantics)
    assert len(chain) == len(want_chain) and len(catalog) == len(want_catalog)
    for got, want in zip(chain + catalog, want_chain + want_catalog):
        assert isinstance(got, Interval)
        assert (got.lo, got.hi, got.kind, got.semantics) == (
            want.lo, want.hi, want.kind, want.semantics)
    # a perturbation endpoint keeps x's own values off its coordinate
    positions = x.carrier.dim or depth + x.prefix_len + 1
    for iv in catalog[:len(catalog) - depth]:
        for end in (iv.lo, iv.hi):
            moved = [j for j in range(1, positions + 1) if end.coord(j) is not x.coord(j)]
            assert len(moved) == 1


def test_cross_products_separate_rationals_a_huge_denominator_apart():
    tiny = F(1, 3 * HUGE + 1)
    for carrier in CARRIERS:
        x = constant(carrier, F(-5, 3))
        y = constant(carrier, F(-5, 3) + tiny)
        assert leq(x, y) and not leq(y, x)
        assert strictly_everywhere_below(x, y) and not strictly_everywhere_below(y, x)
        assert within(y, x, constant(carrier, tiny))
        assert not within(y, x, constant(carrier, tiny / 2))
        assert within(x, x, zero(carrier)) and not within(y, x, zero(carrier))


# -- errors ------------------------------------------------------------------------


def test_carrier_mismatch_still_raises():
    f2, f3 = Vec.fin([1, 0]), Vec.fin([1, 0, 2])
    s = Vec.seq([1], 0)
    kernels = [
        operator.add, operator.sub, sup, inf, leq, strictly_everywhere_below,
        lambda x, y: within(x, x, y), lambda x, y: within(x, y, x),
        lambda x, y: within(y, x, x), lambda x, y: add_scaled(x, F(1, 2), y),
    ]
    for x, y in ((f2, f3), (f3, f2), (f2, s), (s, f2)):
        for kernel in kernels:
            with pytest.raises(CarrierMismatch):
                kernel(x, y)


def test_equal_carriers_that_are_distinct_objects_still_combine():
    x = Vec(findim(2), (F(1), F(0)))
    y = Vec(Carrier("findim", 2), (F(2), F(0)))
    assert x.carrier is not y.carrier
    assert x + y == Vec.fin([3, 0])
    assert leq(x, y) and not strictly_everywhere_below(x, y)
    assert within(x, y, Vec.fin([1, 0]))


# -- certificates ------------------------------------------------------------------


def halved(fam):
    if isinstance(fam, Explicit):
        return Explicit(tuple(v * F(1, 2) for v in fam.values))
    return CoordDecay(fam.c, fam.p * F(1, 2), fam.q)


@pytest.mark.parametrize("fam", [
    Explicit((Vec.fin([3, 0, -1]), Vec.fin([1, 1, 0]), Vec.fin([0, 1, 0]))),
    Explicit((Vec.seq([2, 1], 0), Vec.seq([0, 1], 1), Vec.seq([1], 1))),
    CoordDecay(Vec.fin([1, 2, 3]), Vec.fin([1, 0, -1]), F(1, 2)),
    CoordDecay(Vec.seq([1], 2), Vec.seq([0, 3], -1)),
])
def test_validate_certificate_rejects_a_halved_dominating_family(fam):
    cert = order_converges(fam, pointwise_limit(fam))
    assert isinstance(cert, Certificate)
    assert validate_certificate(fam, cert)
    assert not validate_certificate(fam, replace(cert, dominating=halved(cert.dominating)))


# -- vectors built -----------------------------------------------------------------


@pytest.fixture
def vectors_built(monkeypatch):
    built = [0]
    original = Vec.__post_init__

    def counting(vec):
        built[0] += 1
        return original(vec)

    monkeypatch.setattr(Vec, "__post_init__", counting)
    return built


def test_coord_decay_value_builds_one_vector(vectors_built):
    fam = CoordDecay(Vec.fin([1, 2, 3]), Vec.fin([1, 0, -1]), F(1, 2))
    vectors_built[0] = 0
    got = value(fam, 5)
    assert vectors_built[0] == 1
    assert got == Vec.fin([F(15, 13), 2, F(37, 13)])


def test_coord_decay_certificate_validation_builds_few_vectors(vectors_built):
    fam = CoordDecay(Vec.fin([1, 2, 3]), Vec.fin([1, 0, -1]))
    cert = order_converges(fam, Vec.fin([1, 2, 3]))
    vectors_built[0] = 0
    assert validate_certificate(fam, cert)
    # 49 replayed indices, one vector per value of the family and of its
    # dominating family; the generator form built 352
    assert vectors_built[0] <= 150
