import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ordertopo.carriers import TAIL_SEQ, Vec, findim, inf, leq, ones, unit, zero
from ordertopo.ordersets import (
    Complement,
    Dilate,
    HalfSpace,
    Ideal,
    IntervalSet,
    Semantics,
    SolidHull,
    TailZero,
    Translate,
    band_member,
    check_solid,
    closed_interval,
    disjoint,
    grid_vectors,
    ideal_member,
    interval_contains,
    is_atom,
    member,
    open_interval,
    solid_hull_member,
)
from randvec import rand_vec


def e1_seq():
    return unit(TAIL_SEQ, 1)


# -- intervals -----------------------------------------------------------------


def test_open_interval_contains_zero_strict_partial():
    iv = open_interval(-e1_seq(), e1_seq())
    assert interval_contains(iv, zero(TAIL_SEQ))


def test_open_interval_excludes_shifted_tail_vector():
    # (0,0,1,1,...) is not inside (-e1, e1): its tail exceeds e1's.
    iv = open_interval(-e1_seq(), e1_seq())
    assert not interval_contains(iv, Vec.seq([0, 0], 1))


def test_open_interval_rejected_under_strict_uniform():
    # beyond position 1 the endpoints agree, so the interval would be empty
    with pytest.raises(ValueError):
        open_interval(-e1_seq(), e1_seq(), Semantics.STRICT_UNIFORM)


def test_closed_interval_is_the_conjunction_of_bounds():
    rng = random.Random(7)
    lo = Vec.fin([-1, -2])
    hi = Vec.fin([2, 1])
    iv = closed_interval(lo, hi)
    for _ in range(200):
        z = rand_vec(rng, findim(2), max_den=8)
        assert interval_contains(iv, z) == (leq(lo, z) and leq(z, hi))


# -- grammar membership ----------------------------------------------------------


def test_complement_membership():
    s = Complement(IntervalSet(open_interval(-e1_seq(), e1_seq())))
    assert not member(s, zero(TAIL_SEQ))
    assert member(s, Vec.seq([0, 0], 1))


def test_tail_zero_membership():
    assert member(TailZero(), Vec.seq([5, -1], 0))
    assert not member(TailZero(), Vec.seq([5], 1))


def test_translate_membership():
    s = Translate(HalfSpace(1, "ge", Fraction(0)), unit(findim(2), 1))
    assert member(s, Vec.fin([2, 0]))
    assert not member(s, Vec.fin([0, 0]))


def test_translate_matches_shifted_membership_randomized():
    rng = random.Random(11)
    inner = IntervalSet(closed_interval(Vec.fin([-1, -1]), Vec.fin([1, 1])))
    for _ in range(200):
        a = rand_vec(rng, findim(2), max_den=8)
        z = rand_vec(rng, findim(2), max_den=8)
        assert member(Translate(inner, a), z) == member(inner, z - a)


# -- ideals ----------------------------------------------------------------------


def test_ideal_member_prefix_vector_of_e1():
    ok, lam = ideal_member([e1_seq()], Vec.seq([3], 0))
    assert ok and lam == 3


def test_ideal_member_rejects_constant_one():
    ok, lam = ideal_member([e1_seq()], ones(TAIL_SEQ))
    assert not ok and lam is None


def test_ideal_member_two_generators_minimal_lambda():
    # |y| <= lam*(1,2) iff lam >= max(5/1, 1/2)
    ok, lam = ideal_member([Vec.fin([1, 0]), Vec.fin([0, 2])], Vec.fin([5, 1]))
    assert ok and lam == 5


def test_ideal_membership_is_solid():
    rng = random.Random(13)
    gens = [Vec.fin([1, 0, 2]), Vec.fin([0, 3, 0])]
    for _ in range(200):
        x = rand_vec(rng, findim(3), max_den=8)
        y = rand_vec(rng, findim(3), max_den=8)
        if ideal_member(gens, x)[0] and leq(abs(y), abs(x)):
            assert ideal_member(gens, y)[0]


def test_ideal_inside_band():
    rng = random.Random(17)
    for carrier in (findim(4), TAIL_SEQ):
        for _ in range(150):
            gens = [rand_vec(rng, carrier, max_den=6, max_prefix=3) for _ in range(2)]
            y = rand_vec(rng, carrier, max_den=6, max_prefix=3)
            if ideal_member(gens, y)[0]:
                assert band_member(gens, y)


def test_ideal_equals_band_in_these_carriers():
    # prefixes plus constant tails keep every coordinate ratio bounded, so a
    # finitely generated ideal fills its whole band; the closedness rule for
    # ideals rests on this
    rng = random.Random(31)
    for carrier in (findim(4), TAIL_SEQ):
        for _ in range(300):
            gens = [rand_vec(rng, carrier, max_den=6, max_prefix=3)
                    for _ in range(rng.randint(1, 3))]
            y = rand_vec(rng, carrier, max_den=6, max_prefix=3)
            assert ideal_member(gens, y)[0] == band_member(gens, y)


# -- bands -------------------------------------------------------------------------


def band_oracle_findim(gens, y):
    """Double disjoint complement, evaluated through inf/abs only."""
    carrier = y.carrier
    basis = [unit(carrier, j) for j in range(1, carrier.dim + 1)]
    d_complement = [e for e in basis if all(disjoint(e, g) for g in gens)]
    return all(disjoint(y, e) for e in d_complement)


def test_band_member_matches_oracle_on_pinned_cases():
    gens = [Vec.fin([1, 0, 0]), Vec.fin([0, 1, 0])]
    y_in = Vec.fin([2, -5, 0])
    y_out = Vec.fin([0, 0, 1])
    assert band_oracle_findim(gens, y_in) is True
    assert band_oracle_findim(gens, y_out) is False
    assert band_member(gens, y_in)
    assert not band_member(gens, y_out)


def test_band_member_matches_oracle_randomized():
    rng = random.Random(19)
    carrier = findim(4)
    for _ in range(400):
        gens = [rand_vec(rng, carrier, max_den=4) for _ in range(rng.randint(1, 3))]
        y = rand_vec(rng, carrier, max_den=4)
        assert band_member(gens, y) == band_oracle_findim(gens, y)


def test_band_member_tailseq():
    assert band_member([e1_seq()], e1_seq())
    assert not band_member([e1_seq()], Vec.seq([1, 1], 0))
    # a generator with nonzero tail supports everything past its prefix
    g = Vec.seq([0, 5], 1)
    assert band_member([g], Vec.seq([0, 1, 7], 3))
    assert not band_member([g], Vec.seq([1], 0))


# -- solid hull ----------------------------------------------------------------------


def test_solid_hull_member():
    assert solid_hull_member([Vec.fin([2, 2])], Vec.fin([-1, 2]))
    assert not solid_hull_member([Vec.fin([2, 2])], Vec.fin([3, 0]))
    gens = [unit(findim(2), 1), unit(findim(2), 2)]
    assert solid_hull_member(gens, Vec.fin([0, Fraction(1, 2)]))


# -- solidity check --------------------------------------------------------------------


def test_check_solid_tail_zero_certified():
    assert check_solid(TailZero()).status == "certified"


def test_check_solid_refutes_asymmetric_interval():
    e = ones(findim(2))
    verdict = check_solid(IntervalSet(closed_interval(zero(findim(2)), e)))
    assert verdict.status == "refuted"
    x, y = verdict.witness
    assert leq(abs(y), abs(x))
    assert member(IntervalSet(closed_interval(zero(findim(2)), e)), x)
    assert not member(IntervalSet(closed_interval(zero(findim(2)), e)), y)
    # the pair (e, -e) is itself a valid refutation of this set
    s = IntervalSet(closed_interval(zero(findim(2)), e))
    assert leq(abs(-e), abs(e)) and member(s, e) and not member(s, -e)


def test_check_solid_symmetric_interval_certified():
    e = ones(findim(2))
    verdict = check_solid(IntervalSet(closed_interval(-e, e)))
    assert verdict.status == "certified"


def test_check_solid_refutes_the_open_box_of_findim_4():
    e = ones(findim(4))
    s = IntervalSet(open_interval(-e, e))
    x, y = Vec.fin([1, 1, 1, -1]), e
    # (x, y) refutes solidity, and both lie on the probe grid
    assert member(s, x) and not member(s, y) and leq(abs(y), abs(x))
    assert x in grid_vectors(findim(4)) and y in grid_vectors(findim(4))
    assert check_solid(s).status == "refuted"


def _probe_refutation(s, probes):
    """A pair (x in s, y outside s, |y| <= |x|) among the probes, or None."""
    inside = [x for x in probes if member(s, x)]
    outside = [y for y in probes if not member(s, y)]
    return next(((x, y) for x in inside for y in outside if leq(abs(y), abs(x))), None)


@pytest.mark.parametrize("carrier", [findim(1), findim(2), findim(3), TAIL_SEQ])
def test_open_box_solidity_is_decided_in_closed_form(carrier):
    values = (Fraction(-1), Fraction(0), Fraction(1))
    if carrier.kind == "findim":
        probes = [Vec(carrier, c) for c in itertools.product(values, repeat=carrier.dim)]
    else:
        probes = list({Vec(carrier, c, t) for n in range(3)
                       for c in itertools.product(values, repeat=n) for t in values})
    statuses = set()
    for u in probes:
        if u.is_zero() or not leq(zero(carrier), u):
            continue
        s = IntervalSet(open_interval(-u, u))
        got = check_solid(s)
        statuses.add(got.status)
        if got.status == "refuted":
            x, y = got.witness
            assert member(s, x) and not member(s, y) and leq(abs(y), abs(x))
        else:
            # one nonzero position: no probe pair refutes
            assert got.status == "certified", u
            assert got.rule_trace == ("symmetric-open-interval-one-position",)
            assert _probe_refutation(s, probes) is None, u
    assert statuses == ({"certified"} if carrier == findim(1) else {"certified", "refuted"})


def test_a_nonzero_tail_counts_as_infinitely_many_positions():
    u = Vec.seq([], 1)
    got = check_solid(IntervalSet(open_interval(-u, u)))
    assert got.status == "refuted" and got.witness == (Vec.seq([-1], 1), u)
    e2 = unit(TAIL_SEQ, 2)
    assert check_solid(IntervalSet(open_interval(-e2, e2))).status == "certified"


@pytest.mark.parametrize("factor", [Fraction(2), Fraction(-3, 2)])
def test_a_dilated_open_box_is_refuted_in_closed_form(factor):
    e = ones(findim(4))
    box = IntervalSet(open_interval(-e, e))
    s = Dilate(box, factor)
    got = check_solid(s)
    assert (got.status, got.searched) == ("refuted", 0)
    x, y = got.witness
    assert leq(abs(y), abs(x))
    # the pair refutes the expression as given, and scaled back, the box itself
    assert member(s, x) and not member(s, y)
    assert member(box, x * (1 / factor)) and not member(box, y * (1 / factor))
    # nested dilates peel to one interval; a one-position box stays certified
    assert check_solid(Dilate(s, Fraction(1, 3))).status == "refuted"
    e1 = unit(findim(4), 1)
    assert check_solid(Dilate(IntervalSet(open_interval(-e1, e1)), factor)).status == "certified"


def test_check_solid_union_and_ideal():
    s = Ideal((e1_seq(),))
    assert check_solid(s).status == "certified"
    u = SolidHull((Vec.fin([1, 1]),))
    assert check_solid(u).status == "certified"


# -- atoms ------------------------------------------------------------------------------


def atom_oracle_grid(x, max_den=2):
    """Exhaustive check of the two-disjoint-elements criterion on a grid."""
    per_coord = []
    for c in x.coords:
        vals = sorted({Fraction(n, d) for d in range(1, max_den + 1)
                       for n in range(0, int(c * d) + 1)
                       if Fraction(n, d) <= c})
        per_coord.append(vals)
    candidates = [Vec(x.carrier, combo) for combo in itertools.product(*per_coord)]
    nonzero = [u for u in candidates if not u.is_zero()]
    for u in nonzero:
        for v in nonzero:
            if inf(u, v).is_zero():
                return False
    return True


def test_is_atom_matches_grid_oracle_small_dimensions():
    cases = [
        Vec.fin([1]),
        Vec.fin([Fraction(3, 2)]),
        Vec.fin([1, 0]),
        Vec.fin([1, 1]),
        unit(findim(3), 2),
        Vec.fin([1, 1, 0]),
        Vec.fin([0, 0, 2]),
        Vec.fin([1, 0, 1]),
        Vec.fin([Fraction(1, 2), 0, 0]),
    ]
    for x in cases:
        assert is_atom(x) == atom_oracle_grid(x)


def test_atom_ideal_is_one_dimensional():
    # derived check: everything in the ideal of an atom is a multiple of it
    rng = random.Random(41)
    atom = unit(findim(3), 2)
    for _ in range(200):
        y = rand_vec(rng, findim(3), max_den=8)
        ok, lam = ideal_member([atom], y)
        if ok:
            assert y == atom * y.coord(2)
    non_atom = Vec.fin([1, 1, 0])
    members = [Vec.fin([1, 0, 0]), Vec.fin([0, 1, 0])]
    assert all(ideal_member([non_atom], m)[0] for m in members)
    assert members[0] != members[1]  # two independent directions inside


def test_is_atom_pinned():
    assert is_atom(unit(findim(3), 2))
    assert not is_atom(Vec.fin([1, 1]))
    assert not is_atom(ones(TAIL_SEQ))  # u=e1, v=1-e1 witness the failure


def test_is_atom_rejects_bad_inputs():
    with pytest.raises(ValueError):
        is_atom(Vec.fin([-1, 0]))
    with pytest.raises(ValueError):
        is_atom(zero(findim(2)))


def test_unit_vectors_are_disjoint_atoms():
    for carrier, n in ((findim(3), 3), (TAIL_SEQ, 4)):
        units = [unit(carrier, j) for j in range(1, n + 1)]
        assert all(is_atom(a) for a in units)
        assert all(disjoint(a, b) for a in units for b in units if a != b)


def test_disjoint():
    assert disjoint(unit(findim(2), 1), unit(findim(2), 2))
    assert not disjoint(Vec.fin([1, 1]), Vec.fin([0, 2]))
    assert disjoint(Vec.fin([3, -1]), zero(findim(2)))


def test_grid_vectors_deterministic():
    a = grid_vectors(findim(2))
    b = grid_vectors(findim(2))
    assert a == b and len(a) == 49


def test_grid_vectors_cached_per_carrier():
    for carrier in (findim(2), TAIL_SEQ):
        grid = grid_vectors(carrier)
        assert isinstance(grid, tuple)
        assert grid_vectors(carrier) is grid
    assert grid_vectors(findim(2)) is grid_vectors(findim(2))  # equal carriers, one grid
    # more slots than the carriers a run cycles through
    assert grid_vectors.cache_info().maxsize == 8


# SHA-256 of each grid in probe order, as the uncached grid gave them; a
# cache must never reorder the probes
GRID_ORDER = {
    findim(1): (7, "1ef18515264a26055c4f2040e798bdc70c57743fcf142c1244236b138521ae54"),
    findim(2): (49, "580a8503e762fd0fad1cc10f3817a4083e27348534437d30a1d7b2df4ca0376f"),
    findim(3): (343, "0378e7e7009b6e37ecbc720ac446f3409635665c851cd20fe722237e0ba274ce"),
    findim(4): (2401, "bea0122e92aad7ab0be325c2d5480cdf69a585c3e2a9a2d9002aa946497e415f"),
    findim(5): (4096, "35a05089718840b484eb4c09cf3c2c031da4e0c74b0a4459b7d583bd1ecae3e7"),
    TAIL_SEQ: (343, "4b3ad6a4a569b16ab70d8bdc0bb17bd6fbe3b843399518bf283be512b592dd27"),
}


@pytest.mark.parametrize("carrier", list(GRID_ORDER))
def test_grid_vectors_order_pinned(carrier):
    grid = grid_vectors(carrier)
    text = "\n".join(f"{','.join(map(str, v.coords))};{v.tail}" for v in grid)
    assert (len(grid), hashlib.sha256(text.encode()).hexdigest()) == GRID_ORDER[carrier]
