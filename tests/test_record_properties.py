"""Property tests of the record contract.

Records are built from raw arguments drawn by ``hypothesis``; an oracle
computes each record's canonical fields from the same arguments (a tailseq
prefix loses its trailing tail entries), and equality, hashing, ``replace``,
the repr and frozenness are checked against it.  The runs are derandomized
and keep no example database, so they are reproducible, and they write no
files.
"""

import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ordertopo.carriers import TAIL_SEQ, Vec, findim
from ordertopo.eventual import Geom, Harmonic
from ordertopo.families import CoordDecay
from ordertopo.ordersets import (
    Band,
    HalfSpace,
    Ideal,
    Intersection,
    Interval,
    IntervalKind,
    IntervalSet,
    Semantics,
    SolidHull,
    TailZero,
    Union,
)
from ordertopo.records import FrozenInstanceError, replace

properties = settings(derandomize=True, database=None, deadline=None, max_examples=20)

# a small domain, so that independently drawn records are often equal
rats = st.fractions(min_value=-2, max_value=2, max_denominator=2)
CARRIERS = [findim(n) for n in range(1, 5)] + [TAIL_SEQ]

# Without an example database, hypothesis still caches the constants of the
# modules under test in its home directory, and its pytest plugin does so
# while collecting.  A home under os.devnull cannot be created, and hypothesis
# then goes on without the cache, so the runs write no files.
set_hypothesis_home_dir(os.devnull)


class Raw:
    """The arguments of one record, as passed to its constructor."""

    def __init__(self, cls, *args):
        self.cls, self.args = cls, args

    def build(self):
        return self.cls(*(a.build() if isinstance(a, Raw) else a for a in self.args))

    def canonical(self):
        args = tuple(a.canonical() if isinstance(a, Raw) else a for a in self.args)
        if self.cls is Vec:
            carrier, coords, tail = args
            while tail is not None and coords and coords[-1] == tail:
                coords = coords[:-1]
            args = (carrier, coords, tail)
        return (self.cls, args)


@st.composite
def raw_vectors(draw, carrier):
    if carrier.kind == "findim":
        return Raw(Vec, carrier, tuple(draw(FINDIM_COORDS[carrier.dim])), None)
    tail = draw(rats)
    prefix = tuple(tail if c is None else c for c in draw(PREFIXES))
    return Raw(Vec, carrier, prefix, tail)


FINDIM_COORDS = {n: st.lists(rats, min_size=n, max_size=n) for n in range(1, 5)}
PREFIXES = st.lists(st.one_of(rats, st.none()), max_size=4)  # None: the tail value
VECTORS_IN = {carrier: raw_vectors(carrier) for carrier in CARRIERS}
carriers = st.sampled_from(CARRIERS)
KINDS, SEMANTICS = st.sampled_from(IntervalKind), st.sampled_from(Semantics)
any_raw_vector = carriers.flatmap(VECTORS_IN.__getitem__)


@st.composite
def raw_intervals(draw):
    lo = draw(any_raw_vector)
    lo_vec = lo.build()
    gap = draw(VECTORS_IN[lo_vec.carrier]).build()
    hi_vec = lo_vec + abs(gap)
    hi = Raw(Vec, hi_vec.carrier, hi_vec.coords, hi_vec.tail)
    kind, semantics = draw(KINDS), draw(SEMANTICS)
    try:
        Interval(lo_vec, hi_vec, kind, semantics)
    except ValueError:  # an empty open interval
        assume(False)
    return Raw(Interval, lo, hi, kind, semantics)


@st.composite
def raw_coord_decays(draw):
    vectors = VECTORS_IN[draw(carriers)]
    return Raw(CoordDecay, draw(vectors), draw(vectors), draw(offsets))


offsets = st.one_of(st.integers(0, 2), st.fractions(0, 2, max_denominator=2))
raw_half_spaces = st.builds(
    lambda coord, relation, bound: Raw(HalfSpace, coord, relation, bound),
    st.one_of(st.integers(1, 3), st.just("tail")), st.sampled_from(["le", "ge"]),
    st.one_of(rats, st.integers(-2, 2)))

raw_records = st.one_of(any_raw_vector, raw_half_spaces, raw_coord_decays(),
                        raw_intervals(), st.just(Raw(TailZero)))

set_exprs = st.one_of(
    raw_half_spaces.map(Raw.build), st.just(TailZero()),
    raw_intervals().map(lambda raw: IntervalSet(raw.build())))


@properties
@given(raw_records, raw_records)
def test_equal_exactly_when_class_and_canonical_fields_match(a, b):
    x, y = a.build(), b.build()
    same = a.canonical() == b.canonical()
    assert (x == y) is same and (x != y) is not same
    if same:
        assert hash(x) == hash(y)


@properties
@given(raw_records)
def test_a_rebuilt_record_is_equal_and_hashes_equal(raw):
    x, y = raw.build(), raw.build()
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


@properties
@given(rats)
def test_kernels_with_the_same_field_are_unequal(x):
    assert Geom(x) != Harmonic(x)
    assert len({Geom(x), Harmonic(x)}) == 2


@properties
@given(st.lists(VECTORS_IN[TAIL_SEQ], min_size=1, max_size=3))
def test_generated_sets_over_the_same_gens_are_unequal(raws):
    gens = tuple(raw.build() for raw in raws)
    built = [Ideal(gens), Band(gens), SolidHull(gens)]
    assert all(a != b for i, a in enumerate(built) for b in built[i + 1:])
    assert len(set(built)) == 3


@properties
@given(st.lists(set_exprs, max_size=3))
def test_union_and_intersection_of_the_same_parts_are_unequal(parts):
    parts = tuple(parts)
    assert Union(parts) != Intersection(parts)
    assert Union(parts) == Union(parts) and hash(Union(parts)) == hash(Union(parts))


@properties
@given(raw_records)
def test_replace_without_changes_is_equal(raw):
    r = raw.build()
    assert replace(r) == r


@properties
@given(VECTORS_IN[TAIL_SEQ], st.integers(1, 3))
def test_replace_strips_a_tailseq_prefix_again(raw, extra):
    v = raw.build()
    padded = replace(v, coords=v.coords + (v.tail,) * extra)
    assert padded == v and padded.coords == v.coords


@properties
@given(raw_records)
def test_repr_lists_the_fields_in_order(raw):
    r = raw.build()
    fields = ", ".join(f"{name}={getattr(r, name)!r}" for name in r.__match_args__)
    assert repr(r) == f"{type(r).__name__}({fields})"


@properties
@given(raw_records)
def test_records_are_frozen_and_keep_one_copy_of_their_fields(raw):
    r = raw.build()
    assert not hasattr(r, "__dict__") and not hasattr(r, "_values")
    for name in r.__match_args__ + ("_hash", "new_attribute"):
        with pytest.raises(FrozenInstanceError):
            setattr(r, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(r, name)
    assert r == raw.build()
