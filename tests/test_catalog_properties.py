"""The neighborhood catalogs hold their center, nest and shrink by 2e/m.

``symmetric_chain`` and ``neighborhood_catalog`` build their intervals from
the center, the depth and the semantics alone and check nothing at run
time, so their invariants are checked here: over centers drawn by
``hypothesis`` on findim(1..4) and the tail sequences, every depth from 1
to 8 and both semantics, and on pinned tuples.  The runs are derandomized
and keep no example database, so they are reproducible, and they write no
files.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ordertopo.carriers import TAIL_SEQ, Vec, findim, leq, ones, scale
from ordertopo.ordersets import Semantics, interval_contains, open_interval
from ordertopo.topology import neighborhood_catalog, symmetric_chain

F = Fraction
properties = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# see tests/test_record_properties.py: a home under os.devnull keeps
# hypothesis from writing its constants cache
set_hypothesis_home_dir(os.devnull)

rats = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def centers(draw):
    kind = draw(st.sampled_from([1, 2, 3, 4, "tailseq"]))
    if kind == "tailseq":
        return Vec(TAIL_SEQ, tuple(draw(st.lists(rats, max_size=4))), draw(rats))
    return Vec(findim(kind), tuple(draw(st.lists(rats, min_size=kind, max_size=kind))))


@properties
@given(centers(), st.integers(1, 8), st.sampled_from(Semantics))
def test_catalogs_hold_their_center_nest_and_shrink_by_2e_over_m(x, depth, semantics):
    chain = symmetric_chain(x, depth, semantics)
    catalog = neighborhood_catalog(x, depth, semantics)
    assert len(chain) == depth
    assert catalog[len(catalog) - depth:] == chain  # the chain comes last
    assert all(interval_contains(iv, x) for iv in catalog)
    for a, b in zip(chain, chain[1:]):
        assert leq(a.lo, b.lo) and leq(b.hi, a.hi)
    e = ones(x.carrier)
    assert [iv.width() for iv in chain] == [scale(F(2, m), e) for m in range(1, depth + 1)]


def fin(*coords):
    return Vec.fin(coords)


def seq(prefix, tail):
    return Vec.seq(prefix, tail)


PINNED = [
    # findim(2), strict-partial: each coordinate perturbed by 1 and by 1/2,
    # then the chain; only two positions, so depth 3 perturbs both
    (fin(1, F(-1, 2)), 3, Semantics.STRICT_PARTIAL, (
        open_interval(fin(0, F(-1, 2)), fin(2, F(-1, 2))),
        open_interval(fin(F(1, 2), F(-1, 2)), fin(F(3, 2), F(-1, 2))),
        open_interval(fin(1, F(-3, 2)), fin(1, F(1, 2))),
        open_interval(fin(1, -1), fin(1, 0)),
        open_interval(fin(0, F(-3, 2)), fin(2, F(1, 2))),
        open_interval(fin(F(1, 2), -1), fin(F(3, 2), 0)),
        open_interval(fin(F(2, 3), F(-5, 6)), fin(F(4, 3), F(-1, 6))),
    )),
    # the tail sequences, strict-uniform: a single-coordinate perturbation
    # leaves the tail equal, so it is empty and only the chain is left
    (seq([1], 0), 2, Semantics.STRICT_UNIFORM, (
        open_interval(seq([0], -1), seq([2], 1), Semantics.STRICT_UNIFORM),
        open_interval(seq([F(1, 2)], F(-1, 2)), seq([F(3, 2)], F(1, 2)), Semantics.STRICT_UNIFORM),
    )),
]


@pytest.mark.parametrize("x, depth, semantics, want", PINNED)
def test_pinned_catalogs(x, depth, semantics, want):
    assert neighborhood_catalog(x, depth, semantics) == want
