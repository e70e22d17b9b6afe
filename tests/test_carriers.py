import random
from fractions import Fraction

import pytest

from ordertopo.carriers import (
    TAIL_SEQ,
    CarrierMismatch,
    Vec,
    findim,
    inf,
    leq,
    neg,
    ones,
    pos,
    scale,
    sup,
    unit,
    zero,
)
from randvec import rand_vec


def test_leq_coordinatewise():
    assert leq(Vec.fin([1, 0]), Vec.fin([1, 2]))
    assert not leq(Vec.fin([1, 2]), Vec.fin([1, 0]))


def test_leq_tail_blocks_comparison():
    # x_2 = (0,0,1,1,...) against e_1 = (1,0,0,...): tail 1 vs tail 0.
    x2 = Vec.seq([0, 0], 1)
    e1 = Vec.seq([1], 0)
    assert not leq(x2, e1)
    assert not leq(e1, x2)


def test_leq_reflexive():
    x = Vec.seq([3, -1], Fraction(1, 2))
    assert leq(x, x)


def test_sup_coordinatewise_max():
    assert sup(Vec.fin([1, 0, 2]), Vec.fin([0, 3, 1])) == Vec.fin([1, 3, 2])


def test_sup_tailseq_alignment():
    # Oracle: align prefixes to length 2 and take the coordinatewise max.
    x = Vec.seq([0, 0], 1)  # (0,0,1,1,...)
    y = Vec.seq([1], 0)     # (1,0,0,...)
    aligned_max = [max(0, 1), max(0, 0)]
    tail_max = max(1, 0)
    expect = Vec.seq(aligned_max, tail_max)
    assert sup(x, y) == expect
    assert expect == Vec.seq([1, 0], 1)


def test_inf_idempotent():
    x = Vec.fin([2, -3])
    assert inf(x, x) == x


def test_abs_pos_neg():
    assert abs(Vec.fin([-2, 3])) == Vec.fin([2, 3])
    z = zero(findim(2))
    assert abs(z) == z
    assert pos(Vec.fin([-1, 2])) == Vec.fin([0, 2])
    assert neg(Vec.fin([-1, 2])) == Vec.fin([1, 0])


def test_add_scale():
    assert Vec.fin([1, 2]) + Vec.fin([3, -1]) == Vec.fin([4, 1])
    assert scale(Fraction(1, 2), Vec.seq([2], 4)) == Vec.seq([1], 2)
    x = Vec.seq([5, -1], 7)
    assert scale(0, x) == zero(TAIL_SEQ)


def test_normalize_absorbs_redundant_prefix():
    assert Vec.seq([1, 1, 1], 1) == Vec.seq([], 1)
    assert Vec.seq([1, 0], 0) == Vec.seq([1], 0)


def test_equality_is_canonical():
    assert Vec.seq([2, 3, 3], 3) == Vec.seq([2], 3)
    assert Vec.seq([2], 3) != Vec.seq([2], 4)


def test_text_form():
    assert str(Vec.fin([1, Fraction(-1, 2)])) == "(1, -1/2)"
    assert str(Vec.seq([1, 2, 0], 0)) == "(1, 2; tail 0)"
    assert f"{Vec.seq([], Fraction(1, 3))}" == "(tail 1/3)"


def test_carrier_mismatch_raises():
    with pytest.raises(CarrierMismatch):
        leq(Vec.fin([1]), Vec.fin([1, 2]))
    with pytest.raises(CarrierMismatch):
        sup(Vec.fin([1, 2]), Vec.seq([1], 0))


def test_unit_vectors():
    assert unit(findim(3), 2) == Vec.fin([0, 1, 0])
    assert unit(TAIL_SEQ, 3) == Vec.seq([0, 0, 1], 0)
    assert ones(TAIL_SEQ) == Vec.seq([], 1)


def test_coord_access():
    x = Vec.seq([5, -1], 2)
    assert x.coord(1) == 5
    assert x.coord(2) == -1
    assert x.coord(99) == 2
    assert x.at("tail") == 2


@pytest.mark.parametrize("carrier", [findim(3), TAIL_SEQ])
def test_lattice_laws_randomized(carrier):
    rng = random.Random(20160229)
    z0 = zero(carrier)
    for _ in range(400):
        x = rand_vec(rng, carrier)
        y = rand_vec(rng, carrier)
        z = rand_vec(rng, carrier)
        # lattice laws
        assert sup(x, y) == sup(y, x)
        assert inf(x, y) == inf(y, x)
        assert sup(sup(x, y), z) == sup(x, sup(y, z))
        assert inf(inf(x, y), z) == inf(x, inf(y, z))
        assert sup(x, x) == x and inf(x, x) == x
        assert sup(x, inf(x, y)) == x
        assert inf(x, sup(y, z)) == sup(inf(x, y), inf(x, z))
        # sup is the least upper bound
        s = sup(x, y)
        assert leq(x, s) and leq(y, s)
        # order compatibility
        if leq(x, y):
            assert leq(x + z, y + z)
            assert leq(scale(Fraction(3, 2), x), scale(Fraction(3, 2), y))
        # translation / scale covariance
        assert sup(x + z, y + z) == sup(x, y) + z
        assert sup(scale(2, x), scale(2, y)) == scale(2, sup(x, y))
        # decomposition
        assert x == pos(x) - neg(x)
        assert abs(x) == pos(x) + neg(x)
        assert inf(pos(x), neg(x)) == z0
