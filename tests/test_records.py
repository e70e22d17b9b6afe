"""The value records behave as the frozen dataclasses they replaced.

The reprs below were recorded from the ``dataclasses`` implementation; a
test pins form reprs by SHA-256, so they must stay byte-identical.
"""

import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from ordertopo.carriers import TAIL_SEQ, Carrier, Vec, findim
from ordertopo.documents import RunResult
from ordertopo.eventual import Geom, Harmonic, MonoSeq, ShiftForm
from ordertopo.families import CoordDecay, EventualVerdict, Explicit, Scale, Shift
from ordertopo.ordersets import (
    Dilate,
    HalfSpace,
    Intersection,
    IntervalSet,
    TailZero,
    Union,
    open_interval,
)
from ordertopo.records import FrozenInstanceError, replace
from ordertopo.theorems import TheoremStep
from ordertopo.topology import SearchReport, check_quasi_order_closed

F = Fraction

CASES = {
    "carrier": lambda: findim(2),
    "vec_fin": lambda: Vec.fin([0, F(-1, 2)]),
    "vec_seq": lambda: Vec.seq([1, 0, 0], 0),
    "interval_set": lambda: IntervalSet(open_interval(Vec.fin([0]), Vec.fin([1]))),
    "half_space": lambda: HalfSpace("tail", "le", F(3, 4)),
    "tail_zero": lambda: TailZero(),
    "dilate": lambda: Dilate(TailZero(), 2),
    "shift": lambda: Shift(),
    "scale": lambda: Scale(Vec.fin([1]), F(1, 2)),
    "coord_decay": lambda: CoordDecay(Vec.seq([], 0), Vec.seq([1], 0)),
    "eventual_verdict": lambda: EventualVerdict("holds-from", 3),
    "geom": lambda: Geom(F(1, 3)),
    "mono_seq": lambda: MonoSeq(F(0), F(1), Harmonic(F(0)), 2),
    "shift_form": lambda: ShiftForm((F(1),), F(0), F(1)),
    "search_report": lambda: SearchReport(3, "g"),
    "theorem_step": lambda: TheoremStep("n", "op", "ok"),
    "run_result": lambda: RunResult(1, "text\n", {"status": "unknown"}),
}

PINNED_REPRS = {
    'carrier': "Carrier(kind='findim', dim=2)",
    'vec_fin': "Vec(carrier=Carrier(kind='findim', dim=2), coords=(Fraction(0, 1), Fraction(-1, 2)), tail=None)",
    'vec_seq': "Vec(carrier=Carrier(kind='tailseq', dim=0), coords=(Fraction(1, 1),), tail=Fraction(0, 1))",
    'interval_set': "IntervalSet(interval=Interval(lo=Vec(carrier=Carrier(kind='findim', dim=1), coords=(Fraction(0, 1),), tail=None), hi=Vec(carrier=Carrier(kind='findim', dim=1), coords=(Fraction(1, 1),), tail=None), kind=<IntervalKind.OPEN: 'open'>, semantics=<Semantics.STRICT_PARTIAL: 'strict-partial'>))",
    'half_space': "HalfSpace(coord='tail', relation='le', bound=Fraction(3, 4))",
    'tail_zero': 'TailZero()',
    'dilate': 'Dilate(inner=TailZero(), factor=Fraction(2, 1))',
    'shift': 'Shift(head=Fraction(0, 1), tail=Fraction(1, 1))',
    'scale': "Scale(v=Vec(carrier=Carrier(kind='findim', dim=1), coords=(Fraction(1, 1),), tail=None), lam=Fraction(1, 2))",
    'coord_decay': "CoordDecay(c=Vec(carrier=Carrier(kind='tailseq', dim=0), coords=(), tail=Fraction(0, 1)), p=Vec(carrier=Carrier(kind='tailseq', dim=0), coords=(Fraction(1, 1),), tail=Fraction(0, 1)), q=Fraction(0, 1))",
    'eventual_verdict': "EventualVerdict(status='holds-from', index=3, settled_at=0)",
    'geom': 'Geom(lam=Fraction(1, 3))',
    'mono_seq': 'MonoSeq(a=Fraction(0, 1), b=Fraction(1, 1), kernel=Harmonic(q=Fraction(0, 1)), start=2)',
    'shift_form': 'ShiftForm(fixed=(Fraction(1, 1),), head=Fraction(0, 1), tailv=Fraction(1, 1), start=1)',
    'search_report': "SearchReport(candidates=3, grids='g')",
    'theorem_step': "TheoremStep(name='n', operation='op', outcome='ok', detail='')",
    'run_result': "RunResult(exit_code=1, text='text\\n', report={'status': 'unknown'})",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_dataclass_repr(name):
    assert repr(CASES[name]()) == PINNED_REPRS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_records_hash_equal(name):
    a, b = CASES[name](), CASES[name]()
    assert a == b and not a != b
    if name != "run_result":  # its report is a dict, as it was before
        assert hash(a) == hash(b)


def test_equality_is_type_strict():
    a = TailZero()
    assert Union((a,)) != Intersection((a,))
    values = (Vec.fin([1]),)
    assert Explicit(values) != values
    assert values != Explicit(values)
    assert len({Union((a,)), Intersection((a,)), Explicit(values), values}) == 4


def test_canonical_tailseq_vectors_are_equal_and_hash_equal():
    x = Vec.seq([1, 2, 0, 0], 0)
    y = Vec.seq([1, 2], 0)
    assert x.coords == (F(1), F(2))
    assert x == y and hash(x) == hash(y)
    assert x != Vec.seq([1, 2], 1)


def test_a_vector_hash_is_computed_once(monkeypatch):
    v = Vec.fin([F(1, 3), F(2, 7), F(-5, 11)])
    first = hash(v)
    calls = 0
    real = Fraction.__hash__

    def counting(q):
        nonlocal calls
        calls += 1
        return real(q)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    assert hash(v) == first
    assert calls == 0
    assert hash(Vec.fin([F(1, 3), F(2, 7), F(-5, 11)])) == first
    assert calls == 3


@pytest.mark.parametrize("obj", [Vec.fin([1]), Shift(), TailZero(), CASES["coord_decay"]()],
                         ids=lambda obj: type(obj).__name__)
def test_records_are_frozen(obj):
    name = obj.__match_args__[0] if obj.__match_args__ else "anything"
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        setattr(obj, "new_attribute", 1)
    with pytest.raises(AttributeError):
        delattr(obj, name)


def test_defaults_and_keyword_construction():
    assert Shift() == Shift(F(0), F(1)) == Shift(head=0, tail=1)
    c, p = Vec.fin([0]), Vec.fin([1])
    assert CoordDecay(c, p) == CoordDecay(c, p, F(0)) == CoordDecay(p=p, c=c)
    assert CoordDecay(c, p).q == 0
    assert Carrier("tailseq") == TAIL_SEQ and Carrier(dim=2, kind="findim") == findim(2)
    with pytest.raises(TypeError):
        Scale(Vec.fin([1]))


def test_post_init_normalizes_before_the_fields_are_compared():
    # __post_init__ turns the int into a Fraction; equality and hash see that
    assert Dilate(TailZero(), 2) == Dilate(TailZero(), F(2))
    assert hash(Dilate(TailZero(), 2)) == hash(Dilate(TailZero(), F(2)))
    with pytest.raises(ValueError):
        Dilate(TailZero(), 0)


def test_replace_changes_fields_and_reruns_post_init():
    decay = CoordDecay(Vec.fin([0]), Vec.fin([1]))
    changed = replace(decay, q=F(1, 2))
    assert changed.q == F(1, 2) and changed != decay
    assert decay == CoordDecay(Vec.fin([0]), Vec.fin([1])) and decay.q == 0
    assert replace(decay, q=2) == CoordDecay(Vec.fin([0]), Vec.fin([1]), F(2))
    assert replace(Dilate(TailZero(), 2), factor=3).factor == F(3)
    with pytest.raises(ValueError):
        replace(Dilate(TailZero(), 2), factor=0)
    with pytest.raises(TypeError):
        replace(decay, no_such_field=1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_are_stored_once(name):
    r = CASES[name]()
    assert r.__slots__ == r.__match_args__ + ("_hash",)
    assert not hasattr(r, "_values")


COPYABLE = {
    "vec_fin": lambda: Vec.fin([0, F(-1, 2)]),
    "vec_seq": lambda: Vec.seq([1, F(1, 3)], 0),
    "interval": lambda: open_interval(Vec.fin([0]), Vec.fin([1])),
    "interval_set": CASES["interval_set"],
    "tail_zero": lambda: TailZero(),
    "coord_decay": CASES["coord_decay"],
    "verdict": lambda: check_quasi_order_closed(TailZero()),
}


@pytest.mark.parametrize("name", sorted(COPYABLE))
def test_records_copy_and_pickle(name):
    r = COPYABLE[name]()
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is type(r)
        assert twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)


def test_a_findim_vector_takes_at_most_100_bytes():
    carrier, coords = findim(3), (F(1), F(2), F(3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vectors = [Vec(carrier, coords) for _ in range(100_000)]
        per_vector = (tracemalloc.get_traced_memory()[0] - before) / len(vectors)
    finally:
        tracemalloc.stop()
    assert per_vector <= 100
