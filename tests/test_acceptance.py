"""Acceptance suite: one test per criterion, one printed line per verdict.

Everything here is exact rational arithmetic; there are no tolerances to
tune.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ordertopo.carriers import (
    TAIL_SEQ,
    Vec,
    findim,
    inf,
    leq,
    neg,
    pos,
    scale,
    sup,
    unit,
    zero,
)
from ordertopo.cli import main as cli_main
from ordertopo.families import (
    Certificate,
    CoordDecay,
    Scale,
    order_converges,
    validate_certificate,
    value,
)
from ordertopo.ordersets import (
    Band,
    Complement,
    HalfSpace,
    Intersection,
    IntervalSet,
    TailZero,
    Translate,
    Union,
    band_member,
    disjoint,
    ideal_member,
    is_atom,
    member,
    open_interval,
)
from ordertopo.theorems import (
    CONFIRMED,
    verify_band_proposition,
    verify_example_e1,
    verify_interval_convergence_theorem,
    verify_interval_fit_probe,
)
from ordertopo.topology import (
    check_order_closed,
    check_quasi_order_closed,
    replay_witness,
    symmetric_chain,
)
from randvec import rand_vec

F = Fraction


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


# -- 1. the counterexample, end to end ------------------------------------------------


def test_example_e1_end_to_end():
    with criterion("example-e1"):
        started = time.monotonic()
        report = verify_example_e1()
        elapsed = time.monotonic() - started
        assert report.conclusion == CONFIRMED
        assert len(report.steps) == 4
        assert all(s.outcome == "ok" for s in report.steps)
        # membership in the complement holds from index 1, exactly
        e1 = unit(TAIL_SEQ, 1)
        hole = Complement(IntervalSet(open_interval(-e1, e1)))
        from ordertopo.families import eventually_in, shift_family

        fam = shift_family()
        assert all(member(hole, value(fam, k)) for k in range(1, 101))
        ev = eventually_in(fam, hole)
        assert ev.status == "holds-from" and ev.index == 1
        assert "holds from index 1" in report.steps[1].detail
        assert report.steps[2].name == "not-order-open"
        assert report.steps[3].name == "tau-e-refuted"
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# -- 2. lattice laws at scale ----------------------------------------------------------


def test_lattice_law_suite():
    with criterion("lattice-laws"):
        rng = random.Random(46134)
        for carrier_pick in ("findim", "tailseq"):
            for _ in range(10_000):
                if carrier_pick == "findim":
                    carrier = findim(rng.randint(1, 6))
                else:
                    carrier = TAIL_SEQ
                x = rand_vec(rng, carrier, max_den=64, max_prefix=8)
                y = rand_vec(rng, carrier, max_den=64, max_prefix=8)
                z = rand_vec(rng, carrier, max_den=64, max_prefix=8)
                assert sup(x, y) == sup(y, x)
                assert inf(x, y) == inf(y, x)
                assert sup(sup(x, y), z) == sup(x, sup(y, z))
                assert sup(x, inf(x, y)) == x
                assert inf(x, sup(y, z)) == sup(inf(x, y), inf(x, z))
                assert x == pos(x) - neg(x)
                assert abs(x) == pos(x) + neg(x)
                assert inf(pos(x), neg(x)) == zero(carrier)
                if leq(x, y):
                    assert leq(x + z, y + z)
                    assert leq(scale(F(5, 3), x), scale(F(5, 3), y))


# -- 3. interval convergence implies order convergence, at desk scale --------------------


def _random_t1_family(rng):
    if rng.random() < 0.5:
        carrier = findim(rng.randint(1, 4))
    else:
        carrier = TAIL_SEQ
    if rng.random() < 0.5:
        c = rand_vec(rng, carrier, max_den=8, max_prefix=3)
        p = rand_vec(rng, carrier, max_den=8, max_prefix=3)
        q = rng.choice([F(0), F(1, 2), F(1)])
        return CoordDecay(c, p, q), c
    v = abs(rand_vec(rng, carrier, max_den=8, max_prefix=3))
    lam = rng.choice([F(1, 2), F(1, 3), F(2, 3)])
    return Scale(v, lam), zero(carrier)


def test_interval_convergence_at_desk_scale():
    with criterion("interval-convergence-100"):
        rng = random.Random(77001)
        confirmed = 0
        for _ in range(100):
            family, limit = _random_t1_family(rng)
            chain = symmetric_chain(limit, 10)
            report = verify_interval_convergence_theorem(family, limit, chain)
            assert report.conclusion == CONFIRMED, report
            # the construction and the independent certificate both validated
            names = [s.name for s in report.steps]
            assert "construction-certificate" in names
            assert "independent-certificate" in names
            got = order_converges(family, limit)
            assert isinstance(got, Certificate)
            assert validate_certificate(family, got)
            confirmed += 1
        assert confirmed == 100


# -- 4. band proposition probes ----------------------------------------------------------


def test_band_proposition_probes():
    with criterion("band-probes"):
        cases = [
            Band((unit(findim(3), 1),)),
            Band((unit(findim(4), 1), unit(findim(4), 3))),
            Band((unit(TAIL_SEQ, 1),)),
            Band((unit(TAIL_SEQ, 1), Vec.seq([0, 2], 0))),
        ]
        for expr in cases:
            quasi = check_quasi_order_closed(expr)
            assert quasi.status == "certified", expr
            assert check_order_closed(expr).status != "refuted"
            report = verify_band_proposition(expr)
            assert report.conclusion == CONFIRMED
        tz = check_quasi_order_closed(TailZero())
        assert tz.status == "refuted"
        assert tz.witness.mode == "increasing"
        assert replay_witness(TailZero(), tz.witness)


# -- 5. every certified-open set admits interval fits --------------------------------------


def test_interval_fit_probe_catalog():
    with criterion("interval-fit-50x5"):
        quadrant = Intersection((
            Complement(HalfSpace(1, "le", F(0))),
            Complement(HalfSpace(2, "le", F(0))),
        ))
        catalog = [
            Intersection(()),                              # the whole plane
            quadrant,
            Translate(quadrant, Vec.fin([-1, -1])),
            Complement(HalfSpace(2, "ge", F(3))),
            Union((                                        # overlapping cover
                Complement(HalfSpace(1, "le", F(0))),
                Complement(HalfSpace(1, "ge", F(1))),
            )),
        ]
        report = verify_interval_fit_probe(
            catalog, samples_per_set=50, carrier=findim(2))
        assert report.conclusion == CONFIRMED
        assert len(report.steps) == 5
        for step in report.steps:
            assert step.outcome == "ok"
            assert "50 fits" in step.detail


# -- 6. oracle equivalence -------------------------------------------------------------------


def _band_oracle(gens, y):
    carrier = y.carrier
    basis = [unit(carrier, j) for j in range(1, carrier.dim + 1)]
    complement = [e for e in basis if all(disjoint(e, g) for g in gens)]
    return all(disjoint(y, e) for e in complement)


def _atom_oracle(x, max_den=2):
    per_coord = []
    for c in x.coords:
        vals = {F(0)}
        for d in range(1, max_den + 1):
            n = 0
            while F(n, d) <= c:
                vals.add(F(n, d))
                n += 1
        per_coord.append(sorted(vals))
    candidates = [Vec(x.carrier, combo) for combo in itertools.product(*per_coord)]
    nonzero = [u for u in candidates if not u.is_zero()]
    for u in nonzero:
        for v in nonzero:
            if inf(u, v).is_zero():
                return False
    return True


def _lambda_oracle(gens, y, lam_star):
    """Dyadic bisection bracket must collapse onto the reported minimum."""
    s = abs(gens[0])
    for g in gens[1:]:
        s = s + abs(g)

    def feasible(lam):
        return leq(abs(y), scale(lam, s))

    assert feasible(lam_star)
    if lam_star == 0:
        assert y.is_zero()
        return
    hi = F(1)
    while not feasible(hi):
        hi *= 2
    lo = F(0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    width = hi - lo
    assert lo < lam_star <= hi
    assert not feasible(lam_star - width)


def test_oracle_equivalence():
    with criterion("oracle-equivalence"):
        rng = random.Random(90210)
        carrier = findim(4)
        for _ in range(1000):
            gens = [rand_vec(rng, carrier, max_den=4)
                    for _ in range(rng.randint(1, 3))]
            y = rand_vec(rng, carrier, max_den=4)
            assert band_member(gens, y) == _band_oracle(gens, y)
        atom_cases = [unit(findim(3), j) for j in range(1, 4)]
        atom_cases += [
            Vec.fin([1, 1, 0]), Vec.fin([0, 2, 0]), Vec.fin([F(1, 2), 0, 0]),
            Vec.fin([1, 0, 1]), Vec.fin([2, 1, 1]), Vec.fin([0, 0, F(3, 2)]),
        ]
        for _ in range(20):
            v = abs(rand_vec(rng, findim(3), max_den=2))
            if not v.is_zero():
                atom_cases.append(v)
        for x in atom_cases:
            assert is_atom(x) == _atom_oracle(x)
        checked = 0
        while checked < 200:
            carrier = findim(3) if rng.random() < 0.5 else TAIL_SEQ
            gens = [rand_vec(rng, carrier, max_den=6, max_prefix=3)
                    for _ in range(rng.randint(1, 2))]
            y = rand_vec(rng, carrier, max_den=6, max_prefix=3)
            ok, lam = ideal_member(gens, y)
            if not ok:
                continue
            _lambda_oracle(gens, y, lam)
            checked += 1


# -- 7. determinism across runs ----------------------------------------------------------


def _run_cli(argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_cli_determinism():
    with criterion("determinism"):
        import tempfile
        from pathlib import Path

        docs = {
            "counterexample.json": {
                "carrier": {"kind": "tailseq"},
                "task": {"check-set": {
                    "set": {"complement": {"interval": {
                        "lo": {"prefix": ["-1"], "tail": "0"},
                        "hi": {"prefix": ["1"], "tail": "0"},
                        "kind": "open"}}},
                    "mode": "quasi-order-closed",
                }},
            },
            "convergence.json": {
                "carrier": {"kind": "tailseq"},
                "task": {"convergence": {
                    "family": {"template": "shift"},
                    "limit": {"prefix": [], "tail": "0"},
                    "depth": 2,
                }},
            },
            "theorem.json": {
                "carrier": {"kind": "tailseq"},
                "task": {"theorem": {"id": "example-e1"}},
            },
        }
        commands = {"counterexample.json": "check-set",
                    "convergence.json": "convergence",
                    "theorem.json": "theorems"}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, doc in docs.items():
                doc_path = root / name
                doc_path.write_text(json.dumps(doc))
                outputs = []
                for tag in ("a", "b", "c"):
                    out = root / f"{name}.{tag}.json"
                    code, text = _run_cli([
                        commands[name], str(doc_path), "--output", str(out),
                    ])
                    assert code == 0
                    outputs.append((text.encode(), out.read_bytes()))
                assert outputs[0] == outputs[1] == outputs[2], name
