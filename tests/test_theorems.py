import json
from fractions import Fraction

import pytest

from ordertopo.carriers import TAIL_SEQ, Vec, findim, unit, zero
from ordertopo.families import CoordDecay, Explicit, shift_family
from ordertopo.ordersets import (
    Band,
    Complement,
    HalfSpace,
    Ideal,
    Intersection,
    Semantics,
    TailZero,
    Translate,
)
from ordertopo.theorems import (
    CONFIRMED,
    COUNTEREXAMPLE,
    INCONCLUSIVE,
    verify_band_proposition,
    verify_example_e1,
    verify_interval_convergence_theorem,
    verify_interval_fit_probe,
)

F = Fraction


def quadrant():
    return Intersection((
        Complement(HalfSpace(1, "le", F(0))),
        Complement(HalfSpace(2, "le", F(0))),
    ))


def test_example_e1_confirmed_with_four_steps():
    report = verify_example_e1()
    assert report.conclusion == CONFIRMED
    assert not report.contradicts_expectations
    assert [s.name for s in report.steps] == [
        "monotone-to-zero", "stays-outside", "not-order-open", "tau-e-refuted",
    ]
    assert all(s.outcome == "ok" for s in report.steps)
    assert "holds from index 1" in report.steps[1].detail


def test_example_e1_is_deterministic():
    assert verify_example_e1() == verify_example_e1()


def test_example_e1_stable_under_grid_enlargement(monkeypatch):
    import ordertopo.topology as topology

    want = verify_example_e1()
    monkeypatch.setattr(topology, "MAX_CANDIDATES", 900)
    monkeypatch.setattr(topology, "GEN_SCALES", (F(1, 2), F(1), F(2), F(3)))
    assert verify_example_e1() == want


def test_example_e1_inconclusive_under_strict_uniform():
    report = verify_example_e1(Semantics.STRICT_UNIFORM)
    assert report.conclusion == INCONCLUSIVE
    assert "interval empty under this semantics" in report.notes


def test_interval_convergence_confirmed_for_decay():
    f = CoordDecay(zero(findim(2)), Vec.fin([1, 1]))
    report = verify_interval_convergence_theorem(f, zero(findim(2)), 10)
    assert report.conclusion == CONFIRMED
    assert not report.contradicts_expectations


def test_interval_convergence_hypothesis_unmet_for_shift():
    report = verify_interval_convergence_theorem(shift_family(), zero(TAIL_SEQ), 3)
    assert report.conclusion == INCONCLUSIVE
    assert any("hypothesis" in n for n in report.notes)
    assert not report.contradicts_expectations


def test_interval_convergence_trivial_constant():
    x = Vec.fin([1, 2])
    f = Explicit((x,))
    report = verify_interval_convergence_theorem(f, x, 4)
    assert report.conclusion == CONFIRMED


def test_interval_convergence_rejects_a_depth_below_one():
    # the theorem builds its own chain, so the depth is all a caller can get wrong
    f = CoordDecay(zero(findim(2)), Vec.fin([1, 1]))
    with pytest.raises(ValueError, match="depth must be at least 1"):
        verify_interval_convergence_theorem(f, zero(findim(2)), 0)


def test_band_proposition_confirmed_for_band_generators():
    report = verify_band_proposition(Band((unit(TAIL_SEQ, 1),)))
    assert report.conclusion == CONFIRMED
    report2 = verify_band_proposition(Ideal((unit(findim(3), 1),)))
    assert report2.conclusion == CONFIRMED


def test_band_proposition_counterexample_for_tail_zero():
    report = verify_band_proposition(TailZero())
    assert report.conclusion == COUNTEREXAMPLE
    assert not report.contradicts_expectations
    assert any("not a band candidate" in n for n in report.notes)


def test_band_proposition_rejects_non_ideal_input():
    with pytest.raises(ValueError):
        verify_band_proposition(HalfSpace(1, "le", F(0)))


def test_interval_fit_probe_small_catalog():
    catalog = [
        Intersection(()),
        quadrant(),
        Translate(quadrant(), Vec.fin([-1, -1])),
    ]
    report = verify_interval_fit_probe(catalog, samples_per_set=8)
    assert report.conclusion == CONFIRMED


def test_interval_fit_probe_rejects_uncertified_entry():
    from ordertopo.ordersets import IntervalSet, open_interval

    bad = IntervalSet(open_interval(-unit(TAIL_SEQ, 1), unit(TAIL_SEQ, 1)))
    with pytest.raises(ValueError):
        verify_interval_fit_probe([bad], samples_per_set=2)


def test_interval_fit_probe_empty_catalog_vacuous():
    report = verify_interval_fit_probe([], samples_per_set=5)
    assert report.conclusion == CONFIRMED


def test_interval_convergence_near_one_ratio_is_cheap(monkeypatch):
    # a scale family with lam = 1 - 10^-4 enters the chain intervals only
    # after some 30000 indices; each threshold must cost a few exact powers,
    # not a bisection over them
    from ordertopo.families import Scale

    calls = 0
    real = F.__pow__

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    x = zero(findim(2))
    family = Scale(Vec.fin([1, 4]), F(9999, 10000))
    monkeypatch.setattr(F, "__pow__", counting)
    report = verify_interval_convergence_theorem(family, x, 5)
    assert report.conclusion == CONFIRMED
    assert calls <= 200


def test_a_confirmed_interval_convergence_computes_no_width(monkeypatch):
    # the chain is canonical by construction, so no width is checked; a
    # width is computed only to describe a failed hypothesis
    from ordertopo.ordersets import Interval

    calls = 0
    real = Interval.width

    def counting(iv):
        nonlocal calls
        calls += 1
        return real(iv)

    x = zero(findim(2))
    monkeypatch.setattr(Interval, "width", counting)
    report = verify_interval_convergence_theorem(CoordDecay(x, Vec.fin([1, 2])), x, 4)
    assert report.conclusion == CONFIRMED
    assert calls == 0


def test_interval_convergence_solves_each_open_endpoint_threshold_once(monkeypatch):
    # the open chain intervals ask for ">= lo" and "= lo" (and for hi) of the
    # same endpoint; one settle serves both, so 20 geometric thresholds are
    # solved where settling per op solved 30
    from ordertopo.eventual import Geom
    from ordertopo.families import Scale

    calls = 0
    real = Geom.first_below

    def counting(self, t, start):
        nonlocal calls
        calls += 1
        return real(self, t, start)

    x = zero(findim(2))
    monkeypatch.setattr(Geom, "first_below", counting)
    report = verify_interval_convergence_theorem(Scale(Vec.fin([1, 4]), F(9999, 10000)), x, 5)
    assert report.conclusion == CONFIRMED
    assert calls == 20


PINNED_INTERVAL_CONVERGENCE_REPORT = """{
  "carrier": {
    "dim": 2,
    "kind": "findim"
  },
  "semantics": "strict-partial",
  "task": "theorem",
  "theorem": {
    "conclusion": "confirmed",
    "contradicts_expectations": false,
    "inputs": {
      "depth": "3",
      "family": "CoordDecay"
    },
    "notes": [],
    "steps": [
      {
        "detail": "consistent over the supplied chain (the countable stand-in for the full neighborhood filter)",
        "name": "hypothesis",
        "operation": "tau_e_convergence_report",
        "outcome": "ok"
      },
      {
        "detail": "widths 2e/m decrease to zero",
        "name": "width-family",
        "operation": "monotonicity + order_limit",
        "outcome": "ok"
      },
      {
        "detail": "per-threshold domination by the widths",
        "name": "construction-certificate",
        "operation": "validate_certificate",
        "outcome": "ok"
      },
      {
        "detail": "template closed form certifies the same limit",
        "name": "independent-certificate",
        "operation": "order_converges",
        "outcome": "ok"
      }
    ],
    "theorem_id": "interval-convergence"
  }
}
"""


def test_a_confirmed_interval_convergence_report_keeps_its_bytes():
    # the certificates are derived, not re-scanned; the construction step's
    # operation text "validate_certificate" is report wire text and stays
    from ordertopo.documents import parse_document, run_document
    from ordertopo.serialize import carrier_to_json, family_to_json, vec_to_json

    x = zero(findim(2))
    task = {"theorem": {"id": "interval-convergence", "depth": 3, "limit": vec_to_json(x),
                        "family": family_to_json(CoordDecay(x, Vec.fin([1, 2])))}}
    doc = parse_document({"carrier": carrier_to_json(findim(2)), "task": task})
    report = run_document(doc).report
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == PINNED_INTERVAL_CONVERGENCE_REPORT


PINNED_BAND_PROPOSITION_REPORT = """{
  "carrier": {
    "kind": "tailseq"
  },
  "semantics": "strict-partial",
  "task": "theorem",
  "theorem": {
    "conclusion": "confirmed",
    "contradicts_expectations": false,
    "inputs": {
      "set": "Band"
    },
    "notes": [],
    "steps": [
      {
        "detail": "certified: band-support",
        "name": "quasi-order-closed",
        "operation": "check_quasi_order_closed",
        "outcome": "ok"
      },
      {
        "detail": "status certified",
        "name": "order-closed",
        "operation": "check_order_closed",
        "outcome": "ok"
      },
      {
        "detail": "2 running-sup witnesses kept their limits inside",
        "name": "running-sup-probes",
        "operation": "running_sup_meet",
        "outcome": "ok"
      }
    ],
    "theorem_id": "band-proposition"
  }
}
"""


def test_a_confirmed_band_proposition_report_keeps_its_bytes():
    # the order-closed step is derived from the certified quasi check, not
    # re-run; its operation text "check_order_closed" is report wire text
    from ordertopo.documents import parse_document, run_document
    from ordertopo.serialize import setexpr_to_json

    task = {"theorem": {"id": "band-proposition",
                        "set": setexpr_to_json(Band((unit(TAIL_SEQ, 1),)))}}
    doc = parse_document({"carrier": {"kind": "tailseq"}, "task": task})
    report = run_document(doc).report
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == PINNED_BAND_PROPOSITION_REPORT
