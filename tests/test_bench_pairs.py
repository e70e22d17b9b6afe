"""The summary of scripts/bench_pairs.py: medians, quartiles and pairs won."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "docs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def result(docs_per_s, p50, attempted=100, failed=0):
    return {"attempted": attempted, "failed": failed, "metrics": {
        "docs_per_s": {"value": docs_per_s, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"}}}


def test_summary_counts_pairs_won_in_each_metric_direction():
    pairs = [
        {"parent": result(100, 2.0), "tree": result(120, 1.5)},
        {"parent": result(110, 2.2), "tree": result(110, 1.6, failed=1)},  # a tie in docs_per_s
        {"parent": result(90, 1.8), "tree": result(130, 1.9, attempted=130)},
        {"parent": result(105, 2.1), "tree": result(125, 1.4)},
        {"parent": result(95, 2.0), "tree": {"error": "exit 1: boom"}},
    ]
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["pairs"] == 5
    assert got["parent"] == {"runs": 5, "errors": 0, "attempted": 500, "failed": 0}
    assert got["tree"] == {"runs": 5, "errors": 1, "attempted": 430, "failed": 1}
    docs = got["metrics"]["docs_per_s"]
    assert docs["pairs"] == 4 and docs["tree_won"] == 3
    assert docs["parent"] == {"median": 102.5, "q1": 97.5, "q3": 106.25}
    assert docs["tree"]["median"] == 122.5
    assert docs["median_change"] == pytest.approx(20 / 102.5)
    p50 = got["metrics"]["latency_p50_ms"]
    assert p50["tree_won"] == 3 and p50["better"] == "lower" and p50["bound"] == 0.25
    assert p50["median_change"] == pytest.approx((1.55 - 2.05) / 2.05)
    assert "setup_s" not in got["metrics"]  # no run reported it


def test_a_single_pair_has_its_value_as_every_quartile():
    got = bench_pairs.summarize([{"parent": result(100, 2.0), "tree": result(80, 2.5)}], SPEC)
    docs = got["metrics"]["docs_per_s"]
    assert docs["tree"] == {"median": 80, "q1": 80, "q3": 80} and docs["tree_won"] == 0


def test_seed_ranges_include_both_ends():
    assert bench_pairs.parse_seeds(["1901-1903", "1950"]) == [1901, 1902, 1903, 1950]
