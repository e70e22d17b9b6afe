"""The summary of scripts/bench_pairs.py: medians, quartiles, pairs won,
errors, cycled runs, equal digests, the metrics over their bound and each
side's source line count."""

import importlib.util
import json
import subprocess
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


def result(docs_per_s, p50, attempted=100, failed=0, digest=None, cycled=False):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "digest": digest, "cycled": cycled, "metrics": {
                "docs_per_s": {"value": docs_per_s, "unit": "1/s"},
                "latency_p50_ms": {"value": p50, "unit": "ms"}}}


def test_summary_counts_pairs_won_in_each_metric_direction():
    pairs = [
        {"parent": result(100, 2.0), "tree": result(120, 1.5)},
        {"parent": result(110, 2.2), "tree": result(110, 1.6)},  # a tie in docs_per_s
        {"parent": result(90, 1.8), "tree": result(130, 1.9, attempted=130)},
        {"parent": result(105, 2.1), "tree": result(125, 1.4)},
        {"parent": result(95, 2.0), "tree": {"error": "exit 1: boom"}},
    ]
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["pairs"] == 5
    assert got["parent"] == {"runs": 5, "errors": 0, "attempted": 500, "failed": 0, "cycled": 0}
    assert got["tree"] == {"runs": 5, "errors": 1, "attempted": 430, "failed": 0, "cycled": 0}
    docs = got["metrics"]["docs_per_s"]
    assert docs["pairs"] == 4 and docs["tree_won"] == 3
    assert docs["parent"] == {"median": 102.5, "q1": 97.5, "q3": 106.25}
    assert docs["tree"]["median"] == 122.5
    assert docs["median_change"] == pytest.approx(20 / 102.5)
    p50 = got["metrics"]["latency_p50_ms"]
    assert p50["tree_won"] == 3 and p50["better"] == "lower" and p50["bound"] == 0.25
    assert p50["median_change"] == pytest.approx((1.55 - 2.05) / 2.05)
    assert "setup_s" not in got["metrics"]  # no run reported it


def test_an_incorrect_run_is_an_error_and_left_out_of_the_medians():
    pairs = [
        {"parent": result(100, 2.0), "tree": result(120, 1.5)},
        {"parent": result(100, 2.0), "tree": result(999, 0.1, failed=3)},  # correct: false
        {"parent": result(10, 9.0, failed=1), "tree": result(120, 1.5)},
    ]
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["tree"] == {"runs": 3, "errors": 1, "attempted": 300, "failed": 3, "cycled": 0}
    assert got["parent"] == {"runs": 3, "errors": 1, "attempted": 300, "failed": 1, "cycled": 0}
    docs = got["metrics"]["docs_per_s"]
    assert docs["pairs"] == 1 and docs["tree_won"] == 1
    assert docs["parent"]["median"] == 100 and docs["tree"]["median"] == 120


def test_pairs_with_equal_digests_are_counted():
    line = "digest[plain, first 100 reports]: "
    pairs = [
        {"parent": result(100, 2.0, digest=line + "aa"), "tree": result(110, 1.9, digest=line + "aa")},
        {"parent": result(100, 2.0, digest=line + "aa"), "tree": result(110, 1.9, digest=line + "bb")},
        {"parent": result(100, 2.0, digest=line + "cc"), "tree": result(110, 1.9, digest=line + "cc")},
        {"parent": result(100, 2.0), "tree": result(110, 1.9)},  # no digest line on either side
        {"parent": result(100, 2.0, digest=line + "aa"), "tree": {"error": "exit 1: boom"}},
    ]
    assert bench_pairs.summarize(pairs, SPEC)["digests_equal"] == 2


DIGEST = "digest[plain, first 100 reports]: 0123abcd"
LAST = {"correct": False, "attempted": 7, "failed": 1, "metrics": {}}
CYCLED = ("warning: the plain loop ran through the whole stream and started over; "
          "raise DOCS_PER_SECOND in run.py\n")


def run_once_with_stderr(monkeypatch, tmp_path, stderr):
    """run_once over a faked run.py that printed an incorrect run's lines."""
    stdout = "\n".join(["workload converge, seed 1", DIGEST, "FAILED document 3: x",
                        json.dumps(LAST)]) + "\n"

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr=stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    return bench_pairs.run_once(tmp_path, "converge", 1, 30)


def test_a_run_keeps_its_correct_flag_and_digest_line(monkeypatch, tmp_path):
    got = run_once_with_stderr(monkeypatch, tmp_path, "")
    assert got == {**LAST, "digest": DIGEST, "cycled": False}
    assert bench_pairs.erred(got)


def test_a_run_records_the_cycle_warning_of_run_py(monkeypatch, tmp_path):
    assert run_once_with_stderr(monkeypatch, tmp_path, CYCLED)["cycled"] is True


def test_runs_whose_stream_started_over_are_counted_per_side():
    pairs = [
        {"parent": result(100, 2.0), "tree": result(120, 1.5, cycled=True)},
        {"parent": result(100, 2.0, cycled=True), "tree": result(120, 1.5, cycled=True)},
        {"parent": result(100, 2.0), "tree": {"error": "exit 1: boom"}},
    ]
    got = bench_pairs.summarize(pairs, SPEC)
    assert (got["parent"]["cycled"], got["tree"]["cycled"]) == (1, 2)
    # a cycled run still counts in the medians: the flag only reports it
    assert got["metrics"]["docs_per_s"]["pairs"] == 2


def test_a_single_pair_has_its_value_as_every_quartile():
    got = bench_pairs.summarize([{"parent": result(100, 2.0), "tree": result(80, 2.5)}], SPEC)
    docs = got["metrics"]["docs_per_s"]
    assert docs["tree"] == {"median": 80, "q1": 80, "q3": 80} and docs["tree_won"] == 0


def test_metrics_worse_than_their_bound_are_listed_in_each_direction():
    pairs = [{"parent": result(100, 2.0), "tree": result(130, 2.6)},
             {"parent": result(100, 2.0), "tree": result(130, 2.4)}]
    got = bench_pairs.summarize(pairs, SPEC)
    # docs_per_s rose (better); p50 rose 25% exactly: not over, then 30%: over
    assert got["over_bound"] == []
    pairs[1]["tree"] = result(70, 2.6)
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["metrics"]["latency_p50_ms"]["median_change"] == pytest.approx(0.3)
    assert got["over_bound"] == ["latency_p50_ms"]
    pairs[0]["tree"] = result(60, 2.6)
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["metrics"]["docs_per_s"]["median_change"] == pytest.approx(-0.35)
    assert got["over_bound"] == ["docs_per_s", "latency_p50_ms"]


def test_over_bound_metrics_are_printed_at_the_end(monkeypatch, tmp_path, capsys):
    spec = {"run_seconds": 1, "workloads": [{"name": "converge"}], **SPEC}
    runs = iter([result(100, 2.0), result(100, 2.6)])
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kw:
                        subprocess.CompletedProcess(argv, 0, stdout="0" * 40 + "\n"))
    monkeypatch.setattr(bench_pairs, "extract_parent", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: next(runs))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD", "--seeds", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["workloads"]["converge"]["over_bound"] == ["latency_p50_ms"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "over bound: converge latency_p50_ms median +30.0% (bound 25%, better lower)")


def test_seed_ranges_include_both_ends():
    assert bench_pairs.parse_seeds(["1901-1903", "1950"]) == [1901, 1902, 1903, 1950]


def write_package(tree, files):
    pkg = tree / "src" / "ordertopo"
    pkg.mkdir(parents=True)
    for name, text in files.items():
        (pkg / name).write_text(text)


def test_src_lines_count_the_package_modules_only(tmp_path):
    write_package(tmp_path, {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n", "notes.txt": "1\n2\n"})
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    assert bench_pairs.src_lines(tmp_path) == 3


def test_each_side_records_its_src_lines(monkeypatch, tmp_path):
    spec = {"run_seconds": 1, "workloads": [{"name": "converge"}], **SPEC}
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kw:
                        subprocess.CompletedProcess(argv, 0, stdout="0" * 40 + "\n"))
    monkeypatch.setattr(bench_pairs, "extract_parent",
                        lambda rev, dest: write_package(dest, {"a.py": "1\n2\n3\n"}))
    monkeypatch.setattr(bench_pairs, "copy_tree",
                        lambda dest: write_package(dest, {"a.py": "1\n", "b.py": "2\n"}))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: result(100, 2.0))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD", "--seeds", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "tree": 2}
