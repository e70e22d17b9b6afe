"""The ordertopo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``ordertopo`` from ``src/``
there.  Workloads (see README.md in this directory for the reasons):

* ``search``   -- a seeded stream of check-set and band-proposition
  documents, plus a few fit documents, run in-process;
* ``converge`` -- a seeded stream of convergence and interval-convergence
  documents over all five templates, run in-process, with a seeded share
  of measured-slow parameters;
* ``cli``      -- one ``python -m ordertopo.cli`` process per document,
  cycling through the hand-written set in ``cli_docs/``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
prints the per-layer metrics.  The traced ``cli`` run sends its documents
through ``ordertopo.cli.main`` in-process, in both halves, so that the
spans cover the library rather than a child process.  Every report is
checked against its known answer in a separate process after the timed
loop.  Times are scaled to a reference host speed (``worker.REF_CAL_S``).
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
from tracer import LAYERS
from worker import REF_CAL_S, child_env

HERE = Path(__file__).resolve().parent

WORKLOADS = ("search", "converge", "cli")
DOCS_PER_SECOND = 250  # stream length per second of run, about 4x today's rate
SETUP_PROBES = 9
MIN_DOCS = 100  # p90 needs ten samples beyond it
DEADLINE_S = {"search": 0.5, "converge": 0.5, "cli": 10.0}
SLACK_S = 40  # on top of its run time before a process counts as hung


class BenchError(RuntimeError):
    pass


# -- inputs ------------------------------------------------------------------------


def cli_set():
    """(entries, answers) for the hand-written documents, keyed 0..n-1."""
    spec = json.loads((HERE / "cli_docs" / "answers.json").read_text())
    entries, answers = [], {}
    for i, item in enumerate(spec):
        path = HERE / "cli_docs" / item["file"]
        entries.append({"i": i, "command": item["command"], "path": str(path),
                        "doc": json.loads(path.read_text())})
        answers[i] = item["answer"]
    return entries, answers


def build_inputs(workload: str, seed: int, seconds: float, work: Path):
    """Write docs.jsonl, warmup.jsonl and answers.json into ``work``.

    The worker cycles through the documents if it gets through all of them.
    """
    warmup, cli_answers = cli_set()
    if workload == "cli":
        entries, answers = warmup, cli_answers
    else:
        count = max(MIN_DOCS, math.ceil(seconds * DOCS_PER_SECOND))
        stream = gen.STREAMS[workload](seed, count)
        entries = [{"i": i, "command": gen.command_of(d), "doc": d} for i, (d, _) in enumerate(stream)]
        answers = {i: a for i, (_, a) in enumerate(stream)}
    write_jsonl(work / "docs.jsonl", entries)
    write_jsonl(work / "warmup.jsonl", warmup)
    (work / "answers.json").write_text(json.dumps({str(k): v for k, v in answers.items()}))
    return answers


def write_jsonl(path: Path, entries) -> None:
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n")


# -- processes -------------------------------------------------------------------


def worker_mode(workload: str, traced: bool) -> str:
    if workload != "cli":
        return "inproc"
    return "cli-main" if traced else "cli"


def run_worker(root: Path, work: Path, mode: str, extra: list, budget: float) -> float:
    """Spawn a worker, return its set-up time, and wait for it to finish."""
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
            "--docs", str(work / "docs.jsonl"), "--warmup", str(work / "warmup.jsonl"),
            "--mode", mode] + extra
    with open(work / "worker.err", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=root)
        # a hung worker never closes its stdout: kill it, and the reads end
        watchdog = threading.Timer(budget, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    if code == -signal.SIGKILL:
        raise BenchError(f"worker did not finish within {budget:.0f} s")
    if line.strip() != b"ready" or code != 0:
        tail = (work / "worker.err").read_text()[-2000:]
        raise BenchError(f"worker failed (exit {code}): {tail}")
    return setup


def measure(root, work, workload, mode, phase, seconds, min_docs, flags=()) -> tuple[float, dict]:
    out = work / f"{phase}.json"
    extra = ["--out", str(out), "--seconds", str(seconds), "--min-docs", str(min_docs),
             "--deadline", str(DEADLINE_S[workload])] + list(flags)
    setup = run_worker(root, work, mode, extra, seconds + SLACK_S)
    result = json.loads(out.read_text())
    if result["cycled"] and workload != "cli":  # the cli set is meant to repeat
        print(f"warning: the {phase} loop ran through the whole stream and started over; "
              "raise DOCS_PER_SECOND in run.py", file=sys.stderr)
    return setup, result


def run_checker(root: Path, work: Path, mode: str, phases: list) -> dict:
    argv = [sys.executable, str(HERE / "check.py"), str(root), str(work), mode] + phases
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=2 * SLACK_S, cwd=root)
    except subprocess.TimeoutExpired:
        raise BenchError("checker did not finish")
    if proc.returncode != 0:
        raise BenchError(f"checker failed: {proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout)


def wall_median(argv, env, runs=5) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- metrics ---------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setups, result, summary) -> dict:
    """The end-to-end metrics; times are scaled to the reference host speed.

    Set-up spawns are too short for a probe of their own, so they take the
    run's median scale: the host drifts over tens of seconds, and the
    spawns come just before the run.
    """
    records = result["records"]
    n = len(records)
    done = sum(r["outcome"] == "done" for r in records)
    lat_ms = [scaled(r) * 1e3 for r in records]
    setup_scale = statistics.median(r.get("scale", 1.0) for r in records)
    return {
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        "docs_per_s": (done / result["loop_s"], "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "error_share": (len(summary["failures"]) / n, "share"),
        "timeout_share": (summary["timeouts"] / n, "share"),
        "unknown_share": (summary["weak"] / n, "share"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def scaled(record) -> float:
    """A document's latency scaled to the reference host speed."""
    return record["latency"] * record.get("scale", 1.0)


def host_probe_ms(records) -> float:
    """Median time of the host probe over a run, unscaled."""
    return statistics.median(REF_CAL_S / r.get("scale", 1.0) for r in records) * 1e3


def hard_split(records, answers) -> str:
    """How much of a run the measured-slow documents take, as one line."""
    hard = [r for r in records if answers[r["i"]].get("hard")]
    total_s = sum(r["latency"] for r in records)
    hard_s = sum(r["latency"] for r in hard)
    timeouts = sum(r["outcome"] == "timeout" for r in hard)
    return (f"measured-slow documents: {len(hard)} of {len(records)} "
            f"({len(hard) / len(records):.2%}), {hard_s / total_s:.2%} of document time, "
            f"{timeouts} timed out")


GROUPS = {
    "topology.closure": ["topology.check_quasi_order_closed", "topology.check_order_closed",
                         "topology.is_order_open"],
    "topology.tau_e": ["topology.tau_e_convergence_report"],
    "theorems.verify": ["theorems.verify_example_e1", "theorems.verify_interval_convergence_theorem",
                        "theorems.verify_band_proposition", "theorems.verify_interval_fit_probe"],
}
CALLS = ["topology.closure", "families.monotonicity", "families.value", "families.order_limit",
         "families.eventually_in", "ordersets.member", "ordersets.grid_vectors", "carriers.leq",
         "carriers.sup", "families.form_of", "eventual.settle_cmp"]
SELF = ["topology.closure", "families.monotonicity", "families.eventually_in", "ordersets.member",
        "topology.interval_fit", "families.form_of", "eventual.settle_cmp",
        "eventual.running_sup_form", "families.order_converges", "families.validate_certificate",
        "topology.tau_e", "topology.replay_witness", "theorems.verify",
        "documents.parse_document"]


def per_layer(plain, traced, plain_summary, interp_s, import_s) -> dict:
    totals = traced["totals"]

    def agg(key):
        names = GROUPS.get(key, [key])
        calls = sum(totals.get(n, [0, 0.0])[0] for n in names)
        return calls, sum(totals.get(n, [0, 0.0])[1] for n in names)

    def by_prefix(pred):
        return sum(v[1] for k, v in totals.items() if pred(k))

    out = {}
    for key in CALLS:
        out[f"{key}.calls"] = (agg(key)[0], "count")
    for key in SELF:
        out[f"{key}.self_s"] = (agg(key)[1], "s")
    out["serialize.encode.self_s"] = (by_prefix(lambda k: k.startswith("serialize.") and k.endswith("_to_json")), "s")
    out["serialize.decode.self_s"] = (by_prefix(lambda k: k.startswith("serialize.") and k.endswith("_from_json")), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (by_prefix(lambda k, p=layer + ".": k.startswith(p)), "s")
    hits, misses = traced["form_of"]
    out["families.form_of.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["carriers.vec_new.count"] = (traced["vec_new"], "count")
    unknown, refuted, candidates = search_outcomes(traced["records"])
    out["topology.candidates_per_unknown"] = (candidates / unknown if unknown else 0.0, "count")
    started = unknown + refuted
    out["topology.refuted_ratio"] = (refuted / started if started else 0.0, "ratio")
    for name, value in plain["micro"].items():
        out[name] = (value, "ms" if name.endswith("_ms") else "ns")
    out["cli.interp_s"] = (interp_s, "s")
    out["cli.import_s"] = (import_s, "s")
    m = min(len(plain["records"]), len(traced["records"]))
    untraced_s = sum(scaled(r) for r in plain["records"][:m])
    traced_s = sum(scaled(r) for r in traced["records"][:m])
    out["trace.overhead_ratio"] = (untraced_s / traced_s, "ratio")
    out["trace.spans"] = (traced["spans"], "count")
    out["host.probe_ms"] = (host_probe_ms(plain["records"]), "ms")
    # the end-to-end shares that can be 0, from the untraced half
    n = len(plain["records"])
    out["error_share"] = (len(plain_summary["failures"]) / n, "share")
    out["timeout_share"] = (plain_summary["timeouts"] / n, "share")
    return out


def search_outcomes(records):
    """(unknown verdicts, refuted verdicts, candidates over the unknown ones)."""
    unknown = refuted = candidates = 0
    for rec in records:
        if rec["report"] is None:
            continue
        verdict = json.loads(rec["report"]).get("verdict")
        if verdict is None:
            continue
        # solidity verdicts carry a pair witness or a pair count instead
        if verdict["status"] == "refuted" and "family" in verdict["witness"]:
            refuted += 1
        elif "search_report" in verdict:
            unknown += 1
            candidates += verdict["search_report"]["candidates"]
    return unknown, refuted, candidates


# -- the run ---------------------------------------------------------------------


def run(args, root: Path, work: Path) -> dict:
    answers = build_inputs(args.workload, args.seed, args.seconds, work)
    mode = worker_mode(args.workload, args.trace)
    setups = [run_worker(root, work, mode, ["--setup-only"], SLACK_S)
              for _ in range(SETUP_PROBES)]
    if not args.trace:
        setup, result = measure(root, work, args.workload, mode, "plain", args.seconds, MIN_DOCS)
        checked = run_checker(root, work, mode, ["plain"])
        summary = checked["plain"]
        metrics = end_to_end(setups + [setup], result, summary)
        failures = summary["failures"]
        attempted = len(result["records"])
        summaries = {"plain": summary}
        if args.workload == "converge":
            print(hard_split(result["records"], answers))
        print(f"host probe: median {host_probe_ms(result['records']):.3f} ms over the run, "
              f"times scaled to {REF_CAL_S * 1e3:.1f} ms")
    else:
        half = args.seconds / 2
        trace_path = root / ".perfbench_work" / f"trace-{args.workload}.bin"
        _, plain = measure(root, work, args.workload, mode, "plain", half, 20, ["--micro"])
        _, traced = measure(root, work, args.workload, mode, "traced", half, 20,
                            ["--trace", str(trace_path)])
        checked = run_checker(root, work, mode, ["plain", "traced"])
        failures = {**checked["plain"]["failures"], **checked["traced"]["failures"]}
        plain_bytes = {r["i"]: r["report"] for r in plain["records"] if r["outcome"] == "done"}
        for r in traced["records"]:
            if r["outcome"] == "done" and r["i"] in plain_bytes and plain_bytes[r["i"]] != r["report"]:
                failures.setdefault(str(r["i"]), []).append("tracing changed the report bytes")
        env = child_env(root)
        interp = wall_median([sys.executable, "-c", "pass"], env)
        imported = wall_median([sys.executable, "-c", "import ordertopo"], env)
        metrics = per_layer(plain, traced, checked["plain"], interp, imported - interp)
        metrics["known_defects"] = (int(bool(checked["known_defect"])), "count")
        attempted = len(plain["records"]) + len(traced["records"])
        summaries = {phase: checked[phase] for phase in ("plain", "traced")}
        print(f"trace: {traced['spans']} spans written to {trace_path.relative_to(root)}")
    for i, problems in sorted(failures.items(), key=lambda kv: int(kv[0]))[:20]:
        print(f"FAILED document {i}: {'; '.join(problems)}")
    if checked["known_defect"]:
        print("known defect, left out of the stream (gen.KNOWN_DEFECT): "
              + "; ".join(checked["known_defect"]))
    for phase, summary in summaries.items():
        print(f"digest[{phase}, first {summary['digest_docs']} reports]: {summary['digest']}")
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ordertopo benchmark (one run)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ordertopo" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/ordertopo", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        got = run(args, root, work)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {got['attempted']} documents, "
          f"{got['failed']} failed")
    for name, (value, unit) in got["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": got["failed"] == 0,
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in got["metrics"].items()
                    if k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
