"""One benchmark worker: set up, then run documents in a closed loop.

The worker is spawned fresh so that its set-up time is what a user pays:
interpreter start, ``import ordertopo`` and loading the generated
documents.  It prints ``ready`` once it could run its first document.

In-process documents follow the CLI's path, ``parse_document`` then
``run_document`` then the report bytes ``--output`` would write.  Each one
runs under an interval timer that raises in the main thread at the
deadline, so a document that does not end is counted and the loop goes on.
Every 0.25 s the loop times a host probe, and it scales the times it
reports, and the deadline, by the probe (see ``REF_CAL_S``).
In ``cli`` mode every document is a fresh ``python -m ordertopo.cli``
process instead; in ``cli-main`` mode the same documents go through
``ordertopo.cli.main`` in this process, which is how the traced run times
them.  The loop cycles through the documents if it runs out before the
time is up, and says so in its results.

Run ``python3 perfbench/run.py`` rather than this file; ``run.py`` spawns
it with the right arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import timeit
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


class DocumentDeadline(BaseException):
    """Raised by the interval timer; not an Exception, so nothing swallows it."""


def on_alarm(signum, frame):
    raise DocumentDeadline()


def load_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def report_bytes(report: dict) -> str:
    # exactly what ``ordertopo --output`` writes
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def run_inproc(entry: dict) -> tuple[int, str | None]:
    """(exit code, report bytes) for one document, as the CLI would give."""
    try:
        doc = parse_document(entry["doc"], expected_task=COMMANDS[entry["command"]])
        result = run_document(doc)
    except ValueError:  # DocumentError included, as in cli.main
        return 1, None
    except Exception:  # an internal error, exit 2 in the CLI
        return 2, None
    return result.exit_code, report_bytes(result.report)


def timed_inproc(entry: dict, deadline: float) -> dict:
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        code, report = run_inproc(entry)
        outcome = "done"
    except DocumentDeadline:
        code, report, outcome = None, None, "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"i": entry["i"], "latency": time.perf_counter() - start, "outcome": outcome,
            "exit": code, "report": report}


def run_cli_main(entry: dict, work: Path) -> int:
    """One document through ``ordertopo.cli.main`` in this process."""
    argv = [entry["command"], entry["path"], "--output", str(work / "coverage-report.json")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


def timed_cli_main(entry: dict, deadline: float, work: Path) -> dict:
    out_path = work / "coverage-report.json"
    if out_path.exists():
        out_path.unlink()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        code, outcome = run_cli_main(entry, work), "done"
    except DocumentDeadline:
        code, outcome = None, "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = time.perf_counter() - start
    report = out_path.read_text() if outcome == "done" and out_path.exists() else None
    return {"i": entry["i"], "latency": latency, "outcome": outcome, "exit": code,
            "report": report}


def timed_cli(entry: dict, deadline: float, work: Path) -> dict:
    out_path = work / "cli-report.json"
    if out_path.exists():
        out_path.unlink()
    argv = [sys.executable, "-m", "ordertopo.cli", entry["command"], entry["path"],
            "--output", str(out_path)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=deadline, env=child_env(ROOT))
        code, outcome = proc.returncode, "done"
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code, outcome = None, "timeout"
    latency = time.perf_counter() - start
    report = out_path.read_text() if outcome == "done" and out_path.exists() else None
    return {"i": entry["i"], "latency": latency, "outcome": outcome, "exit": code,
            "report": report}


def child_env(root: Path) -> dict:
    """This environment with ``root/src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# The host's core speed drifts by a fifth and more over seconds to minutes,
# and it moves every exact-rational loop alike (measured over 90 s in 3 s
# windows: the time of a fixed set of search documents follows this probe
# with correlation 0.92).  So the loop times a fixed probe every
# CAL_EVERY_S, and every time it reports is scaled by REF_CAL_S over the
# probe's time around it: times read as on a host where the probe takes
# REF_CAL_S.  The probe uses only the standard library, so no change to
# ordertopo moves it.
REF_CAL_S = 2.0e-3  # about the probe's median on a 2-core VM with Python 3.11
CAL_EVERY_S = 0.25


def calibration_s() -> float:
    """Median seconds of five runs of a fixed ``Fraction`` loop: the host's speed now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x, s = Fraction(1, 3), Fraction(0)
        for i in range(300):
            s += x * i / (i + 7)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def closed_loop(entries, run_one, seconds: float, min_docs: int, on_start=None) -> tuple:
    """Run documents in order until the time is up and min_docs are done.

    ``run_one(entry, scale)`` runs one document; ``scale`` is REF_CAL_S over
    the host probe at the start of its window, so that a deadline can
    stretch with the host.  Each record gets the ``scale`` of its window,
    the mean of the probes around it, and the loop seconds are scaled the
    same way, window by window, with the probes' own time left out.

    Returns (records, scaled loop seconds, cycled); ``cycled`` says the
    entries ran out first and the loop started over from the first one.
    """
    records = []
    start = time.perf_counter()
    loop_s, window_start, first, cal = 0.0, start, 0, calibration_s()

    def close_window():
        nonlocal loop_s, window_start, first, cal
        now = time.perf_counter()
        after = calibration_s()
        scale = REF_CAL_S / ((cal + after) / 2)
        for rec in records[first:]:
            rec["scale"] = scale
        loop_s += (now - window_start) * scale
        window_start, first, cal = time.perf_counter(), len(records), after

    for n in itertools.count():
        if n >= min_docs and time.perf_counter() - start >= seconds:
            break
        if time.perf_counter() - window_start >= CAL_EVERY_S:
            close_window()
        entry = entries[n % len(entries)]
        if on_start:
            on_start(entry["i"])
        records.append(run_one(entry, REF_CAL_S / cal))
    close_window()
    return records, loop_s, len(records) > len(entries)


# -- micro timings on fixed inputs ----------------------------------------------


def micro_timings() -> dict:
    """Median ns per call of carrier ops, and ms per geometric threshold solve.

    A tracing wrapper costs as much as these calls, so only a fixed-input
    timing in an untraced process can time them.
    """
    from ordertopo.carriers import TAIL_SEQ, Vec, findim, leq, sup
    from ordertopo.eventual import make_geom, settle_cmp

    f4 = findim(4)
    c4 = tuple(Fraction(k, 3) for k in range(1, 5))
    d4 = tuple(c + 1 for c in c4)
    c8 = tuple(Fraction(k, 5) for k in range(1, 9))
    d8 = tuple(c + 1 for c in c8)
    x4, y4 = Vec(f4, c4), Vec(f4, d4)
    x8, y8 = Vec(TAIL_SEQ, c8, Fraction(0)), Vec(TAIL_SEQ, d8, Fraction(1))
    cases = {
        "carriers.vec_new_ns": lambda: Vec(f4, c4),
        "carriers.leq_ns": lambda: leq(x4, y4),
        "carriers.sup_ns": lambda: sup(x4, y4),
        "carriers.vec_new_ns_tail8": lambda: Vec(TAIL_SEQ, c8, Fraction(0)),
        "carriers.leq_ns_tail8": lambda: leq(x8, y8),
        "carriers.sup_ns_tail8": lambda: sup(x8, y8),
    }
    out = {}
    for name, fn in cases.items():
        runs = timeit.Timer(fn).repeat(repeat=7, number=2000)
        out[name] = statistics.median(runs) / 2000 * 1e9
    geom = make_geom(0, 1, Fraction(999, 1000))
    bound = Fraction(1, 10 ** 6)
    runs = timeit.Timer(lambda: settle_cmp(geom, bound)).repeat(repeat=5, number=1)
    out["eventual.geom_threshold_ms"] = statistics.median(runs) * 1e3
    return out


# -- traced runs --------------------------------------------------------------------


def bind(root: Path) -> None:
    """Import ``ordertopo`` from ``root/src`` and bind the names the loops call.

    They are module globals so that the tracer, which patches every
    namespace that imported an ``ordertopo`` function, sees this one too.
    """
    global ROOT, parse_document, run_document, COMMANDS, cli_main
    ROOT = root
    sys.path.insert(0, str(root / "src"))
    from ordertopo.cli import COMMANDS, main as cli_main
    from ordertopo.documents import parse_document, run_document


def trace_summary(tracer, cache_before) -> dict:
    """Span totals, vector count and form_of cache hits of one traced run."""
    after = sys.modules["ordertopo.families"].form_of.cache_info()
    return {"totals": tracer.totals(), "vec_new": tracer.vec_new, "spans": tracer.span_count,
            "form_of": [after.hits - cache_before.hits, after.misses - cache_before.misses]}


def start_trace():
    from tracer import Tracer

    before = sys.modules["ordertopo.families"].form_of.cache_info()
    tracer = Tracer()
    tracer.install(extra_importers=[sys.modules[__name__]])
    return tracer, before


def inproc_phase(args, entries, warmup, work: Path) -> dict:
    run_doc = timed_inproc
    if args.mode == "cli-main":
        def run_doc(entry, deadline):
            return timed_cli_main(entry, deadline, work)
    for entry in warmup:
        run_doc(entry, 5.0)
    tracer = None
    if args.trace:
        tracer, before = start_trace()
    records, loop_s, cycled = closed_loop(
        entries, lambda e, scale: run_doc(e, args.deadline / scale), args.seconds, args.min_docs,
        tracer.begin_document if tracer else None)
    result = {"records": records, "loop_s": loop_s, "cycled": cycled,
              "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF)}
    if tracer:
        # one pass over the fixed CLI set through cli.main, so every layer
        # has spans whatever the workload
        for n, entry in enumerate(warmup):
            tracer.begin_document(-1 - n)
            run_cli_main(entry, work)
        tracer.uninstall()
        result.update(trace_summary(tracer, before))
        tracer.write(args.trace)
    return result


def cli_phase(args, entries, warmup, work: Path) -> dict:
    timed_cli(warmup[0], 30.0, work)
    records, loop_s, cycled = closed_loop(
        entries, lambda e, scale: timed_cli(e, args.deadline / scale, work),
        args.seconds, args.min_docs)
    return {"records": records, "loop_s": loop_s, "cycled": cycled,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout root holding src/ordertopo")
    p.add_argument("--docs", required=True, help="documents, one JSON object per line")
    p.add_argument("--warmup", required=True, help="untimed warm-up documents")
    p.add_argument("--mode", choices=["inproc", "cli-main", "cli"], default="inproc")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--min-docs", type=int, default=100)
    p.add_argument("--deadline", type=float, default=0.5)
    p.add_argument("--out", help="where to write the results")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", help="trace the run and write its spans here")
    p.add_argument("--micro", action="store_true", help="add fixed-input micro timings")
    args = p.parse_args(argv)

    bind(Path(args.root).resolve())
    entries = load_jsonl(args.docs)
    warmup = load_jsonl(args.warmup)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, on_alarm)
    phase = cli_phase if args.mode == "cli" else inproc_phase
    result = phase(args, entries, warmup, Path(args.out).parent)
    if args.micro:
        result["micro"] = micro_timings()
    Path(args.out).write_text(json.dumps(result))
    return 0


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


ROOT = Path.cwd()
parse_document = run_document = COMMANDS = cli_main = None  # bound in main(), after the import

if __name__ == "__main__":
    sys.exit(main())
