"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seeds 1901-1910 --out BENCH_18.json

The parent revision is extracted with ``git archive REV | tar -x`` and the
working tree is copied (tracked and untracked files, ignored ones left
out), each into a fresh temporary directory, so both sides start without
build products and ``.git`` is never touched.  For every workload of
``BENCHMARK.json`` and every seed the two sides run ``perfbench/run.py
--seconds N --trace 0``, N being its ``run_seconds``, one after the other;
which side goes first alternates from seed to seed, so a drift of the host's
speed falls on both sides alike.

The output holds, for every end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the relative change of the median and the
pairs the tree won; per side the documents attempted and failed, the
runs that erred and the runs whose stream ran out and started over
("cycled", read from run.py's stderr warning); and per workload the pairs
whose report digests are equal and, under "over_bound", every metric whose
median changed for the worse by more than its bound, which the script also
prints at the end.  "src_lines" holds each side's line count of
``src/ordertopo/*.py``.
A run that failed, or that its checker found incorrect (``"correct":
false``), counts as an error and is left out of the medians.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "tree")
DIGEST_LINE = "digest[plain, first 100 reports]: "
CYCLE_WARNING = "started over"  # run.py's stderr warning: the stream ran out and repeated


def parse_seeds(items: list[str]) -> list[int]:
    """Seeds from items such as "1901" or "1901-1910" (both ends included)."""
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def extract_parent(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def copy_tree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def src_lines(tree: Path) -> int:
    """The line count of ``src/ordertopo/*.py`` in a tree, as ``wc -l`` gives it."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "ordertopo").glob("*.py"))


def run_once(side_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one run.py run with its digest line under
    "digest" and, under "cycled", whether run.py warned that a loop ran
    through its whole stream and started over; or {"error": ...} if it
    failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=side_dir, capture_output=True, text=True,
                              timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"error": "run.py did not finish"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["digest"] = next((line for line in lines if line.startswith(DIGEST_LINE)), None)
    result["cycled"] = CYCLE_WARNING in proc.stderr
    return result


def erred(result: dict) -> bool:
    return "error" in result or result.get("correct") is False


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per-metric medians, quartiles and pairs won, over complete pairs.

    ``pairs`` holds one {"parent": result, "tree": result} per seed, each
    result being run.py's JSON line (with its digest line and cycled flag)
    or {"error": ...}.  Per side, ``cycled`` counts the runs whose stream
    started over, so part of them re-measured documents already run.
    A pair counts only if neither side erred and both report the metric; the
    tree wins it when its value is strictly better in the metric's
    direction.  ``digests_equal`` counts the pairs whose two digest lines
    are present and equal; ``over_bound`` names, in ``BENCHMARK.json``
    order, the metrics whose median changed for the worse by more than
    their bound.
    """
    out = {"pairs": len(pairs), "metrics": {},
           "digests_equal": sum(p["parent"].get("digest") is not None
                                and p["parent"].get("digest") == p["tree"].get("digest")
                                for p in pairs)}
    for side in SIDES:
        results = [p[side] for p in pairs]
        out[side] = {"runs": len(results),
                     "errors": sum(map(erred, results)),
                     "attempted": sum(r.get("attempted", 0) for r in results),
                     "failed": sum(r.get("failed", 0) for r in results),
                     "cycled": sum(bool(r.get("cycled")) for r in results)}
    clean = [p for p in pairs if not any(erred(p[side]) for side in SIDES)]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        both = [(p["parent"]["metrics"][name]["value"], p["tree"]["metrics"][name]["value"])
                for p in clean
                if all(name in p[side]["metrics"] for side in SIDES)]
        if not both:
            continue
        higher = metric["better"] == "higher"
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "bound": metric.get("bound"), "pairs": len(both),
                 "tree_won": sum((t > p) if higher else (t < p) for p, t in both)}
        for i, side in enumerate(SIDES):
            q1, med, q3 = quartiles([pair[i] for pair in both])
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        base = entry["parent"]["median"]
        entry["median_change"] = (entry["tree"]["median"] - base) / base if base else None
        out["metrics"][name] = entry
    out["over_bound"] = [name for name, entry in out["metrics"].items() if over_bound(entry)]
    return out


def over_bound(entry: dict) -> bool:
    """Whether a metric's median changed for the worse by more than its bound."""
    change, bound = entry["median_change"], entry["bound"]
    if change is None or bound is None:
        return False
    return -change > bound if entry["better"] == "higher" else change > bound


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="alternating benchmark pairs, parent vs tree")
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seeds", required=True, nargs="+", help='seeds, e.g. 1901-1910 1950')
    p.add_argument("--out", required=True, help="where to write the BENCH_<n>.json summary")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent], check=True,
                            capture_output=True, text=True).stdout.strip()
    seconds = spec["run_seconds"]
    report = {"parent": parent, "tree": f"working tree over {head}", "seconds": seconds,
              "seeds": seeds, "python": platform.python_version(),
              "host": f"{platform.machine()}, {platform.system()}", "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {"parent": Path(tmp) / "parent", "tree": Path(tmp) / "tree"}
        extract_parent(args.parent, dirs["parent"])
        copy_tree(dirs["tree"])
        report["src_lines"] = {side: src_lines(dirs[side]) for side in SIDES}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for n, seed in enumerate(seeds):
                pair = {}
                for side in (SIDES if n % 2 == 0 else SIDES[::-1]):
                    pair[side] = run_once(dirs[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side].get('error') or pair[side]['metrics']}", flush=True)
                pairs.append({"seed": seed, "first": "parent" if n % 2 == 0 else "tree", **pair})
            report["workloads"][workload] = {**summarize(pairs, spec), "runs": pairs}
            Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for workload, summary in report["workloads"].items():
        for name in summary["over_bound"]:
            entry = summary["metrics"][name]
            print(f"over bound: {workload} {name} median {entry['median_change']:+.1%} "
                  f"(bound {entry['bound']:.0%}, better {entry['better']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
