"""Check a worker's reports against the answers known by construction.

Runs in its own fresh process, after the timed loop, so nothing here is
timed and every refutation is replayed outside the process that found it.
Each document's report is decoded from its bytes; then

* a verdict must not contradict the document's known answer;
* a refutation must replay through ``replay_witness``, and, checked here
  directly, its limit must lie outside the set while the family's values
  from ``in_set_from`` on lie inside;
* a certificate must re-validate;
* exit 2, and exit 3 (a theorem contradicting itself), are failures;
* the first documents are run again here and must give the same bytes
  (CLI documents repeat, and every repeat must give the same bytes).

A document that breaks any rule counts once in ``failed``.  The one known
defect the streams leave out (``gen.KNOWN_DEFECT``) is checked on its own on
every run and reported apart from ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
from pathlib import Path

import gen
import worker

HORIZON = 16  # indices checked directly past a witness's in_set_from
RERUN = 20  # leading documents re-run in this process for byte identity
DIGEST_DOCS = 100  # leading reports hashed into the printed digest


def digest(records, answers) -> tuple[str, int]:
    """(SHA-256, reports hashed) over the leading documents, each keyed by index.

    Documents of the measured-slow classes are left out: whether one ends
    before its deadline depends on the host's speed, not on the code.
    """
    h = hashlib.sha256()
    kept = [r for r in records if not answers[r["i"]].get("hard")][:DIGEST_DOCS]
    for rec in kept:
        h.update(f"{rec['i']}:".encode())
        h.update((rec["report"] or f"<{rec['outcome']} exit={rec['exit']}>").encode())
    return h.hexdigest(), len(kept)


class Checker:
    def __init__(self):
        from ordertopo import carriers, families, ordersets, serialize, topology

        self.c, self.f, self.o, self.s, self.t = carriers, families, ordersets, serialize, topology

    # -- decoding ------------------------------------------------------------

    def context(self, doc):
        carrier = self.s.carrier_from_json(doc["carrier"])
        semantics = self.o.Semantics(doc.get("semantics", "strict-partial"))
        return carrier, semantics

    def certificate(self, obj, carrier):
        tmap = obj["threshold_map"]
        return self.f.Certificate(
            self.s.vec_from_json(obj["limit"], carrier),
            self.s.family_from_json(obj["dominating"], carrier),
            tuple((m, t) for m, t in tmap) if tmap is not None else None)

    def witness(self, obj, carrier):
        cert = obj.get("certificate")
        return self.t.ClosureWitness(
            self.s.family_from_json(obj["family"], carrier), obj["mode"],
            self.s.vec_from_json(obj["limit"], carrier), obj["in_set_from"],
            self.certificate(cert, carrier) if cert else None)

    def values(self, fam, lo, hi):
        """(k, value(k)) for lo <= k < hi.

        ``value`` of a running-sup family recomputes the supremum from the
        start, which is quadratic when nested; ``values_iter`` is one pass.
        """
        if not isinstance(fam, self.f.RunningSupMeet):
            return ((k, self.f.value(fam, k)) for k in range(lo, hi))
        start = self.f.index_base(fam)
        pairs = enumerate(self.f.values_iter(fam, hi - 1), start=start)
        return ((k, v) for k, v in pairs if k >= lo)

    # -- rules ---------------------------------------------------------------

    def check(self, doc, answer, record) -> tuple[list, bool]:
        """(problems, weak) for one finished document; weak = unknown/inconclusive."""
        expected_exit = answer.get("exit", 0)
        if record["exit"] != expected_exit:
            return [f"exit {record['exit']}, expected {expected_exit}"], False
        if expected_exit != 0:
            return [], False
        if record["report"] is None:
            return ["no report"], False
        report = json.loads(record["report"])
        return getattr(self, "check_" + answer["kind"].replace("-", "_"))(doc, answer, report)

    def check_check_set(self, doc, answer, report):
        verdict = report["verdict"]
        status = verdict["status"]
        if status in answer["forbid"]:
            return [f"status {status} contradicts the construction"], False
        if status != "refuted":
            return [], status == "unknown"
        carrier, semantics = self.context(doc)
        body = doc["task"]["check-set"]
        expr = self.s.setexpr_from_json(body["set"], carrier, semantics)
        member = self.o.member
        if body["mode"] == "solid":
            w = verdict["witness"]
            x = self.s.vec_from_json(w["inside"], carrier)
            y = self.s.vec_from_json(w["dominated_outside"], carrier)
            ok = member(expr, x) and not member(expr, y) and self.c.leq(abs(y), abs(x))
            return ([] if ok else ["solidity witness does not replay"]), False
        if body["mode"] == "order-open":
            expr = self.o.Complement(expr)
        w = self.witness(verdict["witness"], carrier)
        problems = []
        if not self.t.replay_witness(expr, w):
            problems.append("replay_witness rejects the refutation")
        if member(expr, w.limit):
            problems.append("witness limit lies inside the set")
        for k, v in self.values(w.family, w.in_set_from, w.in_set_from + HORIZON):
            if not member(expr, v):
                problems.append(f"witness value {k} lies outside the set")
                break
        return problems, False

    def check_theorem(self, doc, answer, report):
        th = report["theorem"]
        problems = []
        if th["conclusion"] not in answer["conclusions"]:
            problems.append(f"conclusion {th['conclusion']}, expected {answer['conclusions']}")
        if th["contradicts_expectations"]:
            problems.append("report contradicts its own expectations")
        return problems, th["conclusion"] == "inconclusive"

    def check_convergence(self, doc, answer, report):
        carrier, _ = self.context(doc)
        body = doc["task"]["convergence"]
        fam = self.s.family_from_json(body["family"], carrier)
        limit = self.s.vec_from_json(answer["limit"], carrier)
        oc = report["order_convergence"]
        problems = []
        if answer["true_limit"]:
            if oc["status"] != "certified":
                return [f"true limit {oc['status']}"], False
            cert = self.certificate(oc["certificate"], carrier)
            if cert.limit != limit:
                problems.append("certificate names another limit")
            if not (oc["revalidated"] and self.f.validate_certificate(fam, cert)):
                problems.append("certificate does not re-validate")
            return problems, False
        if oc["status"] != "refuted":
            return [f"perturbed limit {oc['status']}"], False
        ref = oc["refutation"]
        coord = ref["coord"]
        if self.s.vec_from_json(ref["limit"], carrier) != limit:
            problems.append("refutation names another limit")
        if coord not in answer["differs"]:
            problems.append(f"refuted at coordinate {coord}, which does not differ")
        else:
            # the replay rule of the library's own tests: from separated_from
            # on, the coordinate stays at least the gap away from the candidate
            cand = self.s.vec_from_json(body["limit"], carrier).at(coord)
            gap = self.s.rat_from_json(ref["gap"])
            sep = ref["separated_from"]
            for k, v in self.values(fam, sep, sep + HORIZON):
                if abs(v.at(coord) - cand) < gap:
                    problems.append(f"value {k} is closer to the candidate than the gap")
                    break
        if answer.get("tau_refuted") and report["interval_topology"]["consistent"]:
            problems.append("interval probe consistent with a far candidate")
        return problems, False

    def check_fit(self, doc, answer, report):
        fit = report["fit"]
        if fit is None:
            return (["no interval fitted"] if answer["found"] else []), True
        carrier, semantics = self.context(doc)
        iv = self.s.interval_from_json(fit["interval"], carrier, semantics)
        point = self.s.vec_from_json(doc["task"]["fit"]["point"], carrier)
        ok = self.o.interval_contains(iv, point)
        return ([] if ok else ["fitted interval misses the point"]), False

    def check_invalid(self, doc, answer, report):
        return [], False


def check_records(entries, answers, records, deadline=5.0):
    """Summary dict: failed documents with reasons, weak outcomes, digest."""
    checker = Checker()
    by_index = {e["i"]: (e, answers[e["i"]]) for e in entries}
    failures, weak, timeouts = {}, 0, 0
    signal.signal(signal.SIGALRM, worker.on_alarm)
    for rec in records:
        if rec["outcome"] == "timeout":
            timeouts += 1
            continue
        entry, answer = by_index[rec["i"]]
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            problems, is_weak = checker.check(entry["doc"], answer, rec)
        except worker.DocumentDeadline:
            problems, is_weak = ["check did not finish"], False
        except Exception as err:  # a malformed report is a failure, not a crash
            problems, is_weak = [f"check raised {type(err).__name__}: {err}"], False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        weak += is_weak
        if problems:
            failures.setdefault(rec["i"], []).extend(problems)
    sha, hashed = digest(records, answers)
    return {"failures": failures, "weak": weak, "timeouts": timeouts,
            "digest": sha, "digest_docs": hashed}


def known_defect_problems() -> list:
    """The rules ``gen.KNOWN_DEFECT`` breaks today; empty once it is fixed."""
    document, answer = gen.KNOWN_DEFECT
    entry = {"i": 0, "command": gen.command_of(document), "doc": document}
    code, report = worker.run_inproc(entry)
    record = {"i": 0, "outcome": "done", "exit": code, "report": report}
    return Checker().check(document, answer, record)[0]


def rerun_identical(entries, records, failures, run_one):
    """Re-run leading documents here; their bytes must match the worker's."""
    by_index = {e["i"]: e for e in entries}
    for rec in records[:RERUN]:
        if rec["outcome"] != "done":
            continue
        code, report = run_one(by_index[rec["i"]])
        if (code, report) != (rec["exit"], rec["report"]):
            failures.setdefault(rec["i"], []).append("report bytes differ on a re-run")


def main() -> int:
    root, work, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    worker.bind(Path(root))
    entries = worker.load_jsonl(f"{work}/docs.jsonl")
    with open(f"{work}/answers.json") as fh:
        answers = {int(k): v for k, v in json.load(fh).items()}
    out = {}
    for phase in sys.argv[4:]:
        with open(f"{work}/{phase}.json") as fh:
            records = json.load(fh)["records"]
        summary = check_records(entries, answers, records)
        if mode == "inproc":
            rerun_identical(entries, records, summary["failures"], worker.run_inproc)
        else:  # cli and cli-main documents repeat
            same_doc_same_bytes(records, summary["failures"])
        summary["failures"] = {str(k): v for k, v in summary["failures"].items()}
        out[phase] = summary
    out["known_defect"] = known_defect_problems()
    json.dump(out, sys.stdout)
    return 0


def same_doc_same_bytes(records, failures):
    """CLI documents repeat: every repeat must write the same report bytes."""
    seen = {}
    for rec in records:
        if rec["outcome"] != "done":
            continue
        key = (rec["exit"], rec["report"])
        if seen.setdefault(rec["i"], key) != key:
            failures.setdefault(rec["i"], []).append("report bytes differ between runs")


if __name__ == "__main__":
    sys.exit(main())
