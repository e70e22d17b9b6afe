"""Problem documents: schema validation and dispatch.

One document describes one task.  Validation is strict: unknown fields are
rejected with a pointer to the offending location, so a typo never turns
into a silently different problem.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .carriers import Carrier, Vec
from .families import Certificate, certificate_derivable, order_converges
from .ordersets import Semantics, SetExpr, check_solid
from .records import record
from .serialize import (
    carrier_from_json,
    carrier_to_json,
    certificate_to_json,
    family_from_json,
    fit_to_json,
    refutation_to_json,
    setexpr_from_json,
    solidity_to_json,
    tau_e_report_to_json,
    theorem_report_to_json,
    vec_from_json,
    verdict_to_json,
)
from .theorems import (
    verify_band_proposition,
    verify_example_e1,
    verify_interval_convergence_theorem,
    verify_interval_fit_probe,
)
from .topology import (
    check_order_closed,
    check_quasi_order_closed,
    interval_fit,
    is_order_open,
    neighborhood_catalog,
    tau_e_convergence_report,
)


class DocumentError(ValueError):
    """Invalid problem document; the message points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


TASK_KEYS = ("check-set", "convergence", "fit", "theorem")

CHECK_MODES = {
    "quasi-order-closed": check_quasi_order_closed,
    "order-closed": check_order_closed,
    "order-open": is_order_open,
}

# descriptive theorem names, plus the short labels used in problem archives
THEOREM_ALIASES = {
    "example-e1": "example-e1",
    "t1": "interval-convergence",
    "interval-convergence": "interval-convergence",
    "band": "band-proposition",
    "band-proposition": "band-proposition",
    "tau-subset": "interval-fit-probe",
    "interval-fit-probe": "interval-fit-probe",
}


@record
class ProblemDoc:
    carrier: Carrier
    semantics: Semantics
    task_kind: str
    payload: dict


@record
class RunResult:
    exit_code: int
    text: str
    report: dict


def _expect_keys(obj: Any, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise DocumentError(path, "expected an object")
    missing = required - set(obj)
    if missing:
        raise DocumentError(path, f"missing fields: {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise DocumentError(path, f"unknown fields: {sorted(unknown)}")


def _get_int(obj: dict, key: str, path: str, default: Optional[int] = None,
             minimum: int = 1) -> int:
    if key not in obj:
        if default is None:
            raise DocumentError(f"{path}.{key}", "required integer missing")
        return default
    got = obj[key]
    if isinstance(got, bool) or not isinstance(got, int) or got < minimum:
        raise DocumentError(f"{path}.{key}", f"expected an integer >= {minimum}")
    return got


def parse_document(obj: Any, expected_task: Optional[str] = None) -> ProblemDoc:
    """Validate a raw JSON document; unknown fields are rejected."""
    _expect_keys(obj, "$", {"carrier", "task"}, {"semantics"})
    try:
        carrier = carrier_from_json(obj["carrier"])
    except ValueError as err:
        raise DocumentError("$.carrier", str(err)) from err
    semantics_raw = obj.get("semantics", Semantics.STRICT_PARTIAL.value)
    try:
        semantics = Semantics(semantics_raw)
    except ValueError as err:
        raise DocumentError("$.semantics", f"unknown semantics {semantics_raw!r}") from err
    task = obj["task"]
    if not isinstance(task, dict) or len(task) != 1:
        raise DocumentError("$.task", "expected exactly one task block")
    kind, payload = next(iter(task.items()))
    if kind not in TASK_KEYS:
        raise DocumentError("$.task", f"unknown task {kind!r}")
    if expected_task is not None and kind != expected_task:
        raise DocumentError("$.task", f"document carries {kind!r}, "
                                      f"but the command expects {expected_task!r}")
    if not isinstance(payload, dict):
        raise DocumentError(f"$.task.{kind}", "expected an object")
    return ProblemDoc(carrier, semantics, kind, payload)


def run_document(doc: ProblemDoc) -> RunResult:
    handler = _HANDLERS[doc.task_kind]
    return handler(doc)


def _parse_expr(doc: ProblemDoc, payload: dict, key: str, path: str) -> SetExpr:
    if key not in payload:
        raise DocumentError(path, f"missing '{key}'")
    try:
        return setexpr_from_json(payload[key], doc.carrier, doc.semantics)
    except ValueError as err:
        raise DocumentError(path, str(err)) from err


def _parse_vec(doc: ProblemDoc, payload: dict, key: str, path: str) -> Vec:
    if key not in payload:
        raise DocumentError(path, f"missing '{key}'")
    try:
        return vec_from_json(payload[key], doc.carrier)
    except ValueError as err:
        raise DocumentError(path, str(err)) from err


def _run_check_set(doc: ProblemDoc) -> RunResult:
    path = "$.task.check-set"
    _expect_keys(doc.payload, path, {"set", "mode"}, set())
    mode = doc.payload["mode"]
    expr = _parse_expr(doc, doc.payload, "set", f"{path}.set")
    lines = [f"check-set: {mode}", f"carrier: {doc.carrier}",
             f"semantics: {doc.semantics.value}"]
    if mode == "solid":
        verdict = check_solid(expr)
        body = solidity_to_json(verdict)
        lines.append(f"status: {verdict.status}")
        if verdict.status == "certified":
            lines.append("rules: " + ", ".join(verdict.rule_trace))
        elif verdict.status == "refuted":
            x, y = verdict.witness
            lines.append(f"witness inside: {x}")
            lines.append(f"dominated outside: {y}")
    elif isinstance(mode, str) and mode in CHECK_MODES:
        verdict = CHECK_MODES[mode](expr, doc.carrier)
        body = verdict_to_json(verdict)
        lines.append(f"status: {verdict.status}")
        if verdict.status == "certified":
            lines.append("rules: " + ", ".join(verdict.rule_trace))
        elif verdict.status == "refuted":
            w = verdict.witness
            lines.append(f"witness: {w.mode} family, limit {w.limit}, "
                         f"in set from {w.in_set_from}, limit outside")
    else:
        raise DocumentError(f"{path}.mode", f"unknown mode {mode!r}")
    report = _report_envelope(doc, {"verdict": body})
    return RunResult(0, "\n".join(lines) + "\n", report)


def _run_convergence(doc: ProblemDoc) -> RunResult:
    path = "$.task.convergence"
    _expect_keys(doc.payload, path, {"family", "limit"}, {"depth"})
    try:
        family = family_from_json(doc.payload["family"], doc.carrier)
    except ValueError as err:
        raise DocumentError(f"{path}.family", str(err)) from err
    x = _parse_vec(doc, doc.payload, "limit", f"{path}.limit")
    depth = _get_int(doc.payload, "depth", path, default=5)
    got = order_converges(family, x)
    lines = [f"convergence: {doc.payload['family'].get('template')}",
             f"carrier: {doc.carrier}"]
    if isinstance(got, Certificate):
        ok = certificate_derivable(family, got)
        order_body = {"status": "certified", "certificate": certificate_to_json(got),
                      "revalidated": ok}
        lines.append("order convergence: certified"
                     + (" (certificate re-validated)" if ok else ""))
    else:
        order_body = {"status": "refuted", "refutation": refutation_to_json(got)}
        lines.append(f"order convergence: refuted at coordinate {got.coord}")
    tau = tau_e_convergence_report(family, x, neighborhood_catalog(x, depth, doc.semantics))
    if tau.consistent:
        lines.append(f"interval-topology probe: consistent over {depth} chain "
                     "levels and the perturbation intervals")
    else:
        lines.append("interval-topology probe: refuted by the interval "
                     f"[{tau.refuted_by.lo}, {tau.refuted_by.hi}]")
    report = _report_envelope(doc, {
        "order_convergence": order_body,
        "interval_topology": tau_e_report_to_json(tau),
    })
    return RunResult(0, "\n".join(lines) + "\n", report)


def _run_fit(doc: ProblemDoc) -> RunResult:
    path = "$.task.fit"
    _expect_keys(doc.payload, path, {"set", "point"}, {"budget"})
    expr = _parse_expr(doc, doc.payload, "set", f"{path}.set")
    point = _parse_vec(doc, doc.payload, "point", f"{path}.point")
    budget = _get_int(doc.payload, "budget", path, default=16, minimum=0)
    fit = interval_fit(point, expr, budget=budget, semantics=doc.semantics)
    lines = [f"fit: dyadic budget {budget}", f"carrier: {doc.carrier}"]
    if fit is None:
        lines.append("result: no interval found within budget")
    else:
        lines.append(f"result: fitted at shrink exponent {fit.steps} (exact)")
        lines.append(f"interval: [{fit.interval.lo}, {fit.interval.hi}]")
    report = _report_envelope(doc, {"fit": fit_to_json(fit)})
    return RunResult(0, "\n".join(lines) + "\n", report)


def _run_theorem(doc: ProblemDoc) -> RunResult:
    path = "$.task.theorem"
    if "id" not in doc.payload:
        raise DocumentError(f"{path}.id", "missing theorem id")
    raw_id = doc.payload["id"]
    if not isinstance(raw_id, str) or raw_id not in THEOREM_ALIASES:
        raise DocumentError(f"{path}.id", f"unknown theorem id {raw_id!r}")
    tid = THEOREM_ALIASES[raw_id]
    if tid == "example-e1":
        _expect_keys(doc.payload, path, {"id"}, set())
        report = verify_example_e1(doc.semantics)
    elif tid == "interval-convergence":
        _expect_keys(doc.payload, path, {"id", "family", "limit"}, {"depth"})
        try:
            family = family_from_json(doc.payload["family"], doc.carrier)
        except ValueError as err:
            raise DocumentError(f"{path}.family", str(err)) from err
        x = _parse_vec(doc, doc.payload, "limit", f"{path}.limit")
        depth = _get_int(doc.payload, "depth", path, default=10)
        report = verify_interval_convergence_theorem(family, x, depth, doc.semantics)
    elif tid == "band-proposition":
        _expect_keys(doc.payload, path, {"id", "set"}, set())
        expr = _parse_expr(doc, doc.payload, "set", f"{path}.set")
        try:
            report = verify_band_proposition(expr)
        except ValueError as err:
            raise DocumentError(f"{path}.set", str(err)) from err
    else:
        _expect_keys(doc.payload, path, {"id", "sets"}, {"samples"})
        sets_raw = doc.payload["sets"]
        if not isinstance(sets_raw, list):
            raise DocumentError(f"{path}.sets", "expected an array")
        exprs = []
        for i, raw in enumerate(sets_raw):
            try:
                exprs.append(setexpr_from_json(raw, doc.carrier, doc.semantics))
            except ValueError as err:
                raise DocumentError(f"{path}.sets[{i}]", str(err)) from err
        samples = _get_int(doc.payload, "samples", path, default=50)
        try:
            report = verify_interval_fit_probe(exprs, samples, carrier=doc.carrier)
        except ValueError as err:
            raise DocumentError(f"{path}.sets", str(err)) from err
    lines = [f"theorem: {report.theorem_id}"]
    for step in report.steps:
        lines.append(f"  step {step.name}: {step.outcome}"
                     + (f" ({step.detail})" if step.detail else ""))
    lines.append(f"conclusion: {report.conclusion}")
    for note in report.notes:
        lines.append(f"note: {note}")
    body = _report_envelope(doc, {"theorem": theorem_report_to_json(report)})
    exit_code = 3 if report.contradicts_expectations else 0
    return RunResult(exit_code, "\n".join(lines) + "\n", body)


def _report_envelope(doc: ProblemDoc, body: dict) -> dict:
    return {
        "carrier": carrier_to_json(doc.carrier),
        "semantics": doc.semantics.value,
        "task": doc.task_kind,
        **body,
    }


_HANDLERS: dict[str, Callable[[ProblemDoc], RunResult]] = {
    "check-set": _run_check_set,
    "convergence": _run_convergence,
    "fit": _run_fit,
    "theorem": _run_theorem,
}
