"""JSON codecs for every value that crosses the CLI boundary.

Wire formats: rationals are "p/q" strings ("p" when the denominator is 1);
finite-dimensional vectors are arrays of rational strings; tail sequences
are {"prefix": [...], "tail": "..."}; set expressions are single-key
objects per constructor; families carry a "template" tag.  Reports are
one-way (encode only).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from .carriers import TAIL_SEQ, Carrier, Vec, findim
from .families import (
    Certificate,
    CoordDecay,
    Explicit,
    Family,
    Refutation,
    RunningSupMeet,
    Scale,
    Shift,
)
from .ordersets import (
    Band,
    Complement,
    Dilate,
    HalfSpace,
    Ideal,
    Intersection,
    Interval,
    IntervalKind,
    IntervalSet,
    Semantics,
    SetExpr,
    SolidHull,
    SolidityVerdict,
    TailZero,
    Translate,
    Union,
)
from .rationals import format_rat, parse_rat
from .theorems import TheoremReport
from .topology import (
    ClosureWitness,
    FitResult,
    SearchReport,
    TauEReport,
    Verdict,
)


# -- scalars and vectors -----------------------------------------------------------


def _reject_unknown(obj: dict, allowed: set[str], what: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown {what} fields: {sorted(extra)}")


def rat_to_json(x: Fraction) -> str:
    return format_rat(x)


def rat_from_json(obj: Any) -> Fraction:
    if isinstance(obj, bool) or not isinstance(obj, (str, int)):
        raise ValueError(f"expected a rational string, got {obj!r}")
    return parse_rat(str(obj))


def carrier_to_json(carrier: Carrier) -> dict:
    if carrier.kind == "findim":
        return {"kind": "findim", "dim": carrier.dim}
    return {"kind": "tailseq"}


def carrier_from_json(obj: Any) -> Carrier:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("carrier must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "findim":
        _reject_unknown(obj, {"kind", "dim"}, "carrier")
        dim = obj.get("dim")
        if not isinstance(dim, int) or dim < 1:
            raise ValueError("findim carrier needs a positive integer 'dim'")
        return findim(dim)
    if kind == "tailseq":
        _reject_unknown(obj, {"kind"}, "carrier")
        return TAIL_SEQ
    raise ValueError(f"unknown carrier kind {kind!r}")


def vec_to_json(v: Vec) -> Any:
    if v.carrier.kind == "findim":
        return [format_rat(c) for c in v.coords]
    return {"prefix": [format_rat(c) for c in v.coords], "tail": format_rat(v.tail)}


def vec_from_json(obj: Any, carrier: Carrier) -> Vec:
    if carrier.kind == "findim":
        if not isinstance(obj, list):
            raise ValueError("finite-dimensional vector must be an array")
        coords = tuple(rat_from_json(c) for c in obj)
        if len(coords) != carrier.dim:
            raise ValueError(
                f"expected {carrier.dim} coordinates, got {len(coords)}")
        return Vec(carrier, coords)
    if not isinstance(obj, dict):
        raise ValueError("tail-sequence vector must be an object")
    _reject_unknown(obj, {"prefix", "tail"}, "vector")
    prefix = obj.get("prefix", [])
    if not isinstance(prefix, list):
        raise ValueError("'prefix' must be an array")
    if "tail" not in obj:
        raise ValueError("tail-sequence vector needs a 'tail'")
    return Vec(carrier, tuple(rat_from_json(c) for c in prefix),
               rat_from_json(obj["tail"]))


# -- intervals and set expressions ----------------------------------------------------


def interval_to_json(iv: Interval) -> dict:
    return {
        "lo": vec_to_json(iv.lo),
        "hi": vec_to_json(iv.hi),
        "kind": iv.kind.value,
    }


def interval_from_json(obj: Any, carrier: Carrier, semantics: Semantics) -> Interval:
    if not isinstance(obj, dict):
        raise ValueError("interval must be an object")
    _reject_unknown(obj, {"lo", "hi", "kind"}, "interval")
    if "lo" not in obj or "hi" not in obj:
        raise ValueError("interval needs 'lo' and 'hi'")
    kind = obj.get("kind", "closed")
    if kind not in ("open", "closed"):
        raise ValueError(f"interval kind must be 'open' or 'closed', got {kind!r}")
    return Interval(
        vec_from_json(obj["lo"], carrier),
        vec_from_json(obj["hi"], carrier),
        IntervalKind(kind),
        semantics,
    )


def setexpr_to_json(expr: SetExpr) -> dict:
    if isinstance(expr, IntervalSet):
        return {"interval": interval_to_json(expr.interval)}
    if isinstance(expr, Ideal):
        return {"ideal": {"gens": [vec_to_json(g) for g in expr.gens]}}
    if isinstance(expr, Band):
        return {"band": {"gens": [vec_to_json(g) for g in expr.gens]}}
    if isinstance(expr, SolidHull):
        return {"solid-hull": {"gens": [vec_to_json(g) for g in expr.gens]}}
    if isinstance(expr, HalfSpace):
        return {"half-space": {"coord": expr.coord, "relation": expr.relation,
                               "bound": format_rat(expr.bound)}}
    if isinstance(expr, TailZero):
        return {"tail-zero": True}
    if isinstance(expr, Complement):
        return {"complement": setexpr_to_json(expr.inner)}
    if isinstance(expr, Union):
        return {"union": [setexpr_to_json(p) for p in expr.parts]}
    if isinstance(expr, Intersection):
        return {"intersection": [setexpr_to_json(p) for p in expr.parts]}
    if isinstance(expr, Translate):
        return {"translate": {"set": setexpr_to_json(expr.inner),
                              "by": vec_to_json(expr.by)}}
    if isinstance(expr, Dilate):
        return {"dilate": {"set": setexpr_to_json(expr.inner),
                           "factor": format_rat(expr.factor)}}
    raise TypeError(f"not a set expression: {expr!r}")


def setexpr_from_json(obj: Any, carrier: Carrier, semantics: Semantics) -> SetExpr:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("set expression must be a single-key object")
    key, body = next(iter(obj.items()))
    if key == "interval":
        return IntervalSet(interval_from_json(body, carrier, semantics))
    if key in ("ideal", "band", "solid-hull"):
        if not isinstance(body, dict) or set(body) != {"gens"}:
            raise ValueError(f"'{key}' needs exactly a 'gens' array")
        gens = tuple(vec_from_json(g, carrier) for g in body["gens"])
        cls = {"ideal": Ideal, "band": Band, "solid-hull": SolidHull}[key]
        return cls(gens)
    if key == "half-space":
        if not isinstance(body, dict):
            raise ValueError("'half-space' needs an object body")
        _reject_unknown(body, {"coord", "relation", "bound"}, "half-space")
        coord = body.get("coord")
        if coord != "tail" and (isinstance(coord, bool) or not isinstance(coord, int)
                                or coord < 1):
            raise ValueError("half-space 'coord' must be a positive index or 'tail'")
        if coord == "tail" and carrier.kind == "findim":
            raise ValueError("'tail' coordinate needs the tailseq carrier")
        if isinstance(coord, int) and carrier.kind == "findim" and coord > carrier.dim:
            raise ValueError(f"coordinate {coord} outside the carrier")
        relation = body.get("relation")
        if relation not in ("le", "ge"):
            raise ValueError("half-space 'relation' must be 'le' or 'ge'")
        return HalfSpace(coord, relation, rat_from_json(body.get("bound")))
    if key == "tail-zero":
        if body is not True:
            raise ValueError("'tail-zero' takes the literal true")
        if carrier.kind != "tailseq":
            raise ValueError("'tail-zero' needs the tailseq carrier")
        return TailZero()
    if key == "complement":
        return Complement(setexpr_from_json(body, carrier, semantics))
    if key in ("union", "intersection"):
        if not isinstance(body, list):
            raise ValueError(f"'{key}' needs an array of set expressions")
        parts = tuple(setexpr_from_json(p, carrier, semantics) for p in body)
        return Union(parts) if key == "union" else Intersection(parts)
    if key == "translate":
        if not isinstance(body, dict) or set(body) != {"set", "by"}:
            raise ValueError("'translate' needs 'set' and 'by'")
        return Translate(setexpr_from_json(body["set"], carrier, semantics),
                         vec_from_json(body["by"], carrier))
    if key == "dilate":
        if not isinstance(body, dict) or set(body) != {"set", "factor"}:
            raise ValueError("'dilate' needs 'set' and 'factor'")
        return Dilate(setexpr_from_json(body["set"], carrier, semantics),
                      rat_from_json(body["factor"]))
    raise ValueError(f"unknown set constructor {key!r}")


# -- families ---------------------------------------------------------------------------


def family_to_json(F: Family) -> dict:
    if isinstance(F, Explicit):
        return {"template": "explicit", "values": [vec_to_json(v) for v in F.values]}
    if isinstance(F, Shift):
        return {"template": "shift", "head": format_rat(F.head),
                "tail": format_rat(F.tail)}
    if isinstance(F, Scale):
        return {"template": "scale", "v": vec_to_json(F.v), "lam": format_rat(F.lam)}
    if isinstance(F, CoordDecay):
        return {"template": "coord-decay", "c": vec_to_json(F.c),
                "p": vec_to_json(F.p), "q": format_rat(F.q)}
    if isinstance(F, RunningSupMeet):
        return {"template": "running-sup-meet", "base": family_to_json(F.base),
                "cap": vec_to_json(F.cap)}
    raise TypeError(f"not a family: {F!r}")


def family_from_json(obj: Any, carrier: Carrier) -> Family:
    if not isinstance(obj, dict) or "template" not in obj:
        raise ValueError("family must be an object with a 'template'")
    template = obj["template"]
    if template == "explicit":
        _reject_unknown(obj, {"template", "values"}, "family")
        values = obj.get("values")
        if not isinstance(values, list) or not values:
            raise ValueError("'explicit' needs a nonempty 'values' array")
        return Explicit(tuple(vec_from_json(v, carrier) for v in values))
    if template == "shift":
        _reject_unknown(obj, {"template", "head", "tail"}, "family")
        if carrier.kind != "tailseq":
            raise ValueError("'shift' needs the tailseq carrier")
        return Shift(rat_from_json(obj.get("head", "0")),
                     rat_from_json(obj.get("tail", "1")))
    if template == "scale":
        _reject_unknown(obj, {"template", "v", "lam"}, "family")
        if "v" not in obj or "lam" not in obj:
            raise ValueError("'scale' needs 'v' and 'lam'")
        return Scale(vec_from_json(obj["v"], carrier), rat_from_json(obj["lam"]))
    if template == "coord-decay":
        _reject_unknown(obj, {"template", "c", "p", "q"}, "family")
        if "c" not in obj or "p" not in obj:
            raise ValueError("'coord-decay' needs 'c' and 'p'")
        return CoordDecay(vec_from_json(obj["c"], carrier),
                          vec_from_json(obj["p"], carrier),
                          rat_from_json(obj.get("q", "0")))
    if template == "running-sup-meet":
        _reject_unknown(obj, {"template", "base", "cap"}, "family")
        if "base" not in obj or "cap" not in obj:
            raise ValueError("'running-sup-meet' needs 'base' and 'cap'")
        return RunningSupMeet(family_from_json(obj["base"], carrier),
                              vec_from_json(obj["cap"], carrier))
    raise ValueError(f"unknown family template {template!r}")


# -- reports (encode only) -----------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "limit": vec_to_json(cert.limit),
        "dominating": family_to_json(cert.dominating),
        "threshold_map": ([[m, t] for m, t in cert.threshold_map]
                          if cert.threshold_map is not None else None),
    }


def refutation_to_json(ref: Refutation) -> dict:
    return {
        "limit": vec_to_json(ref.limit),
        "candidate": vec_to_json(ref.candidate),
        "coord": ref.coord,
        "separated_from": ref.separated_from,
        "gap": format_rat(ref.gap),
    }


def witness_to_json(w: ClosureWitness) -> dict:
    out = {
        "family": family_to_json(w.family),
        "mode": w.mode,
        "limit": vec_to_json(w.limit),
        "in_set_from": w.in_set_from,
        "limit_outside": True,
    }
    if w.certificate is not None:
        out["certificate"] = certificate_to_json(w.certificate)
    return out


def verdict_to_json(v: Verdict) -> dict:
    out: dict = {"status": v.status}
    if v.status == "certified":
        out["rule_trace"] = list(v.rule_trace)
    elif v.status == "refuted":
        out["witness"] = witness_to_json(v.witness)
    else:
        out["search_report"] = search_report_to_json(v.search_report)
    return out


def search_report_to_json(r: Optional[SearchReport]) -> dict:
    if r is None:
        return {"candidates": 0, "grids": ""}
    return {"candidates": r.candidates, "grids": r.grids}


def solidity_to_json(v: SolidityVerdict) -> dict:
    out: dict = {"status": v.status}
    if v.status == "certified":
        out["rule_trace"] = list(v.rule_trace)
    elif v.status == "refuted":
        x, y = v.witness
        out["witness"] = {"inside": vec_to_json(x), "dominated_outside": vec_to_json(y)}
    else:
        out["searched_pairs"] = v.searched
    return out


def tau_e_report_to_json(r: TauEReport) -> dict:
    out: dict = {"center": vec_to_json(r.center), "consistent": r.consistent}
    if r.refuted_by is not None:
        out["refuted_by"] = interval_to_json(r.refuted_by)
    out["thresholds"] = [[pos, t] for pos, t in r.thresholds]
    return out


def fit_to_json(fit: Optional[FitResult]) -> Optional[dict]:
    if fit is None:
        return None
    return {
        "interval": interval_to_json(fit.interval),
        "steps": fit.steps,
        # every fit is proved; the two fields keep the report's wire form
        "evidence": "exact",
        "samples": 0,
    }


def theorem_report_to_json(r: TheoremReport) -> dict:
    return {
        "theorem_id": r.theorem_id,
        "inputs": {k: v for k, v in r.inputs},
        "steps": [
            {"name": s.name, "operation": s.operation, "outcome": s.outcome,
             "detail": s.detail}
            for s in r.steps
        ],
        "conclusion": r.conclusion,
        "contradicts_expectations": r.contradicts_expectations,
        "notes": list(r.notes),
    }
