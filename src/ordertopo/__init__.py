"""Exact-arithmetic decision procedures for order topologies on vector lattices.

Two executable carriers (rational tuples and prefix-plus-constant-tail
sequences), a closed grammar of subsets, symbolic sequence families with
decidable eventual behavior, and three-valued closure verdicts with
replayable witnesses.
"""

from .carriers import (
    TAIL_SEQ,
    Carrier,
    CarrierMismatch,
    Vec,
    add,
    constant,
    findim,
    inf,
    leq,
    neg,
    ones,
    pos,
    scale,
    sup,
    unit,
    zero,
)
from .families import (
    Certificate,
    CoordDecay,
    EventualVerdict,
    Explicit,
    Family,
    Monotonicity,
    Refutation,
    RunningSupMeet,
    Scale,
    Shift,
    certificate_derivable,
    dominating_family,
    eventually_in,
    monotonicity,
    order_converges,
    order_limit,
    pointwise_limit,
    running_sup_meet,
    shift_family,
    shift_up_family,
    validate_certificate,
    value,
    values_iter,
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
    band_member,
    check_solid,
    closed_interval,
    disjoint,
    ideal_member,
    interval_contains,
    is_atom,
    member,
    open_interval,
    solid_hull_member,
)
from .rationals import Rat, format_rat, parse_rat, rat
from .theorems import (
    TheoremReport,
    verify_band_proposition,
    verify_example_e1,
    verify_interval_convergence_theorem,
    verify_interval_fit_probe,
)
from .topology import (
    ClosureWitness,
    FitResult,
    SearchConfig,
    TauEReport,
    Verdict,
    check_order_closed,
    check_quasi_order_closed,
    interval_fit,
    is_order_open,
    neighborhood_catalog,
    normalize_expr,
    replay_witness,
    symmetric_chain,
    tau_e_convergence_report,
)

__version__ = "0.1.0"
