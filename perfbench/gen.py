"""Seeded problem documents whose answers are known by construction.

The generator never imports ``ordertopo``: every answer comes from the way
a document was built, so a wrong verdict from the library shows up as a
mismatch instead of being copied into the expectation.

A document is the JSON the CLI reads.  Its answer is a small dict the
checker compares the report against:

* ``check-set``: ``forbid`` lists the statuses the set's construction rules
  out ("refuted" for a provably closed/open/solid set, "certified" for a
  provably non-closed/non-open/non-solid one).
* ``convergence``: ``limit`` is the true order limit; ``true_limit`` says
  whether the document's candidate is it; ``differs`` lists the coordinate
  labels where a perturbed candidate differs from it; ``tau_refuted`` is
  set when the perturbation is wider than every probe interval.
* ``theorem``: ``conclusions`` lists the admissible conclusions.
* ``fit``: ``found`` says a fitted interval must exist.

A converge answer also carries ``hard`` when the document takes one of the
measured-slow parameter classes.

Streams are stratified: document kinds repeat in a fixed pattern and only
their parameters are drawn, so every seed gives the same mix.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

FAR = 1000  # beyond every coordinate a composed set can reach


# -- vectors: ("findim", n) or ("tailseq",) carriers, (coords, tail) values ----


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def canon(carrier, coords, tail=None):
    coords = tuple(Fraction(c) for c in coords)
    if carrier[0] == "findim":
        return coords, None
    tail = Fraction(tail)
    while coords and coords[-1] == tail:
        coords = coords[:-1]
    return coords, tail


def vjson(carrier, v):
    coords, tail = v
    if carrier[0] == "findim":
        return [fmt(c) for c in coords]
    return {"prefix": [fmt(c) for c in coords], "tail": fmt(tail)}


def carrier_json(carrier):
    if carrier[0] == "findim":
        return {"kind": "findim", "dim": carrier[1]}
    return {"kind": "tailseq"}


def at(v, j):
    """Coordinate at 1-based position j, or the tail for j == "tail"."""
    coords, tail = v
    if j == "tail":
        return tail
    return coords[j - 1] if j <= len(coords) else tail


def width(carrier, *vs):
    if carrier[0] == "findim":
        return carrier[1]
    return max(len(v[0]) for v in vs)


def zipmap(carrier, fn, *vs):
    n = width(carrier, *vs)
    coords = [fn(*(at(v, j) for v in vs)) for j in range(1, n + 1)]
    if carrier[0] == "findim":
        return canon(carrier, coords)
    return canon(carrier, coords, fn(*(v[1] for v in vs)))


def vconst(carrier, x):
    if carrier[0] == "findim":
        return canon(carrier, [x] * carrier[1])
    return canon(carrier, [], x)


def vunit(carrier, j, x=1):
    if carrier[0] == "findim":
        return canon(carrier, [x if i == j else 0 for i in range(1, carrier[1] + 1)])
    return canon(carrier, [0] * (j - 1) + [x], 0)


def labels(carrier, *vs):
    n = width(carrier, *vs)
    out = list(range(1, n + 1))
    return out + ["tail"] if carrier[0] == "tailseq" else out


def rand_rat(rng, lo=-4, hi=4, dens=(1, 1, 2, 3, 4)):
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_vec(rng, carrier, lo=-4, hi=4):
    if carrier[0] == "findim":
        return canon(carrier, [rand_rat(rng, lo, hi) for _ in range(carrier[1])])
    n = rng.randint(0, 3)
    return canon(carrier, [rand_rat(rng, lo, hi) for _ in range(n)], rand_rat(rng, lo, hi))


# a cycle coprime to the document patterns, so every kind meets every carrier
CARRIERS = [("findim", 1), ("findim", 2), ("tailseq",), ("findim", 3), ("findim", 4),
            ("tailseq",), ("findim", 2)]


def carrier_at(i):
    return CARRIERS[i % len(CARRIERS)]


# -- set expressions with labels ------------------------------------------------
#
# Each set constructor below returns (json, labels) with labels["closed"] and labels["open"]
# in {True, False, None}: provably closed under monotone order limits,
# provably not, or not known.  Open means the complement is closed.


def box(rng, carrier, need_gap=False):
    """lo <= hi; with need_gap they differ in coordinate 1."""
    lo = rand_vec(rng, carrier, -4, 2)
    bump = rand_vec(rng, carrier, 0, 3)
    bump = zipmap(carrier, abs, bump)
    if need_gap and at(bump, 1) == 0:
        bump = zipmap(carrier, lambda a, b: a + b, bump, vunit(carrier, 1))
    hi = zipmap(carrier, lambda a, b: a + b, lo, bump)
    return lo, hi


def interval(carrier, lo, hi, kind):
    return {"interval": {"lo": vjson(carrier, lo), "hi": vjson(carrier, hi), "kind": kind}}


def coord_choices(carrier):
    if carrier[0] == "findim":
        return list(range(1, carrier[1] + 1))
    return [1, 2, 3, "tail"]


def gens(rng, carrier):
    out = []
    for _ in range(rng.randint(1, 2)):
        g = rand_vec(rng, carrier, -2, 2)
        if all(c == 0 for c in g[0]) and not g[1]:
            g = vunit(carrier, rng.randint(1, width(carrier, g) or 1))
        out.append(g)
    return out


def full_support(carrier, gs):
    """Whether the band of the generators is the whole carrier."""
    if carrier[0] == "tailseq" and all(g[1] == 0 for g in gs):
        return False
    return all(any(at(g, j) != 0 for g in gs) for j in labels(carrier, *gs))


def closed_leaf(rng, carrier):
    pick = rng.choice(["interval", "interval", "half-space", "band", "ideal", "solid-hull"])
    if pick == "interval":
        lo, hi = box(rng, carrier)
        return interval(carrier, lo, hi, "closed"), {"closed": True, "open": False}
    if pick == "half-space":
        body = {"coord": rng.choice(coord_choices(carrier)),
                "relation": rng.choice(["le", "ge"]), "bound": fmt(rand_rat(rng))}
        return {"half-space": body}, {"closed": True, "open": False}
    gs = gens(rng, carrier)
    body = {"gens": [vjson(carrier, g) for g in gs]}
    if pick == "solid-hull":
        # one generator makes the hull the closed interval [-|g|, |g|]
        return {"solid-hull": body}, {"closed": True, "open": False if len(gs) == 1 else None}
    return {pick: body}, {"closed": True, "open": True if full_support(carrier, gs) else False}


def closed_set(rng, carrier, depth=2):
    roll = rng.random() if depth > 0 else 1.0
    if roll < 0.2:
        a, la = closed_set(rng, carrier, depth - 1)
        b, lb = closed_set(rng, carrier, depth - 1)
        key = rng.choice(["union", "intersection"])
        both_open = la["open"] is True and lb["open"] is True
        return {key: [a, b]}, {"closed": True, "open": True if both_open else None}
    if roll < 0.4:
        return affine(rng, carrier, *closed_set(rng, carrier, depth - 1))
    return closed_leaf(rng, carrier)


def affine(rng, carrier, expr, lab):
    """Translates and dilates are order isomorphisms: labels carry over."""
    if rng.random() < 0.5:
        return {"translate": {"set": expr, "by": vjson(carrier, rand_vec(rng, carrier, -3, 3))}}, lab
    factor = rng.choice([Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3, 2), Fraction(-2)])
    return {"dilate": {"set": expr, "factor": fmt(factor)}}, lab


def nonclosed_base(rng, carrier, variant):
    picks = ["open-interval", "open-interval", "complement-interval"]
    if carrier[0] == "tailseq":
        picks += ["tail-zero", "complement-tail-zero"]
    pick = picks[variant % len(picks)]
    if pick == "open-interval":
        lo, hi = box(rng, carrier, need_gap=True)
        # findim(1) open intervals are open; elsewhere an interior point is
        # the limit of a monotone net from outside
        is_open = carrier == ("findim", 1)
        return interval(carrier, lo, hi, "open"), {"closed": False, "open": is_open}
    if pick == "complement-interval":
        lo, hi = box(rng, carrier)
        return {"complement": interval(carrier, lo, hi, "closed")}, {"closed": False, "open": True}
    if pick == "tail-zero":
        return {"tail-zero": True}, {"closed": False, "open": False}
    return {"complement": {"tail-zero": True}}, {"closed": False, "open": False}


def nonclosed_set(rng, carrier, variant):
    expr, lab = nonclosed_base(rng, carrier, variant // 4)
    branch = variant % 4
    if branch == 0:
        return affine(rng, carrier, expr, lab)
    if branch == 1:
        # the escaping net and its limit stay inside a huge closed box
        big = interval(carrier, vconst(carrier, -FAR), vconst(carrier, FAR), "closed")
        return {"intersection": [expr, big]}, {"closed": False, "open": None}
    if branch == 2:
        # a box far away neither holds the escaping limit nor blocks the net
        far = interval(carrier, vconst(carrier, FAR), vconst(carrier, FAR + 1), "closed")
        return {"union": [expr, far]}, {"closed": False, "open": None}
    return expr, lab


def open_set(rng, carrier):
    """Provably open: the complement of a provably closed set."""
    if rng.random() < 0.15:
        a, _ = open_set(rng, carrier)
        b, _ = open_set(rng, carrier)
        return {rng.choice(["union", "intersection"]): [a, b]}, {"closed": None, "open": True}
    expr, lab = closed_set(rng, carrier, 1)
    return {"complement": expr}, {"closed": lab["open"], "open": True}


def nonopen_set(rng, carrier, variant):
    branch = variant % 4
    if branch < 2:
        expr, lab = nonclosed_base(rng, carrier, variant // 4)
        if lab["open"] is False:
            return expr, lab
        return {"complement": expr}, {"closed": lab["open"], "open": False}
    if branch == 2:
        lo, hi = box(rng, carrier, need_gap=True)
        if carrier == ("findim", 1):
            return interval(carrier, lo, hi, "closed"), {"closed": True, "open": False}
        expr = interval(carrier, lo, hi, "open")
        return affine(rng, carrier, expr, {"closed": False, "open": False})
    lo, hi = box(rng, carrier)
    return interval(carrier, lo, hi, "closed"), {"closed": True, "open": False}


def solid_set(rng, carrier, depth=1):
    roll = rng.random() if depth > 0 else 1.0
    if roll < 0.25:
        a = solid_set(rng, carrier, depth - 1)
        b = solid_set(rng, carrier, depth - 1)
        return {rng.choice(["union", "intersection"]): [a, b]}
    if roll < 0.4:
        inner = solid_set(rng, carrier, depth - 1)
        return {"dilate": {"set": inner, "factor": fmt(rng.choice([2, Fraction(1, 2), -1]))}}
    picks = ["ideal", "band", "solid-hull", "symmetric"]
    if carrier[0] == "tailseq":
        picks.append("tail-zero")
    pick = rng.choice(picks)
    if pick == "tail-zero":
        return {"tail-zero": True}
    if pick == "symmetric":
        g = zipmap(carrier, abs, rand_vec(rng, carrier, -3, 3))
        return interval(carrier, zipmap(carrier, lambda a: -a, g), g, "closed")
    return {pick: {"gens": [vjson(carrier, g) for g in gens(rng, carrier)]}}


def nonsolid_set(rng, carrier):
    """A nonempty set missing 0: 0 sits below every member in absolute value."""
    roll = rng.random()
    if roll < 0.4:
        # push one coordinate of lo above 0
        lo, hi = box(rng, carrier)
        j = rng.choice(labels(carrier, lo, hi))
        gap = max(Fraction(rng.randint(1, 3)) - at(lo, j), Fraction(0))
        push = vunit(carrier, j, gap) if j != "tail" else vconst(carrier, gap)
        lo2 = zipmap(carrier, lambda a, b: a + b, lo, push)
        hi2 = zipmap(carrier, lambda a, b: a + b, hi, push)
        return interval(carrier, lo2, hi2, "closed")
    if roll < 0.7:
        bound = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        coord = rng.choice(coord_choices(carrier))
        if rng.random() < 0.5:
            return {"half-space": {"coord": coord, "relation": "ge", "bound": fmt(bound)}}
        return {"half-space": {"coord": coord, "relation": "le", "bound": fmt(-bound)}}
    g = zipmap(carrier, abs, rand_vec(rng, carrier, 0, 2))
    j = rng.choice(labels(carrier, g))
    by = vunit(carrier, j, at(g, j) + 1) if j != "tail" else vconst(carrier, g[1] + 1)
    sym = interval(carrier, zipmap(carrier, lambda a: -a, g), g, "closed")
    return {"translate": {"set": sym, "by": vjson(carrier, by)}}


# -- documents -------------------------------------------------------------------


def doc(carrier, task):
    return {"carrier": carrier_json(carrier), "task": task}


FORBID = {True: ["refuted"], False: ["certified"]}


def check_set_doc(rng, carrier, want, variant):
    """variant picks the construction branch, so the stream fixes the mix."""
    if want == "closed":
        expr, lab = closed_set(rng, carrier)
        mode = rng.choice(["quasi-order-closed", "order-closed"])
        known = lab["closed"]
    elif want == "nonclosed":
        expr, lab = nonclosed_set(rng, carrier, variant)
        mode = rng.choice(["quasi-order-closed", "order-closed"])
        known = lab["closed"]
    elif want == "open":
        expr, lab = open_set(rng, carrier)
        mode, known = "order-open", lab["open"]
    elif want == "nonopen":
        expr, lab = nonopen_set(rng, carrier, variant)
        mode, known = "order-open", lab["open"]
    else:
        expr = solid_set(rng, carrier) if want == "solid" else nonsolid_set(rng, carrier)
        mode, known = "solid", want == "solid"
    task = {"check-set": {"set": expr, "mode": mode}}
    return doc(carrier, task), {"kind": "check-set", "forbid": FORBID[known]}


def band_doc(rng, carrier):
    if carrier[0] == "tailseq" and rng.random() < 0.4:
        expr, want = {"tail-zero": True}, ["counterexample-found"]
    else:
        key = rng.choice(["ideal", "band"])
        expr, want = {key: {"gens": [vjson(carrier, g) for g in gens(rng, carrier)]}}, ["confirmed"]
    task = {"theorem": {"id": rng.choice(["band", "band-proposition"]), "set": expr}}
    return doc(carrier, task), {"kind": "theorem", "conclusions": want}


def fit_doc(rng, carrier):
    """A point strictly outside a closed box: a fitted interval exists."""
    lo, hi = box(rng, carrier)
    j = rng.choice(labels(carrier, lo, hi))
    off = Fraction(rng.randint(1, 4), rng.choice([1, 2, 4]))
    point = zipmap(carrier, lambda a, b: (a + b) / 2, lo, hi)
    if carrier[0] == "findim" or j != "tail":
        point = zipmap(carrier, lambda p, u: p + u, point,
                       vunit(carrier, j, at(hi, j) + off - at(point, j)))
    else:
        point = (point[0], hi[1] + off)
        point = canon(carrier, *point)
    task = {"fit": {"set": {"complement": interval(carrier, lo, hi, "closed")},
                    "point": vjson(carrier, point)}}
    return doc(carrier, task), {"kind": "fit", "found": True}


# -- families with known limits --------------------------------------------------


EXPLICIT_SIZES = {"explicit": (1, 5), "explicit-200": (100, 200), "explicit-1000": (500, 1000)}


def family(rng, carrier, kind):
    """(family json, true limit) for a template kind.

    Kinds are the five templates, the sizes in EXPLICIT_SIZES,
    "scale-1e<n>" for lam = 1 - 10^-n, "coord-decay-1e<n>" for q near 10^n
    with large denominators, "rsm:<kind>" for a running-sup-meet over a
    family of that kind and "rsm2:<kind>" for one over another
    running-sup-meet.
    """
    if kind in EXPLICIT_SIZES:
        vals = [rand_vec(rng, carrier) for _ in range(rng.randint(*EXPLICIT_SIZES[kind]))]
        return {"template": "explicit", "values": [vjson(carrier, v) for v in vals]}, vals[-1]
    if kind == "shift":
        head, tail = rand_rat(rng, -2, 2), rand_rat(rng, -2, 2)
        return {"template": "shift", "head": fmt(head), "tail": fmt(tail)}, canon(carrier, [], head)
    if kind.startswith("scale"):
        v = zipmap(carrier, abs, rand_vec(rng, carrier, 0, 4))
        if kind == "scale":
            lam = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4),
                              Fraction(9, 10)])
        else:  # "scale-1e3", "scale-1e4": lam = 1 - 10^-n
            lam = 1 - Fraction(1, 10 ** int(kind[-1]))
        return {"template": "scale", "v": vjson(carrier, v), "lam": fmt(lam)}, vconst(carrier, 0)
    if kind.startswith("coord-decay"):
        c, p = rand_vec(rng, carrier), rand_vec(rng, carrier)
        q = rand_rat(rng, 0, 3)
        if kind != "coord-decay":  # "coord-decay-1e6", "coord-decay-1e9": big q, big denominators
            big = 10 ** int(kind[-1])
            q = Fraction(rng.randint(big, 10 * big), rng.randint(1, 10 ** 6))
            p = zipmap(carrier, lambda a: a * Fraction(rng.randint(1, big), rng.randint(1, big)), p)
        return {"template": "coord-decay", "c": vjson(carrier, c), "p": vjson(carrier, p),
                "q": fmt(q)}, c
    # running sup meet cap: the limit is (sup of every base value) meet cap
    inner = "rsm:" + kind[5:] if kind.startswith("rsm2:") else kind[4:]
    base, _ = family(rng, carrier, inner)
    cap = rand_vec(rng, carrier, -1, 5)
    fam = {"template": "running-sup-meet", "base": base, "cap": vjson(carrier, cap)}
    return fam, zipmap(carrier, min, base_sup(carrier, base), cap)


def parse_vec(carrier, obj):
    if carrier[0] == "findim":
        return canon(carrier, [Fraction(c) for c in obj])
    return canon(carrier, [Fraction(c) for c in obj["prefix"]], Fraction(obj["tail"]))


def sup_all(carrier, vals):
    out = vals[0]
    for v in vals[1:]:
        out = zipmap(carrier, max, out, v)
    return out


def base_sup(carrier, fam):
    """Coordinatewise supremum over all values of a (non-shift) family."""
    t = fam["template"]
    if t == "explicit":
        return sup_all(carrier, [parse_vec(carrier, v) for v in fam["values"]])
    if t == "scale":
        return parse_vec(carrier, fam["v"])  # the k = 0 value dominates
    if t == "coord-decay":
        c, p = parse_vec(carrier, fam["c"]), parse_vec(carrier, fam["p"])
        q = Fraction(fam["q"])
        # positive directions peak at k = 0, the others climb towards c
        return zipmap(carrier, lambda cc, pp: cc + max(pp, 0) / (1 + q), c, p)
    inner = base_sup(carrier, fam["base"])
    return zipmap(carrier, min, inner, parse_vec(carrier, fam["cap"]))


def perturb(rng, carrier, limit, wide, tail=True):
    """A candidate differing from the limit in one label, by > 1 when wide.

    ``tail=False`` keeps the tail label out of the choice (and takes position
    1 when the limit has no prefix).
    """
    choices = labels(carrier, limit)
    if not tail:
        choices = [j for j in choices if j != "tail"] or [1]
    j = rng.choice(choices)
    delta = Fraction(rng.randint(3, 9), 2) if wide else Fraction(rng.randint(1, 8), rng.randint(1, 9))
    delta *= rng.choice([1, -1])
    if j == "tail":
        cand = canon(carrier, [at(limit, i) for i in range(1, len(limit[0]) + 1)], limit[1] + delta)
        return cand, ["tail"]
    bump = vunit(carrier, j, delta)
    cand = zipmap(carrier, lambda a, b: a + b, limit, bump)
    return cand, [j]


def convergence_doc(rng, carrier, kind, variant):
    """variant: "true" limit, or a "narrow" or "wide" perturbation of it."""
    fam, limit = family(rng, carrier, kind)
    depth = rng.randint(1, 10)
    answer = {"kind": "convergence", "limit": vjson(carrier, limit),
              "true_limit": variant == "true"}
    if variant == "true":
        cand = limit
    else:
        wide = variant == "wide"
        # see KNOWN_DEFECT: a shift family is perturbed at a position only
        cand, differs = perturb(rng, carrier, limit, wide, tail=kind != "shift")
        answer["differs"] = differs
        answer["tau_refuted"] = wide
    task = {"convergence": {"family": fam, "limit": vjson(carrier, cand), "depth": depth}}
    return doc(carrier, task), answer


# A defect of ordertopo at the commit this benchmark was written against:
# order_converges refutes a shift family whose candidate differs from the
# limit only at the tail label with a Refutation at "tail" whose gap does not
# hold, because tail_profile(ShiftForm) follows the tail field rather than the
# far positions, which tend to the head.  The verdict is right; the evidence
# does not replay.  convergence_doc leaves that one combination out of the
# stream, so that `failed` gates regressions, and check.py runs this document
# on every run; run.py prints whether it still fails and counts it in the
# `known_defects` metric.  When it passes, drop the tail=False above.
KNOWN_DEFECT = (
    doc(("tailseq",), {"convergence": {
        "family": {"template": "shift", "head": "-4/3", "tail": "2"},
        "limit": {"prefix": [], "tail": "5/3"}, "depth": 1}}),
    {"kind": "convergence", "limit": {"prefix": [], "tail": "-4/3"}, "true_limit": False,
     "differs": ["tail"]},
)


def interval_convergence_doc(rng, carrier, kind, variant):
    fam, limit = family(rng, carrier, kind)
    depth = rng.randint(1, 10)
    if variant == "true":
        cand = limit
        if fam["template"] == "shift":
            gap = abs(Fraction(fam["tail"]) - Fraction(fam["head"]))
            want = ["confirmed"] if gap <= Fraction(1, depth) else ["inconclusive"]
        else:
            want = ["confirmed"]
    else:
        # wider than the widest chain interval: the hypothesis fails
        cand, _ = perturb(rng, carrier, limit, wide=True)
        want = ["inconclusive"]
    task = {"theorem": {"id": rng.choice(["t1", "interval-convergence"]), "family": fam,
                        "limit": vjson(carrier, cand), "depth": depth}}
    return doc(carrier, task), {"kind": "theorem", "conclusions": want}


# -- streams -----------------------------------------------------------------------
#
# The proportions below are a chosen design point, not measured traffic:
# ordertopo has no logged use to sample from.  Each kind gets a steady share
# so that every layer the workload names is exercised on every seed; the
# measured split of documents and time per class is in README.md.

SEARCH_PATTERN = [
    "closed", "nonclosed", "nonclosed", "nonopen", "closed", "solid", "nonclosed", "open",
    "band", "nonclosed", "nonopen", "nonsolid", "fit", "nonclosed", "closed", "nonopen",
    "band", "nonclosed", "open", "solid",
]

CONVERGE_PATTERN = [
    ("convergence", "true"), ("theorem", "true"), ("convergence", "narrow"),
    ("theorem", "true"), ("convergence", "wide"), ("theorem", "perturbed"),
    ("convergence", "true"), ("theorem", "true"), ("convergence", "wide"),
    ("theorem", "perturbed"),
]
# every cycle length is coprime to the others, so the kinds meet each other
# in fixed proportions and every seed gives the same mix of cheap and
# expensive documents
TEMPLATES = ["scale", "coord-decay", "explicit", "rsm:coord-decay", "shift", "scale",
             "coord-decay", "rsm:explicit", "rsm:scale", "coord-decay", "rsm:coord-decay"]
HARD = ["scale-1e3", "rsm2:explicit-200", "coord-decay-1e6", "rsm2:coord-decay", "scale-1e4",
        "rsm2:explicit-1000", "coord-decay-1e9", "rsm2:scale", "rsm2:explicit"]
HARD_EVERY = 37  # one measured-slow document in 37


def search_stream(seed: int, count: int):
    rng = random.Random(f"search:{seed}")
    out = []
    for i in range(count):
        slot, carrier = SEARCH_PATTERN[i % len(SEARCH_PATTERN)], carrier_at(i)
        if slot == "band":
            out.append(band_doc(rng, carrier))
        elif slot == "fit":
            out.append(fit_doc(rng, carrier))
        else:
            out.append(check_set_doc(rng, carrier, slot, i // len(SEARCH_PATTERN)))
    return out


def converge_stream(seed: int, count: int):
    rng = random.Random(f"converge:{seed}")
    out = []
    for i in range(count):
        carrier = carrier_at(i)
        kind = TEMPLATES[i % len(TEMPLATES)]
        if i % HARD_EVERY == HARD_EVERY - 1:
            kind = HARD[(i // HARD_EVERY) % len(HARD)]
        elif kind == "shift" and carrier[0] != "tailseq":
            kind = "explicit"
        task, variant = CONVERGE_PATTERN[i % len(CONVERGE_PATTERN)]
        build = convergence_doc if task == "convergence" else interval_convergence_doc
        document, answer = build(rng, carrier, kind, variant)
        if kind in HARD:
            answer["hard"] = True
        out.append((document, answer))
    return out


STREAMS = {"search": search_stream, "converge": converge_stream}

COMMAND_OF_TASK = {"check-set": "check-set", "convergence": "convergence", "fit": "fit",
                   "theorem": "theorems"}


def command_of(document) -> str:
    task = document.get("task")
    if isinstance(task, dict) and len(task) == 1:
        return COMMAND_OF_TASK.get(next(iter(task)), "check-set")
    return "check-set"


def dumps(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
