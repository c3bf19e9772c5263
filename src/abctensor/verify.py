"""Numeric verification suite: every bound, equality condition, and
extremal ordering becomes a check at desk scale.

Spectral estimates enter as certified brackets widened by ``SLACK``;
closed forms are bare floats with no error bound, met within a
tolerance.  So ``violated`` means a miss beyond those tolerances.

Every group of checks is a plan: the (graph, weighting) requests it
needs and a judgement of their estimates.  A public check solves its
own plan; ``default_suite`` gathers the plans of every group it runs
and solves all their requests in one ``spectral_radii`` call, which
steps the graphs of each edge size in lock step, before it judges.  Each bound
graph is requested once per weighting its judgements take.  Given a
name prefix the suite runs only the groups of checks whose names can
start with it.  No estimate is kept from one call to the next.  Every
extremal check is one judgement, ``_leader``, of the first of a ranked
class.  The hypertree scans of one edge size k are one plan, from one
growth up to their largest m; a leader is judged by the code growth
gave it against one code of its target's graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import closed_forms as cf
from .canon import canonical_code
from .generators import (
    ENUM_BUDGET,
    BudgetExceededError,
    complete,
    double_star,
    enumerate_small_unicyclic,
    example_h,
    hypercycle,
    hyperpath,
    hyperstar,
    hypertree_classes,
    power,
    unicyclic_family,
)
from .hypergraph import UniformHypergraph, classify, degrees
from .spectral import SolveOptions, SpectralEstimate, residual_of, spectral_radii
from .spectral import spectral_radius  # noqa: F401  (perfbench/spans.py wraps this binding)
from .tensor import TensorOperator, Weighting, edge_weights, k_unit

HOLDS = "holds"
EQUALITY = "equality-attained"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

SLACK = 1e-12  # absorbs last-ulp noise in interval comparisons


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    lhs: float
    rhs: float
    margin: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != VIOLATED


def _interval(est: SpectralEstimate) -> tuple[float, float]:
    return est.lower - SLACK, est.upper + SLACK


def _le(a: tuple[float, float], b: tuple[float, float]) -> str:
    """Status of the claim 'a <= b' given enclosing intervals."""
    if a[1] <= b[0]:
        return HOLDS
    if a[0] > b[1]:
        return VIOLATED
    return EQUALITY  # intervals overlap: equality within tolerance


def _run(plans, opts: Optional[SolveOptions] = None) -> list[CheckResult]:
    """Solve the requests of every (requests, judge) plan in one
    ``spectral_radii`` call, then judge each plan's estimates."""
    ests = iter(spectral_radii([r for reqs, _ in plans for r in reqs], opts or SolveOptions()))
    return [res for reqs, judge in plans for res in judge([next(ests) for _ in reqs])]


def _check(G: UniformHypergraph, name: str, opts) -> CheckResult:
    return _run([_bound_plan(G, name)], opts)[0]


# ----------------------------------------------------------------------
# Bound checks.


def check_edge_sum_bounds(G: UniformHypergraph, opts=None) -> CheckResult:
    """min_e (sum_{i in e} d_i - k)^(1/k) <= rho_abc <= max_e (...)^(1/k);
    both collapse to equalities iff edge degree sums are constant."""
    return _check(G, "edge-sum-bounds", opts)


def _edge_sum_bounds(G: UniformHypergraph, est: SpectralEstimate) -> CheckResult:
    sums = G.degree_array[G.edge_array].sum(axis=1) - G.k
    return _between("edge-sum-bounds", "edge sums constant", est, int(sums.min()), int(sums.max()), G.k)


def check_regular_corollary(G: UniformHypergraph, opts=None) -> CheckResult:
    """(k*delta - k)^(1/k) <= rho_abc <= (k*Delta - k)^(1/k); equalities iff regular."""
    return _check(G, "regular-corollary", opts)


def _regular_corollary(G: UniformHypergraph, est: SpectralEstimate) -> CheckResult:
    dv, k = degrees(G), G.k
    lo, hi = k * dv.min_degree - k, k * dv.max_degree - k
    return _between("regular-corollary", "regular", est, lo, hi, k)


def _between(
    name: str, label: str, est: SpectralEstimate, lo: int, hi: int, k: int
) -> CheckResult:
    """The claim lo^(1/k) <= rho <= hi^(1/k), attained with equality iff
    lo == hi; ``label`` names that condition in the detail."""
    lo_bound, hi_bound = lo ** (1.0 / k), hi ** (1.0 / k)
    ival = _interval(est)
    if ival[1] < lo_bound - SLACK or ival[0] > hi_bound + SLACK:
        status = VIOLATED
    else:
        status = EQUALITY if lo == hi else HOLDS
    return CheckResult(
        name=name,
        status=status,
        lhs=est.rho,
        rhs=hi_bound,
        margin=min(est.rho - lo_bound, hi_bound - est.rho),
        detail=f"bounds [{lo_bound:.12g}, {hi_bound:.12g}], {label}: {lo == hi}",
    )


def check_mean_bound(G: UniformHypergraph, opts=None) -> CheckResult:
    """rho_abc >= k! * abc_index / n, equality iff the per-vertex sums of
    omega^(1/k) over incident edges are constant."""
    return _check(G, "mean-bound", opts)


def _mean_bound(G: UniformHypergraph, est: SpectralEstimate) -> CheckResult:
    k = G.k
    weights = edge_weights(G, Weighting.ABC)
    index = sum(weights.tolist()) / math.factorial(k - 1)  # abc_index(G), bit for bit
    bound = math.factorial(k) * index / G.n
    row = np.bincount(G.edge_array.ravel(), np.repeat(weights, k), G.n)
    constant_rows = bool(row.max() - row.min() <= 1e-12 * max(1.0, row.max()))
    if _interval(est)[1] < bound - SLACK:
        status = VIOLATED
    elif constant_rows:
        status = EQUALITY
    else:
        status = HOLDS
    return CheckResult(
        name="mean-bound",
        status=status,
        lhs=est.rho,
        rhs=bound,
        margin=est.rho - bound,
        detail=f"constant row sums: {constant_rows}",
    )


def check_delta_bound(G: UniformHypergraph, opts=None) -> CheckResult:
    """rho_abc <= ((Delta-1)/Delta)^(1/k) * rho_adj (Delta >= 2), equality
    iff every edge has omega = (Delta-1)/Delta."""
    if degrees(G).max_degree < 2:
        raise ValueError("delta bound requires maximum degree >= 2")
    return _check(G, "delta-bound", opts)


def _delta_bound(
    G: UniformHypergraph, abc_est: SpectralEstimate, adj_est: SpectralEstimate
) -> CheckResult:
    k, cap = G.k, degrees(G).max_degree
    factor = ((cap - 1) / cap) ** (1.0 / k)
    lhs = _interval(abc_est)
    rhs = (factor * adj_est.lower - SLACK, factor * adj_est.upper + SLACK)
    rows = G.degree_array[G.edge_array].tolist()  # Python ints: exact products
    all_at_cap = all((sum(d) - k) * cap == (cap - 1) * math.prod(d) for d in rows)
    status = _le(lhs, rhs)
    if status != VIOLATED:
        status = EQUALITY if all_at_cap else HOLDS
    return CheckResult(
        name="delta-bound",
        status=status,
        lhs=abc_est.rho,
        rhs=factor * adj_est.rho,
        margin=factor * adj_est.rho - abc_est.rho,
        detail=f"all omega at (Delta-1)/Delta: {all_at_cap}",
    )


def check_power_relation(G: UniformHypergraph, k: int, opts=None) -> CheckResult:
    """rho_abc(G^k) equals rho_abc(G)^(r/k)."""
    return _run([_power_plan(G, k)], opts)[0]


def _power_plan(G: UniformHypergraph, k: int):
    r = G.k
    expo = r / k

    def judge(ests):
        base, lifted = ests
        lhs = (max(base.lower, 0.0) ** expo - SLACK, max(base.upper, 0.0) ** expo + SLACK)
        rhs = _interval(lifted)
        overlap = lhs[0] <= rhs[1] and rhs[0] <= lhs[1]
        return [CheckResult(
            name="power-relation",
            status=HOLDS if overlap else VIOLATED,
            lhs=lifted.rho,
            rhs=base.rho**expo,
            margin=abs(lifted.rho - base.rho**expo),
            detail=f"r={r}, k={k}",
        )]

    return [(G, Weighting.ABC), (power(G, k), Weighting.ABC)], judge


def check_randic_unit(G: UniformHypergraph, opts=None) -> CheckResult:
    """rho of the randic tensor is 1; x_i = d_i^(1/k) is an exact eigenvector."""
    return _check(G, "randic-unit", opts)


def _randic_unit(G: UniformHypergraph, est: SpectralEstimate) -> CheckResult:
    x = k_unit(G.degree_array ** (1.0 / G.k), G.k)
    res = residual_of(TensorOperator.from_weighting(G, Weighting.RANDIC), 1.0, x)
    ival = _interval(est)
    ok = ival[0] <= 1.0 <= ival[1] and res <= 1e-10
    return CheckResult(
        name="randic-unit",
        status=HOLDS if ok else VIOLATED,
        lhs=est.rho,
        rhs=1.0,
        margin=abs(est.rho - 1.0),
        detail=f"explicit eigenvector residual {res:.3e}",
    )


_BOUND_JUDGEMENTS = (
    ("delta-bound", _delta_bound, (Weighting.ABC, Weighting.ADJACENCY)),
    ("edge-sum-bounds", _edge_sum_bounds, (Weighting.ABC,)),
    ("regular-corollary", _regular_corollary, (Weighting.ABC,)),
    ("mean-bound", _mean_bound, (Weighting.ABC,)),
    ("randic-unit", _randic_unit, (Weighting.RANDIC,)),
)
"""Each bound check's name, its judgement, and the weightings of the
estimates the judgement takes, in the order it takes them."""


# ----------------------------------------------------------------------
# Extremal scans.


def _leader(
    name: str, ranked, is_target, closed: float, detail: str, floor: float = -math.inf
) -> CheckResult:
    """Whether the first of ``ranked``, (estimate, item) pairs by falling
    rho, passes ``is_target``, lies within max(1e-9, 10 * width) of the
    closed form ``closed`` and leads the runner-up by more than 1e-9.
    The margin is that lead, or rho - ``floor`` when it is alone."""
    (est, top), rest = ranked[0], ranked[1:]
    lead = est.rho - (rest[0][0].rho if rest else floor)
    close = abs(est.rho - closed) <= max(1e-9, 10 * est.width)
    ok = is_target(top) and close and (not rest or lead > 1e-9)
    return CheckResult(name, HOLDS if ok else VIOLATED, est.rho, closed, lead, detail)


def _code_of(form: str, m: int, k: int) -> bytes:
    """The canonical code of the named closed form's graph."""
    return canonical_code(cf.closed_form_graph(form, m=m, k=k))


def _is_graph_of(form: str, m: int, k: int):
    """A test of whether a graph is isomorphic to the named closed form's graph."""
    code = _code_of(form, m, k)
    return lambda G: canonical_code(G) == code


def _ranked(pairs) -> list:
    """(estimate, item) pairs by falling rho."""
    return sorted(pairs, key=lambda p: -p[0].rho)


def extremal_scan_hypertrees(m: int, k: int, opts=None) -> list[CheckResult]:
    """Enumerate hypertrees of size m, rank abc radii, and confirm:
    unique max S_{m,k}; unique second max D_{m,1}^k (m >= 4); unique
    non-power max S_{m,k;m-3,1,1} (k >= 3, m >= 4); maxima match their
    closed forms; consecutive ranks gap > 1e-9."""
    try:
        plan = _hypertree_plan([m], k)
    except BudgetExceededError as exc:
        nan = float("nan")
        return [CheckResult(f"hypertree-scan-max[m={m},k={k}]", INCONCLUSIVE, nan, nan, nan, str(exc))]
    return _run([plan], opts)


def _hypertree_plan(ms: list[int], k: int):
    """The hypertree scans of every size in ``ms`` at edge size k, from
    one growth up to the largest.  Each class is ranked as a (code, tree)
    item with its code from that growth."""
    levels = hypertree_classes(max(ms), k)
    classes = [sorted(levels[m - 1].items()) for m in ms]

    def judge(ests):
        ests = iter(ests)
        return [res for m, items in zip(ms, classes)
                for res in _hypertree_scan(m, k, _ranked([(next(ests), item) for item in items]))]

    return [(T, Weighting.ABC) for items in classes for _, T in items], judge


def _hypertree_scan(m: int, k: int, ranked) -> list[CheckResult]:
    """The judgements of the hypertree scan of size m, given its ranked
    (estimate, (code, tree)) pairs."""
    radii = "; ".join(f"{e.rho:.12f}" for e, _ in ranked)
    detail = f"classes={len(ranked)}; radii: {radii}"
    results = [_hypertree_leader("max", m, k, ranked, "hyperstar", detail, 0.0)]
    if m >= 4 and len(ranked) >= 2:
        detail = "second maximum is the lifted double star"
        results.append(_hypertree_leader("second", m, k, ranked[1:], "double-star-1", detail, -math.inf))
    if k >= 3 and m >= 4:
        non_power = [(est, item) for est, item in ranked if classify(item[1]).power_hypertree is False]
        if non_power:
            detail = f"non-power classes={len(non_power)}"
            results.append(_hypertree_leader("nonpower", m, k, non_power, "s311", detail, -math.inf))
    return results


def _hypertree_leader(kind: str, m: int, k: int, ranked, form: str, detail: str, floor: float) -> CheckResult:
    """``_leader`` of ranked (estimate, (code, tree)) pairs, whose target
    is the named closed form's graph: one code of that graph against the
    leader's code from growth."""
    closed = cf.closed_form(form, m=m, k=k)
    code = _code_of(form, m, k)
    name = f"hypertree-scan-{kind}[m={m},k={k}]"
    return _leader(name, ranked, lambda item: item[0] == code, closed, detail, floor)


def _partitions_desc(total: int, slots: int):
    """Weakly decreasing nonnegative tuples of length `slots` summing to total."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _partitions_desc(total - first, slots - 1):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _u_compositions(total: int, k: int):
    """Compositions of `total` into k parts, one canonical representative
    per symmetry class of the attachment positions: the two cycle joints
    (first and last slot) are swappable and the middles permutable."""
    out = []
    for e1 in range(total, -1, -1):
        for e2 in range(min(e1, total - e1), -1, -1):
            for mid in _partitions_desc(total - e1 - e2, k - 2):
                out.append((e1,) + mid + (e2,))
    return out


def extremal_scan_unicyclic_family(m: int, k: int, g: int, opts=None) -> list[CheckResult]:
    """Over all compositions a of m-g, confirm the unique maximizer of
    rho_abc(U_{m,k,g}(a)) is a = (m-g, 0, ..., 0) and its value matches
    the closed form."""
    return _run([_unicyclic_plan(m, k, g)], opts)


def _unicyclic_plan(m: int, k: int, g: int):
    comps = _u_compositions(m - g, k)
    want = (m - g,) + (0,) * (k - 1)
    closed = cf.closed_form("u2" if g == 2 else "u3", m=m, k=k)
    name = f"unicyclic-scan[m={m},k={k},g={g}]"

    def judge(ests):
        ranked = _ranked(zip(ests, comps))
        table = "; ".join(f"{e.rho:.10f}@a={a}" for e, a in ranked)
        return [_leader(name, ranked, lambda a: a == want, closed, f"members={len(ranked)}; {table}")]

    return [(unicyclic_family(m, k, g, a), Weighting.ABC) for a in comps], judge


def check_unicyclic_global_max(m: int, k: int, opts=None) -> CheckResult:
    """Scan all unicyclic shapes (small m): the maximum abc radius is
    attained exactly at U_{m,2}^(k), with value (m-1+2/m)^(1/k), and
    leads the runner-up by more than 1e-9."""
    shapes = enumerate_small_unicyclic(m, k)
    ranked = _ranked(zip(spectral_radii([(G, Weighting.ABC) for G in shapes], opts or SolveOptions()), shapes))
    closed = cf.closed_form("u2", m=m, k=k)
    name = f"unicyclic-global-max[m={m},k={k}]"
    return _leader(name, ranked, _is_graph_of("u2", m, k), closed, f"shapes={len(shapes)}")


# ----------------------------------------------------------------------
# Worked examples.


_WORKED_EXAMPLES = (
    (1, lambda t: t**3 - math.sqrt(3.0 / 4.0) * t**1.5 - 0.5,
     6, 3, (-0.366025, 0.07559), None),
    (2, lambda t: t**4 - (5.0 / 8.0) ** (1.0 / 3.0) * t ** (8.0 / 3.0) - 0.5,
     12, 4, (-0.35499, 0.08894), 3),
)
"""Each worked example's index, the univariate reduction f of its
eigen-equation, the hyperpath P_{m,k} it lies below, the tabulated
f(1) and f(rho(P_{m,k})), and the other edge size whose reading of
P_{m,k} is also reported, if any."""


def run_worked_examples(opts=None) -> list[CheckResult]:
    """Rebuild the two pendant-expanded hyperstars, verify the univariate
    reductions of their eigen-equations, the four tabulated values, and
    the strict comparisons against hyperpath radii."""
    return _run([_worked_plan()], opts)


def _worked_plan():
    return [(example_h(ex[0]), Weighting.ABC) for ex in _WORKED_EXAMPLES], _worked_judge


def _worked_judge(ests) -> list[CheckResult]:
    results = []
    for (idx, f, m, k, expect, alt_k), est in zip(_WORKED_EXAMPLES, ests):
        path = cf.closed_form("hyperpath", m=m, k=k)
        vals = (f(1.0), f(path))
        below = est.upper + SLACK < path
        tabulated = all(abs(v - e) <= 5e-5 for v, e in zip(vals, expect))
        ok = abs(f(est.rho)) <= 1e-6 and tabulated and below
        detail = f"f(rho)={f(est.rho):.2e}; f(1)={vals[0]:.6f}; f(path)={vals[1]:.5f}"
        if alt_k:
            alt = est.upper + SLACK < cf.closed_form("hyperpath", m=m, k=alt_k)
            detail += (
                f"; {k}-uniform reading holds: {below}; {alt_k}-uniform reading holds: {alt} "
                f"(the comparison target is the {k}-uniform hyperpath P_{m},{k}; "
                f"the {alt_k}-uniform reading is reported for completeness)"
            )
        name = f"worked-example-{idx}"
        status = HOLDS if ok else VIOLATED
        results.append(CheckResult(name, status, est.rho, path, path - est.rho, detail))
    return results


# ----------------------------------------------------------------------
# Suite driver.


def _wanted(prefix: str, stem: str) -> bool:
    """Whether a check name that starts with ``stem`` can start with ``prefix``."""
    return stem.startswith(prefix) or prefix.startswith(stem)


def _bound_plan(G: UniformHypergraph, prefix: str):
    """The plan of the bound checks on G whose names start with
    ``prefix``: one request per weighting their judgements take."""
    judgements = [
        (judge, ws) for name, judge, ws in _BOUND_JUDGEMENTS
        if name.startswith(prefix) and (name != "delta-bound" or degrees(G).max_degree >= 2)
    ]
    weightings = list(dict.fromkeys(w for _, ws in judgements for w in ws))

    def judge(ests):
        by_weighting = dict(zip(weightings, ests))
        return [j(G, *(by_weighting[w] for w in ws)) for j, ws in judgements]

    return [(G, w) for w in weightings], judge


def default_suite(
    m: Optional[int] = None,
    k: Optional[int] = None,
    g: Optional[int] = None,
    prefix: str = "",
) -> list[CheckResult]:
    """Run every check over a desk-scale grid (or a single (m, k, g)),
    sorted by name.

    Every (graph, weighting) the run groups need is solved in one
    ``spectral_radii`` call before any judgement; nothing is kept between
    calls.  Only the groups of checks whose names can start with
    ``prefix`` are run, and only the checks whose names do are returned,
    so the result equals the full suite filtered by that prefix.
    """
    if g not in (None, 2, 3):
        raise ValueError("g must be 2 or 3")
    ms = [m] if m is not None else list(range(3, 9))
    ks = [k] if k is not None else [2, 3, 4]
    gs = [g] if g is not None else [2, 3]

    bound_graphs: list[UniformHypergraph] = []
    for mm in ms:
        for kk in ks:
            bound_graphs.append(hyperstar(mm, kk))
            bound_graphs.append(hyperpath(mm, kk))
            if kk >= 3 and mm >= 2:
                bound_graphs.append(hypercycle(mm, kk))
            if mm >= 4 and kk >= 3:
                bound_graphs.append(cf.closed_form_graph("s311", m=mm, k=kk))
    bound_graphs.append(complete(4, 3))
    bound_graphs.append(complete(5, 2))
    plans = [_bound_plan(G, prefix) for G in bound_graphs]

    if _wanted(prefix, "power-relation"):
        plans += [_power_plan(double_star(mm, 1), max(3, max(ks))) for mm in ms if mm >= 3]
    for kk in ks:
        if kk >= 3:
            tree_ms = [mm for mm in ms if mm <= ENUM_BUDGET.get(kk, 4)]
            if tree_ms and _wanted(prefix, "hypertree-scan-"):
                plans.append(_hypertree_plan(tree_ms, kk))
            for mm in ms:
                for gg in gs:
                    if gg <= mm <= 7 and _wanted(prefix, "unicyclic-scan["):
                        plans.append(_unicyclic_plan(mm, kk, gg))
    if _wanted(prefix, "worked-example-"):
        plans.append(_worked_plan())
    results = _run(plans)
    return sorted((r for r in results if r.name.startswith(prefix)), key=lambda r: r.name)
