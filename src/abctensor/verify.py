"""Numeric verification suite: every bound, equality condition, and
extremal ordering becomes a check at desk scale.

Each bound check, and the power lift, states a claim lo <= rho <= hi
that ``_claim`` compares with a certified bracket: the bracket is
widened by ``SLACK`` once on each side, the claim's bounds are used as
computed, and ``violated`` means the two miss each other.  Closed
forms are bare floats with no error bound, met within a tolerance.

Every group of checks is a plan: the (graph, weighting) requests it
needs and a judgement of their estimates.  ``check_bounds``,
``check_power_relation`` and ``check_theorem`` each run one plan;
``default_suite`` gathers the plans of every group it runs and solves
all their requests in one ``spectral_radii`` call, which steps the
graphs of each edge size in lock step, before it judges.  Each bound
graph is requested once per weighting its judgements take.  Given a
name prefix the suite runs only the groups of checks whose names can
start with it.  No estimate is kept from one call to the next.

``THEOREMS`` states each extremal result of the paper once.  One plan
serves every row: it builds each class once for all its m (the
hypertrees of one edge size from one growth), solves each graph once,
and judges each row with ``_leader``, by the keys its class gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import closed_forms as cf
from .canon import canonical_code
from .generators import (
    ENUM_BUDGET,
    complete,
    double_star,
    example_h,
    hypercycle,
    hyperpath,
    hyperstar,
    hypertree_classes,
    power,
    unicyclic_classes,
    unicyclic_family,
)
from .hypergraph import UniformHypergraph, classify, degrees
from .spectral import SolveOptions, SpectralEstimate, _is_int, residual_of, spectral_radii
from .spectral import spectral_radius  # noqa: F401  (perfbench/spans.py wraps this binding)
from .tensor import TensorOperator, Weighting, edge_weights, k_unit

HOLDS = "holds"
EQUALITY = "equality-attained"
VIOLATED = "violated"

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


def _run(plans, opts: Optional[SolveOptions] = None) -> list[CheckResult]:
    """Solve the requests of every (requests, judge) plan in one
    ``spectral_radii`` call, then judge each plan's estimates."""
    ests = iter(spectral_radii([r for reqs, _ in plans for r in reqs], opts or SolveOptions()))
    return [res for reqs, judge in plans for res in judge([next(ests) for _ in reqs])]


# ----------------------------------------------------------------------
# Bound checks.


def check_bounds(G: UniformHypergraph, prefix: str = "", opts=None) -> list[CheckResult]:
    """The bound checks on G whose names start with ``prefix``, in the
    order of ``_BOUND_JUDGEMENTS``; there is no ``delta-bound`` record
    when the maximum degree is below 2."""
    return _run([_bound_plan(G, prefix)], opts)


def _claim(
    name: str, est: SpectralEstimate, lo: float, hi: float, equal: bool, rhs: float, margin: float, detail: str
) -> CheckResult:
    """The claim lo <= rho <= hi on the rho that ``est`` brackets, met
    with equality iff ``equal``.  It is violated when the bracket widened
    by SLACK on each side misses [lo, hi], which is used as computed."""
    if est.upper + SLACK < lo or est.lower - SLACK > hi:
        return CheckResult(name, VIOLATED, est.rho, rhs, margin, detail)
    return CheckResult(name, EQUALITY if equal else HOLDS, est.rho, rhs, margin, detail)


def _edge_sum_bounds(name: str, G: UniformHypergraph, est: SpectralEstimate) -> CheckResult:
    """min_e (sum_{i in e} d_i - k)^(1/k) <= rho_abc <= max_e (...)^(1/k);
    both collapse to equalities iff edge degree sums are constant."""
    sums = G.degree_array[G.edge_array].sum(axis=1) - G.k
    return _between(name, "edge sums constant", est, int(sums.min()), int(sums.max()), G.k)


def _regular_corollary(name: str, G: UniformHypergraph, est: SpectralEstimate) -> CheckResult:
    """(k*delta - k)^(1/k) <= rho_abc <= (k*Delta - k)^(1/k); equalities iff regular."""
    dv, k = degrees(G), G.k
    lo, hi = k * dv.min_degree - k, k * dv.max_degree - k
    return _between(name, "regular", est, lo, hi, k)


def _between(
    name: str, label: str, est: SpectralEstimate, lo: int, hi: int, k: int
) -> CheckResult:
    """The claim lo^(1/k) <= rho <= hi^(1/k), attained with equality iff
    lo == hi; ``label`` names that condition in the detail."""
    lo_bound, hi_bound = lo ** (1.0 / k), hi ** (1.0 / k)
    margin = min(est.rho - lo_bound, hi_bound - est.rho)
    detail = f"bounds [{lo_bound:.12g}, {hi_bound:.12g}], {label}: {lo == hi}"
    return _claim(name, est, lo_bound, hi_bound, lo == hi, hi_bound, margin, detail)


def _mean_bound(name: str, G: UniformHypergraph, est: SpectralEstimate) -> CheckResult:
    """rho_abc >= k! * abc_index / n, equality iff the per-vertex sums of
    omega^(1/k) over incident edges are constant."""
    k = G.k
    weights = edge_weights(G, Weighting.ABC)
    index = sum(weights.tolist()) / math.factorial(k - 1)  # abc_index(G), bit for bit
    bound = math.factorial(k) * index / G.n
    row = np.bincount(G.edge_array.ravel(), np.repeat(weights, k), G.n)
    constant_rows = bool(row.max() - row.min() <= 1e-12 * max(1.0, row.max()))
    return _claim(name, est, bound, math.inf, constant_rows, bound, est.rho - bound,
                  f"constant row sums: {constant_rows}")


def _delta_bound(
    name: str, G: UniformHypergraph, abc_est: SpectralEstimate, adj_est: SpectralEstimate
) -> CheckResult:
    """rho_abc <= ((Delta-1)/Delta)^(1/k) * rho_adj (Delta >= 2), equality
    iff every edge has omega = (Delta-1)/Delta."""
    k, cap = G.k, degrees(G).max_degree
    factor = ((cap - 1) / cap) ** (1.0 / k)
    rows = G.degree_array[G.edge_array].tolist()  # Python ints: exact products
    all_at_cap = all((sum(d) - k) * cap == (cap - 1) * math.prod(d) for d in rows)
    rhs = factor * adj_est.rho
    return _claim(name, abc_est, -math.inf, factor * adj_est.upper, all_at_cap, rhs, rhs - abc_est.rho,
                  f"all omega at (Delta-1)/Delta: {all_at_cap}")


def check_power_relation(G: UniformHypergraph, k: int, opts=None) -> CheckResult:
    """rho_abc(G^k) equals rho_abc(G)^(r/k)."""
    return _run([_power_plan(G, k)], opts)[0]


def _power_plan(G: UniformHypergraph, k: int):
    r = G.k
    expo = r / k

    def judge(ests):
        base, lifted = ests
        lo, hi = max(base.lower, 0.0) ** expo, max(base.upper, 0.0) ** expo
        rhs = base.rho**expo
        return [_claim("power-relation", lifted, lo, hi, False, rhs, abs(lifted.rho - rhs), f"r={r}, k={k}")]

    return [(G, Weighting.ABC), (power(G, k), Weighting.ABC)], judge


def _randic_unit(name: str, op: TensorOperator, est: SpectralEstimate) -> CheckResult:
    """rho of the Randić tensor ``op`` is 1; x_i = d_i^(1/k) is an exact eigenvector."""
    G = op.G
    x = k_unit(G.degree_array ** (1.0 / G.k), G.k)
    res = residual_of(op, 1.0, x)
    claim = _claim(name, est, 1.0, 1.0, False, 1.0, abs(est.rho - 1.0), f"explicit eigenvector residual {res:.3e}")
    return claim if res <= 1e-10 else replace(claim, status=VIOLATED)


_BOUND_JUDGEMENTS = (
    ("delta-bound", _delta_bound, (Weighting.ABC, Weighting.ADJACENCY)),
    ("edge-sum-bounds", _edge_sum_bounds, (Weighting.ABC,)),
    ("regular-corollary", _regular_corollary, (Weighting.ABC,)),
    ("mean-bound", _mean_bound, (Weighting.ABC,)),
    ("randic-unit", _randic_unit, (Weighting.RANDIC,)),
)
"""Each bound check's name, its judgement, which takes that name, the
graph (for ``randic-unit``, its Randić operator) and estimates and
returns the record, and the weightings of the estimates, in the order it
takes them."""


def _bound_plan(G: UniformHypergraph, prefix: str):
    """The plan of the bound checks on G whose names start with
    ``prefix``: one request per weighting their judgements take.  The
    Randić request is an operator, so its solve starts uniform, not at
    the eigenvector ``randic-unit`` checks; that judgement reuses it."""
    judgements = [
        (name, judge, ws) for name, judge, ws in _BOUND_JUDGEMENTS
        if name.startswith(prefix) and (name != "delta-bound" or degrees(G).max_degree >= 2)
    ]
    requests = {
        w: TensorOperator.from_weighting(G, w) if w is Weighting.RANDIC else (G, w)
        for _, _, ws in judgements for w in ws
    }

    def judge(ests):
        by_weighting = dict(zip(requests, ests))
        return [j(name, requests[Weighting.RANDIC] if j is _randic_unit else G, *(by_weighting[w] for w in ws))
                for name, j, ws in judgements]

    return list(requests.values()), judge


# ----------------------------------------------------------------------
# Extremal theorems.


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


def _u_compositions(total: int, k: int):
    """Compositions of `total` into k parts, one canonical representative
    per symmetry class of the attachment positions: the two cycle joints
    (first and last slot) are swappable and the middles permutable, so
    the first joint takes the larger end and the middles fall weakly."""
    out = []
    for e1 in range(total, -1, -1):
        for e2 in range(min(e1, total - e1), -1, -1):
            rest = total - e1 - e2
            mids = combinations_with_replacement(range(rest, -1, -1), k - 2)
            out += [(e1, *mid, e2) for mid in mids if sum(mid) == rest]
    return out


def _hypertrees(ms, k, g):
    levels = hypertree_classes(max(ms), k)
    return {m: sorted(levels[m - 1].items()) for m in ms}


class _Class(NamedTuple):
    """A class a theorem ranges over: ``members(ms, k, g)`` gives, for
    each m of ``ms``, its (key, graph) pairs in ranking order, and
    ``key(target, m, k, g)`` the key of the closed form ``target``'s
    graph at (m, k, g)."""

    members: Callable
    key: Callable


def _target_code(target: str, m: int, k: int, g) -> bytes:
    """The canonical code of the closed form ``target``'s graph at (m, k),
    looked up per call so that tracing sees it."""
    return canonical_code(cf.closed_form_graph(target, m=m, k=k))


# Hypertrees and unicyclic shapes, one per isomorphism class, are keyed
# by canonical code; the U_{m,k,g}(a), one per composition a of m-g, by
# a, and the target U_{m,k,g}(m-g, 0, ..., 0) by that a, with no build.
HYPERTREES = _Class(_hypertrees, _target_code)
UNICYCLIC = _Class(lambda ms, k, g: {m: sorted(unicyclic_classes(m, k).items()) for m in ms}, _target_code)
U_FAMILY = _Class(lambda ms, k, g: {m: [(a, unicyclic_family(m, k, g, a)) for a in _u_compositions(m - g, k)]
                                    for m in ms}, lambda target, m, k, g: (m - g, *(0,) * (k - 1)))


def _radii(ranked) -> str:
    return f"classes={len(ranked)}; radii: " + "; ".join(f"{e.rho:.12f}" for e, _ in ranked)


def _u_table(ranked) -> str:
    return f"members={len(ranked)}; " + "; ".join(f"{e.rho:.10f}@a={a}" for e, a in ranked)


@dataclass(frozen=True)
class Theorem:
    """Over the members of ``cls`` at (m, k) that pass ``keep`` (all when
    None), the abc radius has a unique maximum, at the graph of the closed
    form ``target``, wherever ``applies(m, k)``.  ``detail`` writes a
    check's detail from its ranked (estimate, key) pairs; ``floor``
    stands in for the runner-up of a lone member."""

    stem: str
    cls: _Class
    keep: Optional[Callable[[UniformHypergraph], bool]]
    target: str
    applies: Callable[[int, int], bool]
    detail: Callable[[list], str]
    floor: float = -math.inf
    g: Optional[int] = None

    def name(self, m: int, k: int) -> str:
        return f"{self.stem}[m={m},k={k}" + ("" if self.g is None else f",g={self.g}") + "]"


THEOREMS = (
    # The hyperstar S_{m,k} is the unique maximum over the hypertrees.
    Theorem("hypertree-scan-max", HYPERTREES, None, "hyperstar",
            lambda m, k: m >= 1 and k >= 3, _radii, floor=0.0),
    # The lifted double star D_{m,1}^k is the unique second maximum: the
    # maximum over the hypertrees that are not hyperstars (max degree < m).
    Theorem("hypertree-scan-second", HYPERTREES, lambda G: max(G.degree_list) < G.m, "double-star-1",
            lambda m, k: m >= 4 and k >= 3, lambda r: "second maximum is the lifted double star"),
    # S_{m,k;m-3,1,1} is the unique maximum over the hypertrees that are
    # not the power of a tree.
    Theorem("hypertree-scan-nonpower", HYPERTREES, lambda G: classify(G).power_hypertree is False, "s311",
            lambda m, k: m >= 4 and k >= 3, lambda r: f"non-power classes={len(r)}"),
    # Over the compositions a of m-g, U_{m,k,g}(a) is the unique maximum
    # at a = (m-g, 0, ..., 0), for g = 2 and g = 3.
    Theorem("unicyclic-scan", U_FAMILY, None, "u2", lambda m, k: m >= 2 and k >= 3, _u_table, g=2),
    Theorem("unicyclic-scan", U_FAMILY, None, "u3", lambda m, k: m >= 3 and k >= 3, _u_table, g=3),
    # U_{m,2}^(k), with value (m-1+2/m)^(1/k), is the unique maximum over
    # every unicyclic shape.
    Theorem("unicyclic-global-max", UNICYCLIC, None, "u2",
            lambda m, k: m >= 2 and k >= 3, lambda r: f"shapes={len(r)}"),
    # U_{m,3}^(k) is the unique maximum over the linear unicyclic shapes
    # (girth >= 3).
    Theorem("linear-unicyclic-global-max", UNICYCLIC, lambda G: classify(G).linear, "u3",
            lambda m, k: m >= 3 and k >= 3, lambda r: f"linear shapes={len(r)}"),
)
"""The paper's extremal results, each stated once."""


def check_theorem(name: str, m: int, k: int, g: Optional[int] = None, opts=None) -> CheckResult:
    """The check of the ``THEOREMS`` row with stem ``name`` (and ``g``,
    for ``unicyclic-scan``) at (m, k); ValueError where no row applies,
    BudgetExceededError for a hypertree row past ``ENUM_BUDGET``."""
    rows = [row for row in THEOREMS if row.stem == name and row.g == g and row.applies(m, k)]
    if not rows:
        raise ValueError(f"no theorem {name!r} with g={g} applies at m={m}, k={k}")
    return _run([_theorem_plan(rows, [m], k)], opts)[0]


def _theorem_plan(rows, ms: list[int], k: int):
    """The checks of ``rows`` at edge size k, at each m of ``ms`` where
    they apply.  Each class is built once for all its m and each of its
    graphs solved once; each row ranks the members that pass its filter
    and judges the first by the key its class gives the target."""
    cases = [(m, row) for m in ms for row in rows if row.applies(m, k)]
    wanted: dict = {}
    for m, row in cases:
        wanted.setdefault((row.cls, row.g), {})[m] = None
    members = {(m, cls, g): dict(items) for (cls, g), found in wanted.items()
               for m, items in cls.members(list(found), k, g).items()}

    def judge(ests):
        ests = iter(ests)
        ranked = {at: sorted(((next(ests), key) for key in graph), key=lambda p: -p[0].rho)
                  for at, graph in members.items()}
        results = []
        for m, row in cases:
            at = (m, row.cls, row.g)
            graph = members[at]
            kept = [(e, key) for e, key in ranked[at] if row.keep is None or row.keep(graph[key])]
            target = row.cls.key(row.target, m, k, row.g)
            closed = cf.closed_form(row.target, m=m, k=k)
            results.append(_leader(row.name(m, k), kept, lambda key: key == target, closed,
                                   row.detail(kept), row.floor))
        return results

    return [(G, Weighting.ABC) for graph in members.values() for G in graph.values()], judge


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


def _worked_judge(ests) -> list[CheckResult]:
    """The two pendant-expanded hyperstars: the univariate reductions of
    their eigen-equations, the four tabulated values, and the strict
    comparisons against hyperpath radii."""
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
    so the result equals the full suite filtered by that prefix.  An m, k
    or g that is not an integer (a bool is not) raises ValueError naming
    it before any graph is built.
    """
    for name, value in (("m", m), ("k", k), ("g", g)):
        if value is not None and not _is_int(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if m is not None and m < 1:
        raise ValueError(f"m must be >= 1, not {m}")
    if k is not None and k < 2:
        raise ValueError(f"k must be >= 2, not {k}")
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
    # The hypertrees up to their enumeration budget and the U family up
    # to m = 7; the scans over every unicyclic shape are not in the suite.
    rows = [row for row in THEOREMS if _wanted(prefix, row.stem + "[") and row.g in (None, *gs)]
    for kk in ks:
        for cls, cap in ((HYPERTREES, ENUM_BUDGET.get(kk, 4)), (U_FAMILY, 7)):
            plans.append(_theorem_plan([r for r in rows if r.cls is cls], [mm for mm in ms if mm <= cap], kk))
    if _wanted(prefix, "worked-example-"):
        plans.append(([(example_h(ex[0]), Weighting.ABC) for ex in _WORKED_EXAMPLES], _worked_judge))
    results = _run(plans)
    return sorted((r for r in results if r.name.startswith(prefix)), key=lambda r: r.name)
