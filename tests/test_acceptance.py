"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import time

import numpy as np
import pytest

import abctensor as ab
from abctensor import closed_forms as cf
from abctensor import generators as gen
from abctensor import verify as ver
from abctensor.spectral import spectral_radius
from abctensor.tensor import TensorOperator, Weighting, k_unit
from helpers import dense_form

ABC = Weighting.ABC
ADJ = Weighting.ADJACENCY
RND = Weighting.RANDIC


def _report(tag, ok, extra=""):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} {extra}")
    assert ok


def test_criterion_1_hyperstar_exactness():
    t0 = time.time()
    worst = 0.0
    for k in (2, 3, 4):
        for m in range(1, 13):
            est = spectral_radius(gen.hyperstar(m, k), ABC)
            worst = max(worst, abs(est.rho - (m - 1) ** (1.0 / k)))
    elapsed = time.time() - t0
    _report(
        "C1 hyperstar exactness (m 1..12, k 2..4)",
        worst <= 1e-7 and elapsed < 5.0,
        f"worst |err|={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_closed_forms_vs_oracle():
    t0 = time.time()
    grid = {"m": range(1, 11), "k": (2, 3, 4), "n": range(3, 8), "idx": (1, 2, 3, 4)}
    cases = 0
    worst = ("", 0.0)
    for name, closed in cf.CLOSED_FORMS.items():
        for point in itertools.product(*(grid[p] for p in closed.params)):
            params = dict(zip(closed.params, point))
            if not closed.admits(**params):
                continue
            cases += 1
            val = cf.closed_form(name, **params)
            est = spectral_radius(cf.closed_form_graph(name, **params), closed.weighting)
            rel = abs(est.rho - val) / max(1.0, abs(val))
            if rel > worst[1]:
                worst = (f"{name}{params}", rel)
    elapsed = time.time() - t0
    _report(
        f"C2 closed forms vs oracle ({cases} cases)",
        worst[1] <= 1e-7 and elapsed < 60.0,
        f"worst rel err {worst[1]:.2e} at {worst[0]}, {elapsed:.1f}s",
    )


def test_criterion_3_randic_unit():
    graphs = []
    seed = 0
    while len(graphs) < 50:
        k = 3 if seed % 2 == 0 else 4
        m = 2 + seed % 9  # m <= 10
        graphs.append(gen.random_hypertree(m, k, seed=seed))
        seed += 1
    graphs += [
        gen.hyperstar(6, 3),
        gen.hyperpath(5, 4),
        gen.hypercycle(4, 3),
        gen.complete(5, 3),
        gen.double_star(6, 2),
        gen.power(gen.double_star(5, 1), 4),
        gen.s_composition(6, 3, (3, 1, 1)),
        gen.unicyclic_family(5, 3, 2, (3, 0, 0)),
        gen.t_family(6, 3),
        gen.example_h(1),
    ]
    worst = 0.0
    for G in graphs:
        est = spectral_radius(G, RND)
        worst = max(worst, abs(est.rho - 1.0))
    _report(
        f"C3 randic unit ({len(graphs)} graphs)", worst <= 1e-8, f"worst |rho-1|={worst:.2e}"
    )


def test_criterion_4_bound_suite():
    t0 = time.time()
    family_graphs = [
        gen.hyperstar(5, 3),
        gen.hyperstar(8, 2),
        gen.hyperpath(6, 3),
        gen.hyperpath(4, 4),
        gen.hypercycle(3, 3),
        gen.hypercycle(4, 4),
        gen.complete(4, 3),
        gen.complete(5, 2),
        gen.double_star(6, 2),
        gen.power(gen.double_star(5, 1), 3),
        gen.s_composition(6, 3, (3, 1, 1)),
        gen.s_composition(5, 4, (2, 1, 1, 0)),
        gen.unicyclic_family(5, 3, 2, (3, 0, 0)),
        gen.unicyclic_family(6, 3, 3, (1, 1, 1)),
        gen.t_family(6, 1),
        gen.t_family(7, 4),
        gen.example_h(1),
        gen.example_h(2),
    ]
    random_graphs = []
    seed = 0
    while len(random_graphs) < 100:
        k = (2, 3, 4)[seed % 3]
        m = 2 + seed % 7
        G = gen.random_connected_hypergraph(m, k, seed=seed)
        random_graphs.append(G)
        seed += 1

    statuses = {}
    for G in family_graphs + random_graphs:
        # check_bounds gives no delta-bound record where the maximum degree is below 2.
        results = [r for name in ("edge-sum-bounds", "regular-corollary", "mean-bound", "delta-bound")
                   for r in ver.check_bounds(G, name)]
        for r in results:
            assert r.ok, (r.name, G.edges, r)
        statuses[id(G)] = {r.name: r.status for r in results}

    # Documented equality cases.
    eq_expect = [
        (gen.hyperstar(5, 3), "edge-sum-bounds"),
        (gen.hyperstar(5, 3), "delta-bound"),
        (gen.hypercycle(4, 3), "edge-sum-bounds"),
        (gen.hypercycle(4, 3), "delta-bound"),
        (gen.complete(4, 3), "edge-sum-bounds"),
        (gen.complete(4, 3), "regular-corollary"),
        (gen.complete(4, 3), "mean-bound"),
    ]
    eq_ok = all(ver.check_bounds(G, name)[0].status == ver.EQUALITY for G, name in eq_expect)
    elapsed = time.time() - t0
    _report(
        f"C4 bound suite ({len(family_graphs)} families + {len(random_graphs)} random)",
        eq_ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_5_power_lift():
    bases = [
        gen.cycle_graph(3),
        gen.double_star(5, 1),
        gen.double_star(7, 2),
        gen.hyperpath(5, 2),
        gen.s_composition(4, 3, (1, 1, 1)),
    ]
    worst = 0.0
    for G in bases:
        base = spectral_radius(G, ABC)
        r = G.k
        for k in (3, 4, 5):
            if k < r:
                continue
            lifted = spectral_radius(gen.power(G, k), ABC)
            worst = max(worst, abs(lifted.rho - base.rho ** (r / k)))
    _report("C5 power lift", worst <= 1e-7, f"worst |err|={worst:.2e}")


def test_criterion_6_extremal_scans():
    t0 = time.time()
    all_ok = True
    details = []
    for k, ms in ((3, (4, 5, 6)), (4, (4, 5))):
        for m in ms:
            results = ver.default_suite(m=m, k=k, prefix="hypertree-scan-")
            names = {r.name.split("[")[0] for r in results}
            assert "hypertree-scan-max" in names
            assert "hypertree-scan-second" in names
            assert "hypertree-scan-nonpower" in names
            ok = all(r.ok for r in results)
            all_ok = all_ok and ok
            details.append(f"(m={m},k={k}):{'ok' if ok else 'FAIL'}")
    elapsed = time.time() - t0
    _report(
        "C6 hypertree extremal scans",
        all_ok and elapsed < 600.0,
        f"{' '.join(details)}, {elapsed:.1f}s",
    )


def test_criterion_7_unicyclic_scans():
    all_ok = True
    for g in (2, 3):
        for m in range(3, 8):
            r = ver.check_theorem("unicyclic-scan", m, 3, g)
            all_ok = all_ok and r.ok
    _report("C7 unicyclic family scans (k=3, g=2,3, m=3..7)", all_ok)


def test_criterion_8_worked_example_numerics():
    f1 = lambda t: t**3 - math.sqrt(3 / 4) * t**1.5 - 0.5  # noqa: E731
    f2 = lambda t: t**4 - (5 / 8) ** (1 / 3) * t ** (8 / 3) - 0.5  # noqa: E731
    path63 = cf.rho_abc_hyperpath(6, 3)
    path124 = cf.rho_abc_hyperpath(12, 4)
    printed = [
        (f1(1.0), -0.366025),
        (f1(path63), 0.07559),
        (f2(1.0), -0.35499),
        (f2(path124), 0.08894),
    ]
    nums_ok = all(abs(got - want) <= 5e-5 for got, want in printed)
    h1 = spectral_radius(gen.example_h(1), ABC)
    h2 = spectral_radius(gen.example_h(2), ABC)
    ineq_ok = h1.upper < path63 and h2.upper < path124
    _report(
        "C8 worked-example numerics and strict comparisons",
        nums_ok and ineq_ok,
        f"rho(H1)={h1.rho:.6f} < {path63:.6f}; rho(H2)={h2.rho:.6f} < {path124:.6f}",
    )


def test_criterion_9_dense_oracle_equivalence():
    rng = np.random.default_rng(123)
    count = 0
    worst = 0.0
    seed = 0
    while count < 20:
        seed += 1
        G = gen.random_connected_hypergraph(1 + seed % 6, 3, seed=seed)
        if G.n > 8:
            continue
        count += 1
        x = rng.uniform(-1.0, 1.0, size=G.n)
        w = (ABC, ADJ, RND)[count % 3]
        worst = max(worst, abs(TensorOperator.from_weighting(G, w).form(x) - dense_form(G, w, x)))
    _report("C9 dense-contraction oracle equivalence (20 pairs)", worst <= 1e-10,
            f"worst |diff|={worst:.2e}")
