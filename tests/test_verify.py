"""Bound checks, equality detection, the theorem table, and the worked examples."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from abctensor import build
from abctensor import closed_forms as cf
from abctensor import generators as gen
from abctensor import verify as ver
from abctensor.canon import canonical_code
from abctensor.closed_forms import rho_abc_hyperpath, rho_abc_u2, rho_abc_u3
from abctensor.spectral import SpectralEstimate
from abctensor.tensor import TensorOperator, abc_index
from abctensor.verify import EQUALITY, HOLDS
from helpers import count_calls


def bound(G, name, opts=None):
    """The one record of the named bound check on G."""
    (r,) = ver.check_bounds(G, name, opts)
    return r


def test_edge_sum_bounds_hypercycle_equality():
    r = bound(gen.hypercycle(4, 3), "edge-sum-bounds")
    assert r.status == EQUALITY
    assert r.rhs == pytest.approx(2 ** (1 / 3))
    assert r.lhs == pytest.approx(2 ** (1 / 3), abs=1e-8)


def test_edge_sum_bounds_hyperstar_equality():
    # Every hyperstar edge contains the center, so edge degree sums are
    # constant and both bounds collapse onto (m-1)^(1/k).
    r = bound(gen.hyperstar(5, 3), "edge-sum-bounds")
    assert r.status == EQUALITY
    assert r.rhs == pytest.approx(4 ** (1 / 3))


def test_edge_sum_bounds_double_star_strict():
    r = bound(gen.double_star(5, 1), "edge-sum-bounds")
    assert r.status == HOLDS


def test_regular_corollary_complete_equality():
    r = bound(gen.complete(4, 3), "regular-corollary")
    assert r.status == EQUALITY
    assert r.rhs == pytest.approx(6 ** (1 / 3))


def test_regular_corollary_hypercycle_strict():
    # Degrees 1 and 2: bounds (0, (2k-k)^(1/k)); rho = 2^(1/k) sits
    # strictly inside, so the corollary holds without equality.
    r = bound(gen.hypercycle(3, 3), "regular-corollary")
    assert r.status == HOLDS
    assert r.rhs == pytest.approx(3 ** (1 / 3))
    assert r.lhs == pytest.approx(2 ** (1 / 3), abs=1e-8)


def test_regular_corollary_hyperstar_strict():
    r = bound(gen.hyperstar(3, 3), "regular-corollary")
    assert r.status == HOLDS
    assert r.rhs == pytest.approx(6 ** (1 / 3))


def test_mean_bound_strict_on_star2():
    r = bound(gen.hyperstar(2, 3), "mean-bound")
    assert r.status == HOLDS
    assert r.rhs == pytest.approx(0.9524406311809199)
    assert r.lhs == pytest.approx(1.0, abs=1e-8)


def test_mean_bound_strict_on_hypercycles():
    # Junction vertices collect two edge terms, pendant-position vertices
    # one, so the per-vertex row sums are not constant and the mean bound
    # holds strictly on hypercycles.
    for g in (3, 4):
        r = bound(gen.hypercycle(g, 3), "mean-bound")
        assert r.status == HOLDS
        assert r.lhs > r.rhs


def test_mean_bound_equality_on_complete():
    r = bound(gen.complete(4, 3), "mean-bound")
    assert r.status == EQUALITY


def test_mean_bound_single_edge_degenerate_equality():
    r = bound(build(3, 3, [[0, 1, 2]]), "mean-bound")
    assert r.status == EQUALITY
    assert r.lhs == 0.0 and r.rhs == 0.0


def test_delta_bound_hyperstar_equality():
    for m, k in ((4, 3), (6, 2)):
        r = bound(gen.hyperstar(m, k), "delta-bound")
        assert r.status == EQUALITY


def test_delta_bound_hypercycle_equality():
    r = bound(gen.hypercycle(3, 3), "delta-bound")
    assert r.status == EQUALITY


def test_delta_bound_double_star_strict():
    r = bound(gen.double_star(5, 1), "delta-bound")
    assert r.status == HOLDS


def test_delta_bound_requires_delta_two():
    G = build(3, 3, [[0, 1, 2]])
    assert ver.check_bounds(G, "delta-bound") == []
    assert "delta-bound" not in [r.name for r in ver.check_bounds(G)]


def test_power_relation_triangle():
    r = ver.check_power_relation(gen.cycle_graph(3), 3)
    assert r.status == HOLDS
    assert r.lhs == pytest.approx(2 ** (1 / 3), abs=1e-8)


def test_power_relation_double_star_matches_closed_form():
    from abctensor.closed_forms import rho_abc_double_star1

    r = ver.check_power_relation(gen.double_star(5, 1), 4)
    assert r.status == HOLDS
    assert r.lhs == pytest.approx(rho_abc_double_star1(5, 4), abs=1e-8)


def test_power_relation_path():
    r = ver.check_power_relation(gen.hyperpath(4, 2), 3)
    assert r.status == HOLDS
    assert r.lhs == pytest.approx(rho_abc_hyperpath(4, 3), abs=1e-8)


def test_randic_unit():
    for G in (gen.hyperstar(4, 3), gen.hypercycle(4, 3), gen.random_hypertree(6, 3, seed=8)):
        r = bound(G, "randic-unit")
        assert r.status == HOLDS
        assert r.lhs == pytest.approx(1.0, abs=1e-8)


def test_randic_unit_solves_from_the_uniform_start(monkeypatch):
    # Its requests are operators: a Randic pair would start at the exact
    # eigenvector d^(1/k) whose residual the check then reads.
    from abctensor import spectral

    start, starts = spectral._Stack.start, []

    def recorded(stack, opts):
        X = start(stack, opts)
        starts.append((stack.sizes.tolist(), stack.k, X))
        return X

    monkeypatch.setattr(spectral._Stack, "start", recorded)
    assert len(ver.default_suite(prefix="randic-unit")) == 60 and len(starts) == 3
    for sizes, k, X in starts:
        assert np.array_equal(X, np.concatenate([np.full(n, n ** (-1.0 / k)) for n in sizes]))


def test_hypertree_scan_small():
    results = ver.default_suite(m=4, k=3, prefix="hypertree-scan-")
    assert all(r.ok for r in results)
    names = {r.name.split("[")[0] for r in results}
    assert names == {"hypertree-scan-max", "hypertree-scan-second", "hypertree-scan-nonpower"}


def test_unicyclic_scan_single_member():
    r = ver.check_theorem("unicyclic-scan", 3, 3, g=3)
    assert r.ok
    assert r.rhs == pytest.approx(2 ** (1 / 3))


def test_unicyclic_scan_maximizer():
    r = ver.check_theorem("unicyclic-scan", 5, 3, g=2)
    assert r.ok and r.rhs == pytest.approx(rho_abc_u2(5, 3))
    r3 = ver.check_theorem("unicyclic-scan", 6, 3, g=3)
    assert r3.ok and r3.rhs == pytest.approx(rho_abc_u3(6, 3))


def test_u_compositions_canonical():
    comps = ver._u_compositions(3, 3)
    assert (3, 0, 0) in comps
    assert all(a[0] >= a[-1] for a in comps)
    # ends ((3,0),(2,1),(2,0),(1,1),(1,0),(0,0)) x middle remainder
    assert len(comps) == 6
    comps4 = ver._u_compositions(2, 4)
    assert all(a[1] >= a[2] for a in comps4)


def test_unicyclic_global_max_small():
    for m, k in [(m, 3) for m in range(3, 8)] + [(m, 4) for m in (3, 4, 5)]:
        r = ver.check_theorem("unicyclic-global-max", m, k)
        assert r.status == HOLDS, (m, k)
        assert r.rhs == pytest.approx(rho_abc_u2(m, k))
        assert r.margin > 1e-9  # the lead over the runner-up


def test_linear_unicyclic_global_max_small():
    # Over every linear unicyclic shape (girth >= 3) the maximum is U_{m,3}.
    for m, k in [(m, 3) for m in range(4, 8)] + [(4, 4), (5, 4)]:
        r = ver.check_theorem("linear-unicyclic-global-max", m, k)
        assert r.status == HOLDS, (m, k)
        assert r.rhs == pytest.approx(rho_abc_u3(m, k))
        assert r.margin > 1e-9  # the lead over the runner-up


def test_worked_examples_hold():
    res = ver.default_suite(prefix="worked-example-")
    assert [r.name for r in res] == ["worked-example-1", "worked-example-2"]
    assert all(r.ok for r in res)
    # rho(H_1) strictly below the 6-edge hyperpath value
    assert res[0].lhs < rho_abc_hyperpath(6, 3)
    assert res[1].lhs < rho_abc_hyperpath(12, 4)


def test_worked_example_values_match_reductions():
    res = ver.default_suite(prefix="worked-example-")
    f1 = lambda t: t**3 - math.sqrt(3 / 4) * t**1.5 - 0.5  # noqa: E731
    assert abs(f1(res[0].lhs)) < 1e-6


def test_scans_judge_the_leader_by_target_closeness_and_lead():
    def est(rho):
        return SimpleNamespace(rho=rho, width=0.0)

    ranked = [(est(2.0), "a"), (est(1.5), "b")]
    r = ver._leader("scan", ranked, "a".__eq__, 2.0, "")
    assert (r.status, r.margin) == (HOLDS, 0.5)
    assert ver._leader("scan", ranked, "b".__eq__, 2.0, "").status == ver.VIOLATED
    assert ver._leader("scan", ranked, "a".__eq__, 2.0 + 2e-9, "").status == ver.VIOLATED
    tied = [ranked[0], (est(2.0 - 1e-10), "b")]
    assert ver._leader("scan", tied, "a".__eq__, 2.0, "").status == ver.VIOLATED
    alone = ver._leader("scan", ranked[:1], "a".__eq__, 2.0, "", floor=0.5)
    assert (alone.status, alone.margin) == (HOLDS, 1.5)
    assert ver._leader("scan", ranked[:1], "a".__eq__, 2.0, "").margin == math.inf


def test_hypertree_scan_past_the_budget_raises():
    with pytest.raises(gen.BudgetExceededError):
        ver.check_theorem("hypertree-scan-max", 9, 3)


def test_check_theorem_rejects_a_row_it_does_not_have():
    for name, m, g in (("hypertree-scan-second", 3, None), ("unicyclic-scan", 2, 3),
                       ("unicyclic-scan", 5, None), ("hypertree-scan-max", 4, 2), ("no-such-theorem", 4, None)):
        with pytest.raises(ValueError):
            ver.check_theorem(name, m, 3, g)


@pytest.mark.parametrize("k", [3, 4])
def test_each_theorem_target_is_a_member_of_its_class_and_passes_its_filter(k):
    # At the two smallest m where each row applies: the key its class
    # gives the target is a member's key, that member is the target's
    # graph up to isomorphism, and the graph passes the filter.
    for row in ver.THEOREMS:
        for m in [m for m in range(1, 10) if row.applies(m, k)][:2]:
            members = dict(row.cls.members([m], k, row.g)[m])
            target = cf.closed_form_graph(row.target, m=m, k=k)
            key = row.cls.key(row.target, m, k, row.g)
            assert key in members and canonical_code(members[key]) == canonical_code(target), row.name(m, k)
            assert row.keep is None or row.keep(target), row.name(m, k)


def test_interval_comparison_never_bare_floats():
    # A deliberately coarse solve still cannot produce 'violated' because
    # the wide bracket keeps the comparison inconclusive-safe.
    from abctensor.spectral import SolveOptions

    r = bound(gen.hyperstar(4, 3), "edge-sum-bounds", SolveOptions(tol=1e-3))
    assert r.ok


# Each kind of claim on D_{5,1} (2-uniform, edge degree sums less k of
# 1, 3 and 4, degrees 1, 2 and 4) as (run, bound, side, brackets):
# ``run`` judges it, ``bound`` is the end of the claim, as the check
# computes it, that the estimate is put ``side`` of, and ``brackets``
# places that estimate's bracket among the requests.
D51 = gen.double_star(5, 1)
RULE_EDGE = {
    "edge-sum-bounds-below": (lambda: ver.check_bounds(D51, "edge-sum-bounds"), 1 ** 0.5, -1, lambda b: [b]),
    "edge-sum-bounds-above": (lambda: ver.check_bounds(D51, "edge-sum-bounds"), 4 ** 0.5, 1, lambda b: [b]),
    "regular-corollary-below": (lambda: ver.check_bounds(D51, "regular-corollary"), 0 ** 0.5, -1, lambda b: [b]),
    "regular-corollary-above": (lambda: ver.check_bounds(D51, "regular-corollary"), 6 ** 0.5, 1, lambda b: [b]),
    "mean-bound-below": (lambda: ver.check_bounds(D51, "mean-bound"),
                         math.factorial(2) * abc_index(D51) / D51.n, -1, lambda b: [b]),
    "delta-bound-above": (lambda: ver.check_bounds(D51, "delta-bound"),
                          (3 / 4) ** (1.0 / 2) * 2.0, 1, lambda b: [b, (2.0, 2.0)]),
    "randic-unit-below": (lambda: ver.check_bounds(D51, "randic-unit"), 1.0, -1, lambda b: [b]),
    "randic-unit-above": (lambda: ver.check_bounds(D51, "randic-unit"), 1.0, 1, lambda b: [b]),
    "power-relation-below": (lambda: [ver.check_power_relation(D51, 3)], 1.5 ** (2 / 3), -1,
                             lambda b: [(1.5, 1.6), b]),
    "power-relation-above": (lambda: [ver.check_power_relation(D51, 3)], 1.6 ** (2 / 3), 1,
                             lambda b: [(1.5, 1.6), b]),
}


@pytest.mark.parametrize("case", RULE_EDGE)
def test_a_bracket_is_widened_by_slack_once(monkeypatch, case):
    # A made-up bracket 1.5 SLACK outside the claim misses it; one 0.5
    # SLACK outside meets it once widened.
    run, bound, side, brackets = RULE_EDGE[case]
    for outside, violated in ((1.5, True), (0.5, False)):
        near = bound + side * outside * ver.SLACK
        bracket = (near, near + 1e-6) if side > 0 else (near - 1e-6, near)
        requests = brackets(bracket)

        def made_up(problems, opts=None):
            assert len(problems) == len(requests)
            return [SpectralEstimate((lo + hi) / 2, np.ones(_graph(p).n), lo, hi, 1, 0.0, 0)
                    for p, (lo, hi) in zip(problems, requests)]

        monkeypatch.setattr(ver, "spectral_radii", made_up)
        (r,) = run()
        assert (r.status == ver.VIOLATED) is violated, (outside, r)


def _graph(request):
    """The hypergraph of a request: a (hypergraph, weighting) pair, or an operator."""
    return request.G if isinstance(request, TensorOperator) else request[0]


def _count_solves(monkeypatch) -> tuple[list, list]:
    """Patch the suite's solver to record the weighting of every pair it
    is passed, or the operator, and the number of members of every call."""
    from abctensor.spectral import SolveOptions

    weightings, calls = [], []
    real = ver.spectral_radii

    def recording(problems, opts=SolveOptions()):
        calls.append(len(problems))
        weightings.extend(p if isinstance(p, TensorOperator) else p[1] for p in problems)
        return real(problems, opts)

    monkeypatch.setattr(ver, "spectral_radii", recording)
    return weightings, calls


def test_two_suite_calls_make_the_same_solves(monkeypatch):
    # Nothing is kept between calls: each one solves every graph again,
    # and each bound graph once per weighting (60 graphs, 3 weightings,
    # adjacency only where Delta >= 2), all in one gathered call.
    weightings, calls = _count_solves(monkeypatch)
    first = ver.default_suite()
    once = len(weightings)
    second = ver.default_suite()
    assert once == len(weightings) - once == 376
    assert calls == [376, 376]
    assert len(first) == len(second) == 345


def test_a_suite_pass_does_its_structure_work_once(monkeypatch):
    # One hypertree growth per edge size, one build per pendant family
    # member, one build and code per hypertree leader's target, and no
    # build for a unicyclic-scan target, which is keyed by its
    # composition: 232 builds, 99 codes and 80 attachments.  Growing
    # each m again, building a member twice, or building a target only to
    # key it breaks these caps.
    from abctensor import canon, hypergraph

    builds = count_calls(monkeypatch, hypergraph, "build")
    codes = count_calls(monkeypatch, canon, "canonical_code")
    attachments = count_calls(monkeypatch, gen, "attach_pendant_edge")
    assert len(ver.default_suite()) == 345
    assert builds[0] <= 232 and codes[0] <= 99 and attachments[0] <= 80


def test_suite_rejects_g_before_any_solve(monkeypatch):
    weightings, calls = _count_solves(monkeypatch)
    for g in (0, 1, 4, 5):
        with pytest.raises(ValueError, match="g must be 2 or 3"):
            ver.default_suite(m=3, k=3, g=g)
    assert weightings == [] and calls == []


def test_suite_names_a_bad_m_or_k_before_any_solve(monkeypatch):
    weightings, calls = _count_solves(monkeypatch)
    builds = count_calls(monkeypatch, gen, "hyperstar")
    for m, k, message in ((0, None, "m must be >= 1, not 0"), (-2, 3, "m must be >= 1, not -2"),
                          (None, 1, "k must be >= 2, not 1"), (3, 0, "k must be >= 2, not 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ver.default_suite(m=m, k=k)
    # Not an integer, a bool included, as SolveOptions has it.
    for kwargs, message in (({"m": 2.5, "k": 3}, "m must be an integer, not 2.5"),
                            ({"m": 4, "k": 3.0}, "k must be an integer, not 3.0"),
                            ({"m": True}, "m must be an integer, not True"),
                            ({"k": "3"}, "k must be an integer, not '3'"),
                            ({"m": 3, "k": 3, "g": 2.0}, "g must be an integer, not 2.0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ver.default_suite(**kwargs)
    assert weightings == [] and calls == [] and builds[0] == 0
    assert len(ver.default_suite(m=np.int64(3), k=np.int64(3), prefix="randic-unit")) == 5


@pytest.mark.parametrize("m, k", [(5, 3), (4, 4)])
def test_gathered_suite_equals_one_solve_at_a_time(monkeypatch, m, k):
    from abctensor.spectral import SolveOptions, spectral_radius

    gathered = ver.default_suite(m=m, k=k)

    def one_at_a_time(problems, opts=SolveOptions()):
        return [spectral_radius(*p, opts) if isinstance(p, tuple) else spectral_radius(p, opts=opts)
                for p in problems]

    monkeypatch.setattr(ver, "spectral_radii", one_at_a_time)
    assert ver.default_suite(m=m, k=k) == gathered


def test_suite_bound_checks_equal_the_public_checks():
    graphs = [gen.hyperstar(4, 3), gen.hyperpath(4, 3), gen.hypercycle(4, 3),
              gen.s_composition(4, 3, (1, 1, 1)), gen.complete(4, 3), gen.complete(5, 2)]
    for name in ("delta-bound", "edge-sum-bounds", "regular-corollary", "mean-bound", "randic-unit"):
        assert ver.default_suite(m=4, k=3, prefix=name) == [r for G in graphs for r in ver.check_bounds(G, name)]


def test_suite_theorem_checks_equal_check_theorem():
    stems = ("hypertree-scan-max", "hypertree-scan-nonpower", "hypertree-scan-second")
    assert ver.default_suite(m=4, k=4, prefix="hypertree-scan-") == [ver.check_theorem(s, 4, 4) for s in stems]
    assert ver.default_suite(m=4, k=4, prefix="unicyclic-scan") == [
        ver.check_theorem("unicyclic-scan", 4, 4, g) for g in (2, 3)]


def test_suite_statuses_are_pinned():
    # Name and status of every record, in order.  A change to any of them
    # is a finding about the paper or the code, to explain, not re-pin.
    pinned = (Path(__file__).parent / "data" / "verify_all_statuses.txt").read_text().splitlines()
    assert [f"{r.name} {r.status}" for r in ver.default_suite()] == pinned


@pytest.mark.parametrize("m, k, name", [(2, None, "m2"), (4, 5, "k5_m4"), (7, 3, "m7_k3"), (6, 4, "m6_k4")])
def test_edge_grid_statuses_are_pinned(m, k, name):
    # m = 2 has no second or non-power rows; k = 5 falls back to the
    # default of ENUM_BUDGET.  A row whose domain drifts changes a name.
    pinned = (Path(__file__).parent / "data" / f"verify_all_statuses_{name}.txt").read_text().splitlines()
    assert [f"{r.name} {r.status}" for r in ver.default_suite(m=m, k=k)] == pinned
