"""Solver: exact values, bracket certificates, residuals, symmetry of the
Perron vector, the power-lift identity, and the switch to Newton steps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abctensor import build
from abctensor import closed_forms as cf
from abctensor import generators as gen
from abctensor import spectral
from abctensor.spectral import (
    ConvergenceError,
    NotConnectedError,
    SolveOptions,
    _bordered_matrices,
    _Stack,
    residual_of,
    spectral_radius,
)
from abctensor.tensor import TensorOperator, Weighting, k_unit

from helpers import dense_apply, relabel

ABC = Weighting.ABC
ADJ = Weighting.ADJACENCY
RND = Weighting.RANDIC


def test_single_edge_adjacency_rho_one():
    est = spectral_radius(build(3, 3, [[0, 1, 2]]), ADJ)
    assert est.rho == pytest.approx(1.0, abs=1e-10)


def test_single_edge_abc_zero_operator():
    est = spectral_radius(build(4, 4, [[0, 1, 2, 3]]), ABC)
    assert est.rho == 0.0 and est.lower == 0.0 and est.upper == 0.0
    assert est.iters == 0 and est.residual == 0.0


def test_hyperstar_abc_closed_form():
    est = spectral_radius(gen.hyperstar(5, 3), ABC)
    assert est.rho == pytest.approx(4 ** (1 / 3), abs=1e-9)


def test_randic_rho_one_various():
    for G in (gen.hyperstar(4, 3), gen.hypercycle(4, 3), gen.random_hypertree(7, 4, seed=3)):
        est = spectral_radius(G, RND)
        assert est.rho == pytest.approx(1.0, abs=1e-9)


def test_disconnected_raises():
    with pytest.raises(NotConnectedError):
        spectral_radius(build(3, 6, [[0, 1, 2], [3, 4, 5]]), ABC)


def test_zero_weight_edges_that_cut_the_operator_raise_before_any_step(monkeypatch):
    # Zero weight on the middle edge of P_{4,3}, or on an end edge, whose
    # two pendant vertices it alone reaches, leaves the operator reducible.
    G, H = gen.hyperpath(4, 3), build(3, 6, [[0, 1, 2], [3, 4, 5]])
    steps = []
    monkeypatch.setattr(spectral._Stack, "evaluate", lambda *a: steps.append(a))
    for weights in ([1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]):
        op = TensorOperator(G, weights)
        with pytest.raises(NotConnectedError, match="^hypergraph is not connected by its nonzero-weight edges$"):
            spectral.spectral_radii([(gen.hyperstar(3, 3), ABC), op])
        # A disconnected hypergraph raises first, whatever its weights.
        with pytest.raises(NotConnectedError, match="^hypergraph is not connected$"):
            spectral.spectral_radii([op, TensorOperator(H, [1.0, 0.0])])
    assert steps == []


def test_an_all_zero_operator_is_connected_by_its_hypergraph():
    G = gen.hyperpath(4, 3)
    zero, star = spectral.spectral_radii([TensorOperator(G, np.zeros(4)), (gen.hyperstar(3, 3), ABC)])
    assert (zero.rho, zero.lower, zero.upper, zero.iters) == (0.0, 0.0, 0.0, 0)
    assert star.rho == pytest.approx(2 ** (1 / 3), abs=1e-9)


def test_nonconvergence_carries_bracket():
    with pytest.raises(ConvergenceError) as exc:
        spectral_radius(gen.hyperpath(8, 3), ABC, SolveOptions(tol=1e-10, max_iters=3))
    assert exc.value.lower <= exc.value.upper
    assert exc.value.iters == 3


@pytest.mark.parametrize("field", ["tol", "shift"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_options_reject_a_tol_or_shift_that_is_not_positive_and_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        SolveOptions(**{field: value})


def test_bracket_and_vector_contract():
    opts = SolveOptions(tol=1e-10)
    for G in (gen.hyperstar(6, 3), gen.hyperpath(5, 4), gen.unicyclic_family(5, 3, 2, (3, 0, 0))):
        est = spectral_radius(G, ABC, opts)
        assert est.lower <= est.rho <= est.upper
        assert est.upper - est.lower <= opts.tol * max(1.0, est.upper)
        assert np.all(est.eigenvector > 0)
        assert np.sum(est.eigenvector**G.k) == pytest.approx(1.0, abs=1e-12)
        assert est.residual <= 10 * opts.tol


def test_residual_exact_pair():
    G = build(3, 3, [[0, 1, 2]])
    x = k_unit(np.ones(3), 3)
    assert residual_of(TensorOperator.from_weighting(G, ADJ), 1.0, x) <= 1e-14


def test_residual_detects_perturbation():
    G = gen.hyperstar(4, 3)
    op = TensorOperator.from_weighting(G, ABC)
    est = spectral_radius(op)
    base = residual_of(op, est.rho, est.eigenvector)
    bumped = est.eigenvector.copy()
    bumped[1] += 0.1
    assert residual_of(op, est.rho, bumped) > base


def test_rayleigh_lower_bound():
    rng = np.random.default_rng(12)
    for G in (gen.hyperstar(4, 3), gen.hypercycle(3, 3), gen.s_composition(5, 3, (2, 1, 1))):
        est = spectral_radius(G, ABC)
        op = TensorOperator.from_weighting(G, ABC)
        for _ in range(1000):
            x = k_unit(rng.uniform(0.0, 1.0, size=G.n) + 1e-9, G.k)
            assert op.form(x) <= est.upper + 1e-9


def test_weight_scaling_scales_rho():
    G = gen.s_composition(5, 3, (2, 1, 1))
    op = TensorOperator.from_weighting(G, ABC)
    base = spectral_radius(op)
    for c in (0.25, 0.5, 0.9):
        scaled = spectral_radius(op.scaled(c))
        assert scaled.rho == pytest.approx(c * base.rho, rel=1e-8)


def test_automorphism_symmetry_of_eigenvector():
    # Leaves of one hyperstar edge are exchangeable, so their entries agree.
    G = gen.hyperstar(5, 4)
    est = spectral_radius(G, ABC)
    leaves = [v for v in G.edges[0] if v != 0]
    vals = est.eigenvector[leaves]
    assert np.max(vals) - np.min(vals) <= 1e-8
    # Junction-free vertices of a hypercycle edge likewise.
    C = gen.hypercycle(3, 5)
    est_c = spectral_radius(C, ABC)
    d = C.degree_list
    free = [v for v in C.edges[0] if d[v] == 1]
    vals_c = est_c.eigenvector[free]
    assert np.max(vals_c) - np.min(vals_c) <= 1e-8


def test_power_lift_identity():
    triangle = gen.cycle_graph(3)
    bases = [gen.double_star(5, 1), triangle, gen.hyperpath(4, 2)]
    for G in bases:
        base = spectral_radius(G, ABC)
        r = G.k
        for k in (3, 4, 5):
            lifted = spectral_radius(gen.power(G, k), ABC)
            assert lifted.rho == pytest.approx(base.rho ** (r / k), abs=1e-7)


def test_triangle_abc_is_sqrt2():
    est = spectral_radius(gen.cycle_graph(3), ABC)
    assert est.rho == pytest.approx(2**0.5, abs=1e-9)


def test_seeded_random_initial_agrees():
    G = gen.s_composition(6, 3, (3, 1, 1))
    a = spectral_radius(G, ABC, SolveOptions())
    b = spectral_radius(G, ABC, SolveOptions(seed=4))
    assert a.rho == pytest.approx(b.rho, abs=1e-9)


def test_custom_shift_agrees():
    G = gen.hyperpath(5, 3)
    a = spectral_radius(G, ABC, SolveOptions(shift=1.0))
    b = spectral_radius(G, ABC, SolveOptions(shift=0.3))
    assert a.rho == pytest.approx(b.rho, abs=1e-9)


def test_bipartite_adjacency_needs_shift_and_converges():
    # 2-uniform double stars are bipartite; the shift suppresses the
    # period-2 oscillation of the unshifted iteration.
    est = spectral_radius(gen.double_star(5, 2), ADJ)
    assert est.rho == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("G, w, known", [
    (gen.hyperpath(400, 3), ABC, cf.rho_abc_hyperpath(400, 3)),
    (gen.hyperpath(400, 3), RND, 1.0),
    (gen.random_hypertree(400, 3, 1), ABC, None),
], ids=["hyperpath-abc", "hyperpath-randic", "random-hypertree-abc"])
def test_slow_power_inputs_solve_with_default_options(G, w, known, monkeypatch):
    # Power steps alone end in ConvergenceError after 200,000 iterations.
    # An operator starts uniform, where a Randic pair would start at its
    # exact eigenvector.
    newton_step = spectral._newton_step
    uppers = []

    def recorded(lay, mask, X, XK1, Y, R, his, s):
        took, Z, ZK1, YZ = newton_step(lay, mask, X, XK1, Y, R, his, s)
        if took[0]:  # a solve of one: the vectors are its own
            uppers.append((his[0], float((YZ / ZK1).max())))
        return took, Z, ZK1, YZ

    monkeypatch.setattr(spectral, "_newton_step", recorded)
    est = spectral_radius(TensorOperator.from_weighting(G, w))
    assert est.newton_steps == len(uppers) > 0
    assert all(after < before for before, after in uppers)  # each step lowers the upper bound
    assert est.upper - est.lower <= 1e-10 * max(1.0, est.upper)
    if known is not None:
        assert est.lower <= known <= est.upper
    assert np.all(est.eigenvector > 0) and est.residual <= 1e-9


@pytest.mark.parametrize("G, w, most", [
    (gen.random_hypertree(7, 4, 2), ABC, 50),  # 303 power steps alone
    (gen.random_hypertree(400, 3, 3), RND, 1000),  # 21,032 power steps alone
], ids=["verify-scale", "n801"])
def test_trees_take_newton_steps(G, w, most):
    est = spectral_radius(TensorOperator.from_weighting(G, w))  # the uniform start, also under Randic
    assert est.newton_steps > 0 and est.iters <= most


def test_fast_inputs_stay_on_power_steps():
    est = spectral_radius(gen.hyperstar(50, 3), ABC)
    assert est.newton_steps == 0 and est.iters == 16


def _bordered_matrix(op, x, xk1, lam):
    """The bordered Newton matrix of one operator at x."""
    stack = _Stack([(op.G, op.weights)])
    ((_, M),) = _bordered_matrices(stack, x, xk1, np.array([lam]), np.array([True]))
    return M[0]


def test_jacobian_is_the_derivative_of_the_contraction():
    G = gen.unicyclic_family(6, 4, 3, (1, 0, 2, 0))
    op = TensorOperator.from_weighting(G, ABC)
    x = k_unit(np.random.default_rng(5).uniform(0.5, 1.5, G.n), G.k)
    xk1 = x ** (G.k - 1)
    B = _bordered_matrix(op, x, xk1, 0.0)
    M = B[:-1, :-1]
    assert np.array_equal(M, M.T) and np.all(np.diag(M) == 0.0)
    assert np.array_equal(B[:-1, -1], -xk1) and np.all(B[-1, :-1] == 1.0) and B[-1, -1] == 0.0
    diagonal = np.diag(-(G.k - 1) * 0.7 * x ** (G.k - 2))
    assert np.allclose(_bordered_matrix(op, x, xk1, 0.7)[:-1, :-1] - M, diagonal, rtol=1e-15, atol=1e-15)
    assert np.allclose(M @ x, (G.k - 1) * op.apply(x), rtol=1e-13, atol=0.0)
    h = 1e-6
    for j in (0, 3, G.n - 1):
        e = np.zeros(G.n)
        e[j] = h
        column = (op.apply(x + e) - op.apply(x - e)) / (2 * h)
        assert np.allclose(M[:, j], column, rtol=1e-7, atol=1e-9)


def test_crossed_bounds_come_back_swapped():
    # Rounding at shift 17 puts the best lower Collatz bound above the
    # best upper one; their mean would miss rho = 0.01 * sqrt(2).
    P3 = build(2, 3, [[0, 1], [1, 2]])
    op = TensorOperator.from_weighting(P3, ADJ).scaled(0.01)
    opts = SolveOptions(tol=1e-15, shift=17.0, seed=38)
    est = spectral_radius(op, opts=opts)
    assert est.lower <= 0.01 * math.sqrt(2) <= est.upper
    assert est.lower <= est.rho <= est.upper


@st.composite
def trees_and_unicyclics(draw):
    k = draw(st.integers(2, 4))
    if k == 2 or draw(st.booleans()):
        return gen.random_hypertree(draw(st.integers(1, 9)), k, draw(st.integers(0, 10**6)))
    g = draw(st.sampled_from((2, 3)))
    a = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    return gen.unicyclic_family(g + sum(a), k, g, a)


@settings(max_examples=60, deadline=None)
@given(trees_and_unicyclics(), st.sampled_from(list(Weighting)), st.randoms(use_true_random=False))
def test_randic_is_one_and_relabelling_keeps_rho(G, w, rnd):
    est = spectral_radius(G, RND)
    assert est.lower <= 1.0 <= est.upper
    perm = list(range(G.n))
    rnd.shuffle(perm)
    a, b = spectral_radius(G, w), spectral_radius(relabel(G, perm), w)
    assert a.lower <= b.rho <= a.upper and b.lower <= b.rho <= b.upper
    assert b.lower <= a.rho <= b.upper


def test_bracket_narrower_than_rounding_is_widened():
    # Rounding of the Collatz ratios at shift 2.9 leaves the raw bracket
    # [0.009999999999999343, 0.009999999999999787], which misses rho = 0.01.
    K2 = build(2, 2, [[0, 1]])
    op = TensorOperator.from_weighting(K2, ADJ).scaled(0.01)
    est = spectral_radius(op, opts=SolveOptions(tol=1e-16, shift=2.9, seed=0))
    assert est.lower <= 0.01 <= est.upper
    assert est.upper - est.lower <= 2 * spectral._ratio_error(int(K2.degree_array.max()), K2.k, 2.91) + 1e-15


def test_power_brackets_are_not_widened(monkeypatch):
    # A bracket about tol wide is returned as computed, bit for bit.
    est = spectral_radius(gen.hyperstar(50, 3), ABC)
    monkeypatch.setattr(spectral, "_ratio_error", lambda max_degree, k, ratio: 0.0)
    raw = spectral_radius(gen.hyperstar(50, 3), ABC)
    assert (est.lower, est.upper, est.rho) == (raw.lower, raw.upper, raw.rho)


@st.composite
def small_trees_and_unicyclics(draw):
    """A hypertree or a U_{m,3,g}(a) with n <= 8 and k <= 3."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 3))
        m = draw(st.integers(1, 7 // (k - 1)))  # n = m(k-1) + 1
        return gen.random_hypertree(m, k, draw(st.integers(0, 10**6)))
    g = draw(st.sampled_from((2, 3)))
    parts = st.lists(st.integers(0, 4 - g), min_size=3, max_size=3)
    a = draw(parts.filter(lambda a: sum(a) <= 4 - g))
    return gen.unicyclic_family(g + sum(a), 3, g, a)  # n = 2m


def _gamma(j: int) -> float:
    u = np.finfo(np.float64).eps / 2.0
    return j * u / (1.0 - j * u)


@settings(max_examples=60, deadline=None)
@given(small_trees_and_unicyclics(), st.sampled_from(list(Weighting)))
def test_dense_collatz_ratios_at_the_eigenvector_lie_in_the_bracket(G, w):
    assert G.n <= 8 and G.k <= 3
    est = spectral_radius(G, w)
    x = est.eigenvector
    ratios = dense_apply(G, w, x) / x ** (G.k - 1)
    pad = _gamma(G.n) * max(1.0, est.upper)
    assert est.lower - pad <= ratios.min() <= ratios.max() <= est.upper + pad


@settings(max_examples=60, deadline=None)
@given(small_trees_and_unicyclics(), st.integers(1, 2))
def test_power_lift_brackets_overlap(G, extra):
    assert G.n <= 8 and G.k <= 3
    r, k = G.k, G.k + extra
    base = spectral_radius(G, ABC)
    lifted = spectral_radius(gen.power(G, k), ABC)
    lo, hi = max(base.lower, 0.0) ** (r / k), base.upper ** (r / k)
    assert lo <= lifted.upper and lifted.lower <= hi
