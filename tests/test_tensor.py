"""Edge weights, implicit contraction, abc index; brute-force oracle
equivalence against the explicit dense tensor."""

import math
import random
import warnings

import numpy as np
import pytest

from abctensor import _kernels, build
from abctensor import generators as gen
from abctensor import spectral
from abctensor.spectral import SolveOptions, _initial_vector, _Stack, spectral_radius
from abctensor.tensor import (
    TensorOperator,
    Weighting,
    abc_index,
    edge_weight,
    k_unit,
    omega,
)
from helpers import contract_by_loop, dense_apply, dense_form, estimate_fields


def test_omega_single_edge_is_zero():
    assert omega(build(3, 3, [[0, 1, 2]]), 0) == 0.0


def test_omega_hyperstar_edge():
    G = gen.hyperstar(5, 3)
    for e in range(G.m):
        assert omega(G, e) == pytest.approx(4 / 5)


def test_omega_hypercycle_edge_is_half():
    for k in (3, 4, 5):
        G = gen.hypercycle(3, k)
        for e in range(G.m):
            assert omega(G, e) == pytest.approx(0.5)


def test_edge_weight_rules():
    G = gen.hyperstar(5, 3)
    assert edge_weight(G, 0, Weighting.ADJACENCY) == 1.0
    assert edge_weight(G, 0, Weighting.ABC) == pytest.approx(0.9283177667225558)
    single = build(3, 3, [[0, 1, 2]])
    assert edge_weight(single, 0, Weighting.RANDIC) == pytest.approx(1.0)


def test_apply_single_edge_adjacency_identity():
    G = build(3, 3, [[0, 1, 2]])
    out = TensorOperator.from_weighting(G, Weighting.ADJACENCY).apply(np.ones(3))
    assert out == pytest.approx([1.0, 1.0, 1.0])


def test_apply_randic_degree_eigenvector():
    # x_i = d_i^(1/k) gives (R x^{k-1})_i = x_i^{k-1} exactly.
    for G in (gen.hyperstar(2, 3), gen.s_composition(5, 3, (2, 1, 1)), gen.hypercycle(4, 4)):
        d = np.array(G.degree_list, dtype=float)
        x = d ** (1.0 / G.k)
        out = TensorOperator.from_weighting(G, Weighting.RANDIC).apply(x)
        assert out == pytest.approx(x ** (G.k - 1), abs=1e-12)


def test_apply_zero_vector():
    G = gen.hyperstar(3, 3)
    assert np.all(TensorOperator.from_weighting(G, Weighting.ABC).apply(np.zeros(G.n)) == 0.0)


def test_apply_homogeneous_of_degree_k_minus_1():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        G = gen.random_hypertree(4, k, seed=k)
        op = TensorOperator.from_weighting(G, Weighting.ABC)
        x = rng.uniform(0.1, 1.0, size=G.n)
        for c in (0.5, 2.0, 3.7):
            lhs = op.apply(c * x)
            rhs = c ** (k - 1) * op.apply(x)
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_form_single_edge_all_ones_is_k():
    for k in (2, 3, 4, 5):
        G = build(k, k, [list(range(k))])
        assert TensorOperator.from_weighting(G, Weighting.ADJACENCY).form(np.ones(k)) == pytest.approx(k)


def test_form_uniform_vector_equals_mean_formula():
    # At x = n^(-1/k) * 1: T x^k = k * sum_e omega(e)^{1/k} / n.
    for G in (gen.hyperstar(4, 3), gen.s_composition(5, 3, (2, 1, 1)), gen.hypercycle(3, 4)):
        n, k = G.n, G.k
        x = np.full(n, n ** (-1.0 / k))
        expect = k * sum(omega(G, e) ** (1.0 / k) for e in range(G.m)) / n
        assert TensorOperator.from_weighting(G, Weighting.ABC).form(x) == pytest.approx(expect, rel=1e-12)


def test_form_zero_vector():
    G = gen.hyperstar(3, 3)
    assert TensorOperator.from_weighting(G, Weighting.ABC).form(np.zeros(G.n)) == 0.0


def test_abc_index_values():
    assert abc_index(build(3, 3, [[0, 1, 2]])) == 0.0
    assert abc_index(gen.hyperstar(2, 3)) == pytest.approx(0.5 * 2 * 0.5 ** (1 / 3))
    assert abc_index(gen.hyperpath(3, 2)) == pytest.approx(3 / math.sqrt(2))


def test_weight_monotone_in_arity():
    # Appending a coordinate to a degree tuple with a leading entry >= 2
    # never raises (sum - arity) / product; the drop is strict except in
    # the exact equality cases (appended 1, or minimal prefix sum).
    def f(tup):
        return (sum(tup) - len(tup)) / math.prod(tup)

    rng = random.Random(9)
    for _ in range(500):
        k = rng.randint(3, 6)
        tup = [rng.randint(2, 9)] + [rng.randint(1, 9) for _ in range(k - 1)]
        equality = tup[-1] == 1 or sum(tup[:-1]) == k
        if equality:
            assert f(tup) == pytest.approx(f(tup[:-1]), rel=1e-15)
        else:
            assert f(tup) < f(tup[:-1])


def test_omega_bounded_by_max_degree_rule():
    graphs = [
        gen.hyperstar(6, 3),
        gen.hyperpath(5, 4),
        gen.hypercycle(4, 3),
        gen.complete(5, 3),
        gen.s_composition(7, 3, (4, 1, 1)),
        gen.unicyclic_family(6, 3, 2, (4, 0, 0)),
        gen.t_family(7, 2),
        gen.example_h(1),
    ]
    for G in graphs:
        delta = max(G.degree_list)
        assert delta >= 2
        cap = (delta - 1) / delta
        for e in range(G.m):
            assert omega(G, e) <= cap + 1e-15


def test_zero_weight_edges_are_kept():
    # A pendant edge with all-degree-1 vertices would have weight 0 only
    # for the single-edge graph; there the operator is all-zero but intact.
    G = build(3, 3, [[0, 1, 2]])
    op = TensorOperator.from_weighting(G, Weighting.ABC)
    assert op.weights.shape == (1,)
    assert op.is_zero()


def test_scaled_operator():
    G = gen.hyperstar(3, 3)
    op = TensorOperator.from_weighting(G, Weighting.ABC)
    x = np.linspace(0.2, 1.0, G.n)
    assert op.scaled(0.25).apply(x) == pytest.approx(0.25 * op.apply(x), rel=1e-15)


@pytest.mark.parametrize("weights, message", [
    ([1.0, -1.0, 1.0, 1.0], "weights must be finite and >= 0"),
    ([1.0, math.inf, 1.0, 1.0], "weights must be finite and >= 0"),
    ([-math.inf, 1.0, 1.0, 1.0], "weights must be finite and >= 0"),
    ([1.0, math.nan, 1.0, 1.0], "weights must be finite and >= 0"),
    ([1.0, 1.0], r"weights of shape \(2,\) do not match the m=4 edges"),
    ([[1.0] * 4], r"weights of shape \(1, 4\) do not match the m=4 edges"),
], ids=["negative", "inf", "minus-inf", "nan", "short", "row"])
def test_operator_weights_are_checked_where_they_enter(weights, message):
    for given in (weights, np.array(weights)):
        with pytest.raises(ValueError, match=message):
            TensorOperator(gen.hyperpath(4, 3), given)


def test_operator_weights_are_one_float64_array():
    G = gen.hyperpath(4, 3)
    w = np.array([0.5, 1.0, 1.5, 2.0])
    assert TensorOperator(G, w).weights is w  # a float64 array is not copied
    from_list = TensorOperator(G, [1, 2, 3, 4])
    assert from_list.weights.dtype == np.float64 and from_list.weights.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert estimate_fields(spectral_radius(TensorOperator(G, w.tolist()))) == estimate_fields(
        spectral_radius(TensorOperator(G, w)))


def test_form_matches_dense_oracle():
    rng = np.random.default_rng(17)
    count = 0
    for seed in range(40):
        if count >= 20:
            break
        G = gen.random_connected_hypergraph(rng.integers(1, 7), 3, seed)
        if G.n > 8:
            continue
        count += 1
        x = rng.uniform(-1.0, 1.0, size=G.n)
        for w in (Weighting.ADJACENCY, Weighting.ABC, Weighting.RANDIC):
            assert TensorOperator.from_weighting(G, w).form(x) == pytest.approx(dense_form(G, w, x), abs=1e-10)
    assert count == 20


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for seed in (1, 5, 9):
        G = gen.random_connected_hypergraph(4, 3, seed)
        if G.n > 8:
            continue
        x = rng.uniform(0.0, 1.0, size=G.n)
        got = TensorOperator.from_weighting(G, Weighting.ABC).apply(x)
        want = dense_apply(G, Weighting.ABC, x)
        assert got == pytest.approx(want, abs=1e-10)


def test_k_unit():
    x = k_unit(np.array([1.0, 1.0]), 3)
    assert np.sum(x**3) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        k_unit(np.zeros(3), 3)


def _k_unit_unscaled(x, k):
    """k_unit without the rescaling: x over the k-th root of sum x^k."""
    return x / float(np.sum(x**k)) ** (1.0 / k)


@pytest.mark.parametrize("x, like", [
    ([1e200, 1.0], [1.0, 1e-200]),  # sum x^3 overflows: [0, 0] unscaled
    ([1e-200, 2e-200], [0.5, 1.0]),  # sum x^3 underflows to 0
], ids=["overflow", "underflow"])
def test_k_unit_rescales_a_sum_that_overflows_or_underflows(x, like):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = k_unit(np.array(x), 3)
    assert got.tobytes() == k_unit(np.array(like), 3).tobytes()
    assert np.sum(got**3) == pytest.approx(1.0, rel=1e-15)


def test_k_unit_keeps_the_bits_of_every_finite_sum():
    rng = np.random.default_rng(4)
    for k in (2, 3, 4, 7):
        for n in (1, 5, 64, 1000):
            x = rng.uniform(0.5, 1.5, size=n)
            assert k_unit(x, k).tobytes() == _k_unit_unscaled(x, k).tobytes()


def test_seeded_starts_and_solves_keep_their_bits(monkeypatch):
    # The seeded start is k_unit of a uniform draw, whose sum is finite.
    for n, k, seed in [(7, 3, 3), (41, 2, 0), (120, 4, 11)]:
        opts = SolveOptions(seed=seed)
        draw = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
        assert _initial_vector(n, k, opts).tobytes() == _k_unit_unscaled(draw, k).tobytes()
    G, opts = gen.random_hypertree(9, 3, 5), SolveOptions(seed=3)
    est = spectral_radius(G, Weighting.RANDIC, opts)
    monkeypatch.setattr(spectral, "k_unit", _k_unit_unscaled)
    assert estimate_fields(spectral_radius(G, Weighting.RANDIC, opts)) == estimate_fields(est)


def _random_graphs():
    yield from (gen.random_connected_hypergraph(m, k, seed) for m, k, seed in
                [(8, 3, 1), (12, 4, 2), (20, 3, 3), (6, 2, 4), (15, 5, 5)])
    yield from (gen.random_hypertree(m, k, seed) for m, k, seed in [(30, 3, 6), (25, 4, 7)])


def _with_pendant(G):
    """G plus one pendant edge at vertex 0: degree products of both sizes."""
    return gen.attach_pendant_edge(G, 0)


@pytest.mark.parametrize("w", list(Weighting), ids=lambda w: w.value)
def test_edge_weights_equal_edge_weight_bit_for_bit(w):
    # complete(12, 7): degree products 462^7, between 2^53 and 2^63;
    # complete(13, 8): 792^8, above 2^63, where the float64 product gives
    # other abc weights.  Those edges take the exact-integer path, the
    # pendant edge the array path.
    big = [_with_pendant(gen.complete(12, 7)), _with_pendant(gen.complete(13, 8))]
    products = [math.prod(G.degree_list[v] for v in G.edges[0]) for G in big]
    assert 2**53 <= products[0] < 2**63 <= products[1]
    for G in [*_random_graphs(), *big]:
        want = np.array([edge_weight(G, e, w) for e in range(G.m)])
        assert np.array_equal(TensorOperator.from_weighting(G, w).weights, want)


def test_abc_index_equals_the_per_edge_sum_exactly():
    for G in [*_random_graphs(), _with_pendant(gen.complete(13, 8))]:
        want = sum(edge_weight(G, e, Weighting.ABC) for e in range(G.m)) / math.factorial(G.k - 1)
        assert abc_index(G) == want


def test_apply_equals_the_edge_by_edge_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    for G in _random_graphs():
        op = TensorOperator.from_weighting(G, Weighting.ABC)
        for _ in range(3):
            x = rng.uniform(0.05, 2.0, size=G.n)
            assert np.array_equal(op.apply(x), contract_by_loop(G, op.weights, x))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_reused_workspace_contracts_as_the_edge_by_edge_loop(k):
    # One operator, and a lock-step stack of three on the vertices b*n + v.
    ops = [TensorOperator.from_weighting(gen.random_hypertree(15, k, seed), w)
           for seed, w in zip(range(3), Weighting)]
    op, n = ops[0], ops[0].n
    work = _kernels.Workspace(op.G.edge_array)
    stack = _Stack([(member.G, member.weights) for member in ops])
    E, W, stack_work = stack.edges, stack.weights, stack.work
    rng = np.random.default_rng(k)
    for _ in range(4):
        X = rng.uniform(0.05, 2.0, size=(3, n))
        out = np.zeros(n)
        _kernels.contract(op.G.edge_array, op.weights, X[0], out, work=work)
        assert np.array_equal(out, contract_by_loop(op.G, op.weights, X[0]))
        out = np.zeros((3, n))
        _kernels.contract(E, W, X.ravel(), out.ravel(), work=stack_work)
        for b, member in enumerate(ops):
            assert np.array_equal(out[b], contract_by_loop(member.G, member.weights, X[b]))
    with pytest.raises(IndexError):
        _kernels.contract(E, W, X[0], np.zeros(n), work=stack_work)
    with pytest.raises(ValueError, match="another edge array"):
        _kernels.contract(E.copy(), W, X.ravel(), np.zeros(3 * n), work=stack_work)
