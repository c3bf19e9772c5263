"""Lock-step batches: every estimate of ``spectral_radii`` equals a solve
of that member alone, bit for bit, whatever the batch mixes, and each
member's failure is its own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abctensor import build
from abctensor import generators as gen
from abctensor import spectral
from abctensor.spectral import (
    ConvergenceError,
    NotConnectedError,
    SolveOptions,
    _Stack,
    _solve_stack,
    spectral_radii,
    spectral_radius,
)
from abctensor.tensor import TensorOperator, Weighting

from helpers import solve_by_single_loop

ABC = Weighting.ABC
ADJ = Weighting.ADJACENCY
RND = Weighting.RANDIC

SINGLE_EDGE = build(3, 3, [[0, 1, 2]])  # every abc weight is zero


def _fields(est):
    x = est.eigenvector
    return (est.rho, est.lower, est.upper, est.iters, est.newton_steps, est.residual,
            x.dtype, x.shape, x.tobytes())


def _assert_batch_equals_singles(problems, opts):
    """Each batch estimate equals the lone solve field for field; when
    lone solves fail, the batch raises the first failure in input order."""
    singles = []
    for G, w in problems:
        try:
            singles.append(spectral_radius(G, w, opts))
        except ConvergenceError as exc:
            singles.append(exc)
    failed = [i for i, s in enumerate(singles) if isinstance(s, ConvergenceError)]
    if failed:
        with pytest.raises(ConvergenceError) as info:
            spectral_radii(problems, opts)
        first = singles[failed[0]]
        assert (info.value.lower, info.value.upper, info.value.iters) == (first.lower, first.upper, first.iters)
        assert str(info.value) == (f"problem {failed[0]}: {first}" if len(problems) > 1 else str(first))
        return failed
    batch = spectral_radii(problems, opts)
    assert len(batch) == len(problems)
    for est, alone in zip(batch, singles):
        assert _fields(est) == _fields(alone)
    return failed


@st.composite
def tree_or_unicyclic(draw):
    k = draw(st.integers(2, 4))
    if k == 2 or draw(st.booleans()):
        return gen.random_hypertree(draw(st.integers(1, 7)), k, draw(st.integers(0, 10**6)))
    g = draw(st.sampled_from((2, 3)))
    a = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    return gen.unicyclic_family(g + sum(a), k, g, a)


@st.composite
def batches(draw):
    """Trees and unicyclic graphs under any weighting; the first graph
    often again under every weighting (one (n, k) group of several),
    and sometimes the single edge, whose abc weights are all zero."""
    members = st.tuples(tree_or_unicyclic(), st.sampled_from(list(Weighting)))
    problems = draw(st.lists(members, min_size=1, max_size=6))
    if draw(st.booleans()):
        problems += [(problems[0][0], w) for w in Weighting]
    if draw(st.booleans()):
        problems.insert(draw(st.integers(0, len(problems))), (SINGLE_EDGE, ABC))
    return problems


@settings(max_examples=80, deadline=None)
@given(batches(), st.sampled_from([None, 0, 11]), st.sampled_from([1e-6, 1e-10, 1e-12]))
def test_batches_equal_single_solves_bit_for_bit(problems, seed, tol):
    _assert_batch_equals_singles(problems, SolveOptions(tol=tol, seed=seed))


@settings(max_examples=60, deadline=None)
@given(tree_or_unicyclic(), st.sampled_from(list(Weighting)), st.sampled_from([None, 0, 11]),
       st.sampled_from([1e-6, 1e-10, 1e-12, 1e-15]))
def test_a_batch_of_one_is_the_single_loop_bit_for_bit(G, w, seed, tol):
    # At tol 1e-15 some solves leave Newton steps for power steps, or stall.
    op = TensorOperator.from_weighting(G, w)
    opts = SolveOptions(tol=tol, seed=seed, max_iters=2000)
    try:
        rho, lower, upper, iters, newton_steps, residual, x = solve_by_single_loop(op, opts)
    except ConvergenceError as want:
        with pytest.raises(ConvergenceError) as info:
            spectral_radius(op, opts=opts)
        assert (info.value.lower, info.value.upper, info.value.iters) == (want.lower, want.upper, want.iters)
        return
    want = (rho, lower, upper, iters, newton_steps, residual, x.dtype, x.shape, x.tobytes())
    assert _fields(spectral_radius(op, opts=opts)) == want


def test_zero_member_comes_back_at_rho_zero_among_others():
    problems = [(gen.hyperpath(3, 3), ABC), (SINGLE_EDGE, ABC), (SINGLE_EDGE, ADJ)]
    _assert_batch_equals_singles(problems, SolveOptions())
    zero = spectral_radii(problems)[1]
    assert (zero.rho, zero.iters, zero.newton_steps) == (0.0, 0, 0)


def test_disconnected_member_raises_before_any_step(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral._kernels, "contract", lambda *args, **kw: calls.append(args))
    disconnected = build(3, 6, [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(NotConnectedError):
        spectral_radii([(gen.hyperstar(3, 3), ABC), (disconnected, ADJ), (gen.hyperpath(3, 3), RND)])
    assert calls == []


def test_first_member_out_of_max_iters_is_named_with_its_bracket():
    # hyperstar(5, 3) closes its bracket in 7 steps, the paths need 9 and 11.
    problems = [(gen.hyperstar(5, 3), RND), (gen.hyperpath(40, 3), RND), (gen.hyperpath(30, 3), ABC)]
    failed = _assert_batch_equals_singles(problems, SolveOptions(max_iters=8))
    assert failed == [1, 2]


def test_members_leave_newton_for_power_steps_at_different_steps(monkeypatch):
    # At tol 1e-15 the upper bound of these 25-vertex trees reaches its
    # rounding floor under Newton steps, member by member.
    newton_step = spectral._newton_step
    left = []

    def recorded(stack, members, *args):
        took, *state = newton_step(stack, members, *args)
        left.append(members[~took].tolist())
        return took, *state

    monkeypatch.setattr(spectral, "_newton_step", recorded)
    trees = [gen.hyperpath(12, 3)] + [gen.random_hypertree(12, 3, s) for s in range(6)]
    problems = [(T, w) for T in trees for w in Weighting]
    opts = SolveOptions(tol=1e-15, max_iters=2000)
    assert spectral_radii(problems, opts)
    steps_with_departures = [i for i, members in enumerate(left) if members]
    assert len(steps_with_departures) >= 2
    monkeypatch.setattr(spectral, "_newton_step", newton_step)
    _assert_batch_equals_singles(problems, opts)


def test_singular_system_sends_only_its_member_to_power_steps(monkeypatch):
    ops = [TensorOperator.from_weighting(gen.hyperpath(8, 3), w) for w in Weighting]
    target = ops[1]
    bordered = spectral._bordered_matrices

    def singular_for_target(stack, members, *args):
        M = bordered(stack, members, *args)
        for b, g in enumerate(members.tolist()):
            if stack.ops[g] is target:
                M[b] = 0.0
        return M

    clean = [spectral_radius(op) for op in ops]
    monkeypatch.setattr(spectral, "_bordered_matrices", singular_for_target)
    batch = spectral_radii(ops)
    assert [_fields(e) for e in batch] == [_fields(spectral_radius(op)) for op in ops]
    assert batch[1].newton_steps == 0 < clean[1].newton_steps
    assert [_fields(batch[b]) for b in (0, 2)] == [_fields(clean[b]) for b in (0, 2)]


def test_solve_stack_masks_only_the_singular_systems():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(3, 5, 5))
    M[1] = 0.0
    rhs = rng.normal(size=(3, 5))
    out, ok = _solve_stack(M, rhs)
    assert ok.tolist() == [True, False, True]
    for b in (0, 2):
        assert out[b].tobytes() == np.linalg.solve(M[b], rhs[b]).tobytes()


def test_newton_stacks_split_into_chunks_of_bounded_size(monkeypatch):
    # With the cap at n = 30, one 26 x 26 system fills a chunk.
    monkeypatch.setattr(spectral, "NEWTON_MAX_N", 30)
    solve_stack = spectral._solve_stack
    sizes = []

    def recorded(M, rhs):
        sizes.append(M.shape)
        return solve_stack(M, rhs)

    monkeypatch.setattr(spectral, "_solve_stack", recorded)
    problems = [(gen.hyperpath(12, 3), w) for w in Weighting]
    batch = spectral_radii(problems)
    assert sizes and all(size == (1, 26, 26) for size in sizes)
    assert any(e.newton_steps for e in batch)
    monkeypatch.setattr(spectral, "_solve_stack", solve_stack)
    _assert_batch_equals_singles(problems, SolveOptions())


def test_a_batch_of_one_contracts_its_own_edge_array(monkeypatch):
    op = TensorOperator.from_weighting(gen.hyperpath(30, 3), ABC)
    contract = spectral._kernels.contract
    edges = []

    def recorded(edge_idx, weights, x, out, *, work):
        edges.append(edge_idx)
        contract(edge_idx, weights, x, out, work=work)

    monkeypatch.setattr(spectral._kernels, "contract", recorded)
    est = spectral_radius(op)
    assert est.newton_steps > 0 and len(edges) > est.iters
    assert all(E is op.G.edge_array for E in edges)
    assert _Stack([op]).arrays(np.arange(1))[0] is op.G.edge_array
