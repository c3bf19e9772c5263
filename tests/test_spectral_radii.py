"""Lock-step batches: every estimate of ``spectral_radii`` equals a solve
of that member alone, bit for bit, whatever the batch mixes, and each
member's failure is its own."""

import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abctensor import build
from abctensor import generators as gen
from abctensor import spectral, verify
from abctensor.spectral import (
    ConvergenceError,
    NotConnectedError,
    SolveOptions,
    _solve_stack,
    spectral_radii,
    spectral_radius,
)
from abctensor.tensor import TensorOperator, Weighting

from helpers import estimate_fields, solve_by_single_loop

ABC = Weighting.ABC
ADJ = Weighting.ADJACENCY
RND = Weighting.RANDIC

SINGLE_EDGE = build(3, 3, [[0, 1, 2]])  # every abc weight is zero


def _assert_batch_equals_singles(problems, opts):
    """Each batch estimate equals the lone solve field for field; when
    lone solves fail, the batch raises the first failure in input order.
    A problem is a (hypergraph, weighting) pair or an operator."""
    singles = []
    for p in problems:
        try:
            singles.append(spectral_radius(*p, opts) if isinstance(p, tuple) else spectral_radius(p, opts=opts))
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
        assert estimate_fields(est) == estimate_fields(alone)
    return failed


@st.composite
def tree_or_unicyclic(draw, k=None):
    k = k or draw(st.integers(2, 4))
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
    assert estimate_fields(spectral_radius(op, opts=opts)) == want


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
    # hyperstar(5, 3) closes its bracket in 7 steps, the paths need 9 and
    # 11.  The Randic operators start uniform, not at their eigenvectors.
    problems = [TensorOperator.from_weighting(gen.hyperstar(5, 3), RND),
                TensorOperator.from_weighting(gen.hyperpath(40, 3), RND), (gen.hyperpath(30, 3), ABC)]
    failed = _assert_batch_equals_singles(problems, SolveOptions(max_iters=8))
    assert failed == [1, 2]


def test_members_leave_newton_for_power_steps_at_different_steps(monkeypatch):
    # At tol 1e-15 the upper bound of these 25-vertex trees reaches its
    # rounding floor under Newton steps, member by member.
    newton_step = spectral._newton_step
    left = []

    def recorded(lay, mask, *args):
        took, *state = newton_step(lay, mask, *args)
        left.append((mask & ~took).nonzero()[0].tolist())
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

    def singular_for_target(sub, *args):
        for chunk, M in bordered(sub, *args):
            first, end, _, _, edges = chunk
            # The operators share one hypergraph, so each member has m weights.
            for b, W in enumerate(np.split(sub.weights[edges], end - first)):
                if np.array_equal(W, target.weights):
                    M[b] = 0.0
            yield chunk, M

    clean = [spectral_radius(op) for op in ops]
    monkeypatch.setattr(spectral, "_bordered_matrices", singular_for_target)
    batch = spectral_radii(ops)
    assert [estimate_fields(e) for e in batch] == [estimate_fields(spectral_radius(op)) for op in ops]
    assert batch[1].newton_steps == 0 < clean[1].newton_steps
    assert [estimate_fields(batch[b]) for b in (0, 2)] == [estimate_fields(clean[b]) for b in (0, 2)]


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


def test_a_batch_of_one_contracts_one_edge_array_through_one_workspace(monkeypatch):
    op = TensorOperator.from_weighting(gen.hyperpath(30, 3), ABC)
    contract, allocate = spectral._kernels.contract, spectral._kernels.Workspace._allocate
    edges, allocations = [], []

    def recorded(edge_idx, weights, x, out, *, work):
        edges.append(edge_idx)
        contract(edge_idx, weights, x, out, work=work)

    def counted(work):
        allocations.append(work.edge_idx)
        allocate(work)

    monkeypatch.setattr(spectral._kernels, "contract", recorded)
    monkeypatch.setattr(spectral._kernels.Workspace, "_allocate", counted)
    est = spectral_radius(op)
    assert est.newton_steps > 0 and len(edges) > est.iters
    assert all(E is edges[0] for E in edges) and len(allocations) == 1 and allocations[0] is edges[0]
    assert np.array_equal(edges[0], op.G.edge_array)


def test_done_members_ride_along_and_never_take_a_newton_step(monkeypatch):
    # An all-zero operator is done before the first step, the Randic
    # pairs close at step 1 from their exact eigenvectors, and the paths
    # go on to Newton steps with those done members in the stack.
    newton_step, finish = spectral._newton_step, spectral._finish
    done, masks = set(), []

    def finished(stack, b, *args):
        done.add(b)
        return finish(stack, b, *args)

    def recorded(stack, mask, *args):
        masks.append((mask.copy(), set(done) | set((~stack.weighted()).nonzero()[0].tolist())))
        return newton_step(stack, mask, *args)

    problems = [(gen.hyperpath(60, 3), ABC), (gen.random_hypertree(30, 3, 1), RND),
                TensorOperator(gen.hyperpath(4, 3), np.zeros(4)), (gen.hyperstar(5, 3), RND),
                (gen.hyperpath(40, 3), ADJ), (gen.random_hypertree(60, 3, 2), RND)]
    monkeypatch.setattr(spectral, "_newton_step", recorded)
    monkeypatch.setattr(spectral, "_finish", finished)
    batch = spectral_radii(problems)
    assert [e.iters for e in batch[1::2]] == [1, 1, 1] and batch[2].iters == 0
    assert masks and all(not mask[list(gone)].any() for mask, gone in masks)
    assert all(len(gone) >= 4 for _, gone in masks)  # the zero and Randic members ride along
    monkeypatch.undo()
    _assert_batch_equals_singles(problems, SolveOptions())


def test_done_members_outside_the_open_span_are_not_contracted(monkeypatch):
    # The largest member, last by n, closes at step 1 from its exact
    # Randic eigenvector while the paths go on.  Riding along, its 2*10^4
    # edges were contracted at every later step, ten times the rows of
    # the lone solves.
    contract, rows = spectral._kernels.contract, [0]

    def counted(edge_idx, *args, **kw):
        rows[0] += len(edge_idx)
        contract(edge_idx, *args, **kw)

    problems = [(gen.hyperpath(60, 3), ABC), (gen.hyperpath(60, 3), ADJ),
                (gen.random_connected_hypergraph(20_000, 3, 1), RND)]
    monkeypatch.setattr(spectral._kernels, "contract", counted)
    batch = spectral_radii(problems)
    batch_rows, rows[0] = rows[0], 0
    alone = [spectral_radius(*p) for p in problems]
    assert batch[2].iters == 1 and min(e.iters for e in batch[:2]) > 1
    assert abs(batch_rows - rows[0]) <= 0.01 * rows[0]
    assert [estimate_fields(e) for e in batch] == [estimate_fields(e) for e in alone]


def test_no_solved_stack_is_reachable_when_the_next_solve_starts(monkeypatch):
    solve, solved = spectral._solve, []

    def checked(stack, opts):
        assert all(ref() is None for ref in solved)
        solved.append(weakref.ref(stack))
        return solve(stack, opts)

    monkeypatch.setattr(spectral, "_solve", checked)
    spectral_radii([(gen.hyperpath(m, k), w) for k in (2, 3, 4) for m in (3, 5) for w in Weighting])
    assert len(solved) == 3


def _assert_batch_equals_single_loops(problems, opts):
    """Each batch estimate equals ``solve_by_single_loop`` of its member
    field for field; when single loops fail, the batch raises the first
    failure in input order."""
    singles = []
    for G, w in problems:
        try:
            rho, lower, upper, iters, newton_steps, residual, x = solve_by_single_loop(
                TensorOperator.from_weighting(G, w), opts, w)
            singles.append((rho, lower, upper, iters, newton_steps, residual, x.dtype, x.shape, x.tobytes()))
        except ConvergenceError as exc:
            singles.append(exc)
    failed = [s for s in singles if isinstance(s, ConvergenceError)]
    if failed:
        with pytest.raises(ConvergenceError) as info:
            spectral_radii(problems, opts)
        assert (info.value.lower, info.value.upper, info.value.iters) == (failed[0].lower, failed[0].upper, failed[0].iters)
        return
    assert [estimate_fields(e) for e in spectral_radii(problems, opts)] == singles


@st.composite
def wide_batches(draw):
    """10 to 40 problems of one k and mixed n, so that members leave the
    stack at different steps, some of them after Newton steps."""
    k = draw(st.integers(2, 4))
    members = st.tuples(tree_or_unicyclic(k), st.sampled_from(list(Weighting)))
    return draw(st.lists(members, min_size=10, max_size=40))


@settings(max_examples=25, deadline=None)
@given(wide_batches(), st.sampled_from([None, 5]), st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_wide_one_k_batches_equal_single_loops_bit_for_bit(problems, seed, tol):
    _assert_batch_equals_single_loops(problems, SolveOptions(tol=tol, seed=seed, max_iters=5000))


@settings(max_examples=15, deadline=None)
@given(wide_batches(), st.sampled_from([None, 5]))
def test_a_stack_mixing_members_with_and_without_newton_steps(problems, seed):
    # With the cap at the least n, the larger members stay on power steps
    # while the least may switch; the single loops read the same cap.
    sizes = [G.n for G, _ in problems]
    assume(min(sizes) < max(sizes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "NEWTON_MAX_N", min(sizes))
        _assert_batch_equals_single_loops(problems, SolveOptions(seed=seed, max_iters=5000))


@pytest.mark.parametrize("problem, kind", [
    (gen.hyperstar(3, 3), "UniformHypergraph"),
    ((gen.hyperstar(3, 3),), "(UniformHypergraph)"),
    ((gen.hyperstar(3, 3), ABC, ABC), "(UniformHypergraph, Weighting, Weighting)"),
    ((gen.hyperstar(3, 3), None), "(UniformHypergraph, NoneType)"),
    ((TensorOperator.from_weighting(gen.hyperstar(3, 3), ABC), ABC), "(TensorOperator, Weighting)"),
    ("abc", "str"),
], ids=["hypergraph", "1-tuple", "3-tuple", "no-weighting", "operator-pair", "string"])
def test_a_malformed_problem_is_named_by_its_index(problem, kind, monkeypatch):
    calls = []
    monkeypatch.setattr(spectral._kernels, "contract", lambda *args, **kw: calls.append(args))
    message = rf"^problem 1 is {re.escape(kind)}: a problem is a TensorOperator or a \(hypergraph, weighting\) pair$"
    with pytest.raises(TypeError, match=message):
        spectral_radii([(gen.hyperpath(3, 3), ADJ), problem])
    assert calls == []


def test_the_default_suite_steps_one_stack_per_k_in_few_kernel_calls(monkeypatch):
    # One group per (n, k) made 32 groups and 479 kernel calls a pass.
    contract = spectral._kernels.contract
    calls, stacks = [], []

    def counted(*args, **kw):
        calls.append(args[0].shape)
        contract(*args, **kw)

    def recorded(problems):
        stacks.append((problems[0][0].k, len(problems)))
        return stack(problems)

    stack = spectral._Stack
    monkeypatch.setattr(spectral._kernels, "contract", counted)
    monkeypatch.setattr(spectral, "_Stack", recorded)
    assert all(r.ok for r in verify.default_suite())
    assert sorted(stacks) == [(2, 45), (3, 161), (4, 170)]
    assert len(calls) == 120


def test_the_default_suite_lays_out_each_stack_once(monkeypatch):
    # Members keep their rows for the whole solve, so every kernel call of
    # a solve (one with a workspace; ``residual_of`` has none) contracts
    # the edge array of one of the three stacks or a span of its rows, a
    # view of it.  A layout taken at each close made 21 a pass, and one
    # per member set taking a step 44.
    init, contract = spectral._Stack.__init__, spectral._kernels.contract
    layouts, arrays = [], []

    def laid_out(self, problems):
        init(self, problems)
        layouts.append(self.edges)

    def counted(edges, *args, **kw):
        if kw.get("work") is not None and not any(edges is E for E in arrays):
            arrays.append(edges)
        contract(edges, *args, **kw)

    monkeypatch.setattr(spectral._Stack, "__init__", laid_out)
    monkeypatch.setattr(spectral._kernels, "contract", counted)
    assert all(r.ok for r in verify.default_suite())
    assert len(layouts) == 3 and all(any(E is L for E in arrays) for L in layouts)
    assert all(any(E is L or E.base is L for L in layouts) for E in arrays)
