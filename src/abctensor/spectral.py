"""Spectral radius of the implicit nonnegative tensor of a hypergraph.

One loop, two kinds of step.  With T the edge-weighted tensor and s > 0,
a shifted power step is

    y = T x^{k-1} + s * x^{[k-1]},   x' = y^{[1/(k-1)]} renormalized.

For every positive x the ratios y_i / x_i^{k-1} bracket rho(T) + s
(Collatz-Wielandt for nonnegative tensors), and the positive diagonal
shift makes the iteration convergent whenever the hypergraph is
connected (the tensor is then weakly irreducible).  Convergence is
declared on the certified bracket, never on vector movement.

Power steps converge linearly, and on long paths their rate tends to 1.
The loop watches how fast the ratio spread shrinks and, once the power
steps still needed would cost more than a few Newton steps, switches to
Newton-Noda steps (Liu, Guo and Lin, Numer. Math. 137, 2017): a Newton
step on ``T x^{k-1} = lam x^{[k-1]}`` with lam the upper Collatz bound,
damped by halving until x stays positive and the upper bound strictly
drops.  They converge quadratically.  The bracket is the same Collatz
certificate at every accepted x, so either kind of step may end the
solve.  Newton brackets end a few ulps wide, below the rounding error of
a computed ratio, so a bracket that narrow is widened by that error.

``spectral_radii`` is the one loop; ``spectral_radius`` is a batch of
one, on the same path.  It stacks its problems by edge size k, and the
members of a stack take every step in lock step.  Each member keeps its
own bracket, switch rule and kind of step.  A stack lays its members out
once, end to end and sorted by n, member b's vertex v as start[b] + v,
on one edge array of their own, and keeps those rows for the whole
solve: each step contracts, in one kernel call, the edges from the first
open member to the last and keeps the rows of the members taking that
step, and each Newton step factors the bordered systems of each run of
equal n in one stacked solve.  A member is done when its own bracket
closes, or at once when its weights are all zero; it is never watched or
given a Newton step again, and rides along on the power steps of the
others while it lies between open members, so every estimate equals a
solve of that operator alone, bit for bit.

The start is uniform, or seeded-random for a seed.  A problem given as a
hypergraph with Randić weights starts, unseeded, at ``k_unit(d^{1/k})``:
an exact eigenvector (rho = 1, the paper's Randić theorem), where every
Collatz ratio is 1 up to rounding and the bracket closes at step 1.  An
operator does not name its weighting and starts uniform.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernels
from .hypergraph import UniformHypergraph, _component_roots
from .tensor import TensorOperator, Weighting, _degree_weights, k_unit


NEWTON_MAX_N = 4096
"""Largest n given Newton steps.  Their dense bordered system holds
(n+1)^2 doubles, 128 MB at this n, and ``np.linalg.solve`` factors a copy
of it, so a step peaks at about 2 (n+1)^2 doubles (256 MB) plus the
m*k*(k-1) vertex-pair arrays.  Larger inputs stay on power steps.  The
lock-step stack of one k builds its members' systems in chunks of at
most (NEWTON_MAX_N+1)^2 doubles, summed as sum_b (n_b+1)^2, so the same
bound holds for a batch."""

_WINDOW = 4
"""Power steps over which the contraction rate of the ratio spread is read."""

_HALVINGS = 10
"""Halvings of theta tried before a Newton step gives way to a power step."""

_STEP_FLOPS = 3e5
"""Fixed cost of one step, in LU flops: a power step at n <= 121 takes
about 45 us (numpy call overhead), while a dense LU runs at about
7 GFLOP/s (25 ms for n = 801), both measured on a 2-vCPU x86-64 VM."""

_NEWTON_STEPS = 8
"""Newton steps a switch is priced at: from where the switch happens the
verify suite and the slow hyperpaths and hypertrees need 2 to 23, the
first ones damped."""


class NotConnectedError(ValueError):
    """Spectral solves require connected input (weak irreducibility)."""


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, lower: float, upper: float, iters: int):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.iters = iters


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iters: int = 200_000
    shift: float = 1.0
    seed: Optional[int] = None  # None: the weighting's start; else seeded-random

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if not _is_int(self.max_iters):
            raise ValueError(f"max_iters must be an integer, not {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (math.isfinite(self.shift) and self.shift > 0):
            raise ValueError("shift must be positive and finite")
        if not (self.seed is None or _is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be None or an integer >= 0, not {self.seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SpectralEstimate:
    rho: float
    eigenvector: np.ndarray
    lower: float
    upper: float
    iters: int
    residual: float
    newton_steps: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _initial_vector(n: int, k: int, opts: SolveOptions) -> np.ndarray:
    """The first vector of n entries: uniform, or seeded-random for a seed."""
    if opts.seed is None:
        return np.full(n, n ** (-1.0 / k))
    rng = np.random.default_rng(opts.seed)
    return k_unit(rng.uniform(0.5, 1.5, size=n), k)


def _as_problem(i: int, p) -> tuple:
    """Problem i as a (hypergraph, weights or Weighting) pair."""
    if isinstance(p, TensorOperator):
        return p.G, p.weights
    if isinstance(p, (tuple, list)) and len(p) == 2 and isinstance(p[0], UniformHypergraph) and p[1] is not None:
        return p[0], Weighting(p[1])
    kind = f"({', '.join(type(q).__name__ for q in p)})" if isinstance(p, (tuple, list)) else type(p).__name__
    raise TypeError(f"problem {i} is {kind}: a problem is a TensorOperator or a (hypergraph, weighting) pair")


def spectral_radius(
    G: Union[UniformHypergraph, TensorOperator],
    weighting: Optional[Weighting] = None,
    opts: SolveOptions = SolveOptions(),
) -> SpectralEstimate:
    """Spectral radius and positive k-unit eigenvector, with a certified
    bracket ``lower <= rho <= upper`` of relative width ``opts.tol``.

    G is an operator alone, or a hypergraph with a ``weighting``, a
    member or its value; anything else raises TypeError or ValueError.
    Without a seed, a hypergraph under Randić weights starts at its
    exact eigenvector ``k_unit(d^{1/k})`` and every other problem at the
    uniform vector.

    ``opts.max_iters`` bounds the steps of both kinds; ``newton_steps`` of
    the result counts the Newton ones.  Each end carries the rounding
    error of one computed ratio, at most ``_ratio_error``.  A bracket
    narrower than twice that error (Newton steps and tiny tolerances end
    there; rounding may even cross the two bounds, which are then
    swapped) is widened by it on each side, so it still holds rho but may
    be wider than ``opts.tol``; rho is the midpoint before widening.
    Wider brackets are returned as computed.  A hypergraph
    whose weights are all zero (the single-edge case under the abc rule)
    short-circuits to rho = 0.  Disconnected input raises
    NotConnectedError, and so does an operator with a nonzero weight
    whose nonzero-weight edges do not connect it; bracket stagnation
    past max_iters raises ConvergenceError carrying the last bracket,
    and so does a bracket
    that admits rho <= 0, where the shift has swamped every digit of rho.
    """
    if isinstance(G, TensorOperator) != (weighting is None):
        raise TypeError("pass an operator alone, or a hypergraph and its weighting")
    return spectral_radii([G if weighting is None else (G, weighting)], opts)[0]


def spectral_radii(
    problems: Sequence[Union[TensorOperator, tuple[UniformHypergraph, Weighting]]],
    opts: SolveOptions = SolveOptions(),
) -> list[SpectralEstimate]:
    """``spectral_radius`` of every problem, an operator or a (hypergraph,
    weighting) pair, each estimate equal bit for bit to a solve of that
    problem alone.

    The problems of one k are solved as one stack: every member takes
    each step in lock step with the others until its own bracket
    closes.  TypeError names the first problem that is neither an
    operator nor such a pair.  NotConnectedError is raised before any
    step for a disconnected problem and then for one with a nonzero
    weight that its nonzero-weight edges do not connect; ConvergenceError
    for the first problem, in input order, that fails, after all are
    solved.
    """
    problems = [_as_problem(i, p) for i, p in enumerate(problems)]
    by_k: dict = {}
    for i, (G, _) in enumerate(problems):
        by_k.setdefault(G.k, []).append(i)
    stacks = []
    for index in by_k.values():
        index.sort(key=lambda i: problems[i][0].n)
        stacks.append((index, _Stack([problems[i] for i in index])))
    if not all(stack.connected() for _, stack in stacks):
        raise NotConnectedError("hypergraph is not connected")
    if not all(stack.weights_connect() for _, stack in stacks):
        raise NotConnectedError("hypergraph is not connected by its nonzero-weight edges")
    out: list = [None] * len(problems)
    while stacks:  # each stack and its workspace go once solved
        index, stack = stacks.pop()
        for i, est in zip(index, _solve(stack, opts)):
            out[i] = est
    for i, est in enumerate(out):
        if isinstance(est, ConvergenceError):
            if len(out) > 1:
                est.args = (f"problem {i}: {est}",)
            raise est
    return out


class _Stack:
    """The (hypergraph, weights or Weighting) problems of one k, sorted
    by n, numbered end to end, member b's vertex v as ``starts[b] + v``,
    so that one kernel call contracts all of them: their graphs,
    ``sizes``, max degrees, ``runs`` of equal n as (first vertex, end,
    count, n), edges, weights, kernel workspace, each edge's member
    ``owner``, each member's first edge ``cut``, and the Randić members.
    The weights, the connectivity test and the zero test are done once
    for all members.  A stack has its own kernel workspaces, one for all
    of its edges and one for the ``span`` of edges it now contracts, so
    it belongs to one solve."""

    def __init__(self, problems):
        self.graphs = [G for G, _ in problems]
        self.k = self.graphs[0].k
        self.sizes = sizes = np.array([G.n for G in self.graphs])
        counts = [G.m for G in self.graphs]
        ends = np.cumsum(sizes)
        self.starts = ends - sizes
        self.cut = [0, *np.cumsum(counts).tolist()]
        self.owner = np.repeat(np.arange(len(sizes)), counts)
        self.edges = np.concatenate([G.edge_array for G in self.graphs])
        self.edges += self.starts[self.owner][:, None]
        bounds = [0, *((sizes[1:] != sizes[:-1]).nonzero()[0] + 1).tolist(), len(sizes)]
        first = [*self.starts[bounds[:-1]].tolist(), int(ends[-1])]
        self.runs = [(first[r], first[r + 1], bounds[r + 1] - bounds[r], int(sizes[bounds[r]])) for r in range(len(bounds) - 1)]
        self.weights, self.work = np.empty(len(self.edges)), _kernels.Workspace(self.edges)
        self.span, self._rows = (self.edges, self.weights, self.work), (0, len(self.edges))
        self._chunks = None
        degrees = np.bincount(self.edges.ravel(), minlength=int(ends[-1]))
        self.max_degree = np.maximum.reduceat(degrees, self.starts).tolist()
        self.randic = [b for b, (_, w) in enumerate(problems) if w is Weighting.RANDIC]
        self._weigh(problems, degrees)

    def _weigh(self, problems, degrees):
        """Fill in the weights of every member's edges: a given array as
        it is, else one ``_degree_weights`` call per weighting over the
        stacked degrees, equal bit for bit to ``edge_weights``."""
        W, rules = self.weights, {}
        for b, (_, w) in enumerate(problems):
            if isinstance(w, np.ndarray):
                W[self.cut[b] : self.cut[b + 1]] = w
            else:
                rules.setdefault(w, []).append(b)
        for w, members in rules.items():
            mask = np.zeros(len(problems), dtype=bool)
            mask[members] = True
            rows = mask[self.owner]
            W[rows] = 1.0 if w is Weighting.ADJACENCY else _degree_weights(degrees[self.edges[rows]], self.k, w)

    def connected(self) -> bool:
        """Whether every member is connected: its least vertex is the root
        of all of its vertices."""
        roots = _component_roots(self.edges, int(self.sizes.sum()))
        return bool(np.array_equal(roots, np.repeat(self.starts, self.sizes)))

    def weights_connect(self) -> bool:
        """Whether each member with a nonzero weight is connected by its
        nonzero-weight edges; the edges are copied only when some weight
        is zero."""
        if self.weights.all():
            return True
        roots = _component_roots(self.edges[self.weights != 0.0], int(self.sizes.sum()))
        judged = np.repeat(self.weighted(), self.sizes)
        return bool(np.array_equal(roots[judged], np.repeat(self.starts, self.sizes)[judged]))

    def weighted(self) -> np.ndarray:
        """Whether each member has a nonzero weight."""
        return np.bincount(self.owner[self.weights != 0.0], minlength=len(self.graphs)) > 0

    def start(self, opts) -> np.ndarray:
        """Every member's first vector, end to end: seeded-random for a
        seed, else uniform, but ``k_unit(d^{1/k})`` for a Randić member.
        That is an exact eigenvector: each ratio ``(T x^{k-1})_v /
        x_v^{k-1}`` is ``d_v^{1-1/k} / d_v^{1-1/k}`` = 1."""
        k = self.k
        X = np.concatenate([np.tile(_initial_vector(n, k, opts), c) for _, _, c, n in self.runs])
        if opts.seed is None:
            for b in self.randic:
                X[self.starts[b] : self.starts[b] + self.sizes[b]] = k_unit(self.graphs[b].degree_array ** (1.0 / k), k)
        return X

    def rep(self, values):
        """One value per member, spread over its vertices: the bare value
        for a single member, whose arithmetic then skips broadcasting."""
        return values[0] if len(self.sizes) == 1 else np.repeat(values, self.sizes)

    def chunks(self):
        """The members in chunks for Newton steps, computed once: runs of
        consecutive members of one n whose bordered systems take at most
        ``(NEWTON_MAX_N + 1)^2`` doubles, at least one member each, as
        (first member, end member, n, vertex slice, edge slice); and, for
        each edge, the n + 1 and the base at which the cell (u, v) of its
        member's system lies at base + u (n + 1) + v in its chunk."""
        if self._chunks is None:
            verts, block, chunks, first = [*self.starts.tolist(), self.runs[-1][1]], np.empty_like(self.sizes), [], 0
            for _, _, count, n in self.runs:
                per = max(1, (NEWTON_MAX_N + 1) ** 2 // (n + 1) ** 2)
                for a in range(first, first + count, per):
                    b = min(a + per, first + count)
                    chunks.append((a, b, n, slice(verts[a], verts[b]), slice(self.cut[a], self.cut[b])))
                    block[a:b] = np.arange(b - a) * (n + 1) ** 2
                first += count
            side, base = self.sizes + 1, block - self.starts * (self.sizes + 2)
            self._chunks = chunks, side[self.owner][:, None], base[self.owner][:, None]
        return self._chunks

    def narrow(self, live):
        """Contract from now on only the edges from the first member of
        ``live`` to the last, none when it is empty, through a workspace
        of that slice, made when the span changes; members outside it
        then take ``T x^{k-1}`` as 0."""
        at = live.nonzero()[0]
        rows = (self.cut[at[0]], self.cut[at[-1] + 1]) if len(at) else (0, 0)
        if rows != self._rows:
            E = self.edges[rows[0] : rows[1]]
            self.span, self._rows = (E, self.weights[rows[0] : rows[1]], _kernels.Workspace(E)), rows

    def evaluate(self, X, s, whole=False):
        """``x^{[k-1]}`` and the shifted image ``T x^{k-1} + s x^{[k-1]}``
        of each member's vector x in X, over the ``span`` of edges or
        the ``whole`` stack; the contraction adds into ``s x^{[k-1]}``,
        which rounds as adding that to it does."""
        XK1 = X ** (self.k - 1)
        Y = s * XK1
        E, W, work = (self.edges, self.weights, self.work) if whole else self.span
        _kernels.contract(E, W, X, Y, work=work)
        return XK1, Y


def _solve(stack, opts) -> list:
    """The estimate, or the ConvergenceError, of each member of one
    stack, all stepped in lock step.

    X, XK1, Y and R hold every member's vectors end to end, member b at
    rows ``starts[b] : starts[b] + sizes[b]`` for the whole solve, and
    entry b of each per-member array is its state.  A member whose
    bracket closes, or whose weights are all zero, is done: its estimate
    is recorded, and it is never watched or given a Newton step again.
    Each step contracts, in one kernel call, the span of edges from the
    first open member to the last (``_Stack.narrow``) and keeps the rows
    of the members that take it: done members inside the span ride along
    on the power steps of the others, and those outside it are no longer
    contracted.  The residuals take one call over the whole stack at the
    end.
    """
    k, s = stack.k, opts.shift
    out: list = [None] * len(stack.graphs)
    X = stack.start(opts)
    live = stack.weighted()  # the open members
    for b in (~live).nonzero()[0].tolist():
        out[b] = 0.0, X[stack.starts[b] : stack.starts[b] + stack.sizes[b]].copy(), 0.0, 0.0, 0, 0
    stack.narrow(live)
    XK1, Y = stack.evaluate(X, s)
    lo, up = np.full(len(out), -math.inf), np.full(len(out), math.inf)
    newton, steps = np.zeros(len(out), dtype=bool), np.zeros(len(out), dtype=int)
    watching = live & (stack.sizes <= NEWTON_MAX_N)  # may yet switch to Newton steps
    marks = collections.deque(maxlen=_WINDOW + 1)  # the spreads of the last steps
    for iters in range(1, opts.max_iters + 1 if _ANY(live) else 1):  # an all-zero stack takes no step
        R = Y / XK1
        hi, low = _MAXAT(R, stack.starts), _MINAT(R, stack.starts)
        lo, up = np.fmax(lo, low), np.fmin(up, hi)  # as Python's max and min, which skip NaN
        closed = live & (up - lo <= opts.tol * np.fmax(1.0, up - s))
        if _ANY(closed):
            for b in closed.nonzero()[0].tolist():
                x = X[stack.starts[b] : stack.starts[b] + stack.sizes[b]].copy()
                out[b] = _finish(stack, b, x, float(lo[b]), float(up[b]), iters, s, int(steps[b]))
            live, newton, watching = live & ~closed, newton & ~closed, watching & ~closed
            if not _ANY(live):
                break
            stack.narrow(live)
        if _ANY(watching):  # a watched member has read its spread at every step
            marks.append((hi - low).tolist())
            if len(marks) > _WINDOW:
                for b in watching.nonzero()[0].tolist():
                    G, target = stack.graphs[b], opts.tol * max(1.0, float(up[b]) - s)
                    if _newton_pays(G.m, G.n, k, marks[0][b], marks[-1][b], target):
                        newton[b], watching[b] = True, False
        power = None
        if _ANY(newton):
            # A member that takes no step has met its rounding floor, where
            # power steps are the cheaper way on, and leaves Newton steps.
            newton, X, XK1, Y = _newton_step(stack, newton, X, XK1, Y, R, hi, s)
            steps += newton
            power = ~newton  # done members ride along
            if not _ANY(power & live):  # every open member is on Newton steps
                continue
        if power is None or _ALL(power):
            X, XK1, Y = _power_step(stack, Y, s)
        else:
            rows = np.repeat(power, stack.sizes)
            PX, PXK1, PY = _power_step(stack, Y.copy(), s)
            X[rows], XK1[rows], Y[rows] = PX[rows], PXK1[rows], PY[rows]
    else:
        for b in live.nonzero()[0].tolist():
            lower, upper = float(lo[b]) - s, float(up[b]) - s
            out[b] = ConvergenceError(
                f"bracket still {up[b] - lo[b]:.3e} wide after {opts.max_iters} iterations "
                f"(lower={lower:.17g}, upper={upper:.17g}, iters={opts.max_iters})",
                lower, upper, opts.max_iters,
            )

    done = [b for b, est in enumerate(out) if isinstance(est, tuple)]
    if done:
        rho = np.zeros(len(out))
        for b in done:
            rho[b] = out[b][0]
            X[stack.starts[b] : stack.starts[b] + stack.sizes[b]] = out[b][1]
        XK1, TX = stack.evaluate(X, 0.0, whole=True)  # T x^{k-1} added to 0 x^{[k-1]}, which is 0
        res = _MAXAT(np.abs(TX - stack.rep(rho) * XK1), stack.starts).tolist()
        for b in done:
            rho, x, lower, upper, iters, newton_steps = out[b]
            out[b] = SpectralEstimate(rho, x, lower, upper, iters, res[b], newton_steps)
    return out


def _finish(stack, b, x, lo, up, iters, s, newton_steps):
    """``(rho, x, lower, upper, iters, newton_steps)`` of member b, the
    certified bracket widened where it is narrower than rounding, or a
    ConvergenceError when that bracket admits rho <= 0."""
    lower, upper = sorted((lo - s, up - s))  # rounding may cross them
    rho = (lower + upper) / 2.0
    pad = _ratio_error(stack.max_degree[b], stack.k, up)
    if upper - lower < 2.0 * pad:
        lower, upper = lower - pad, upper + pad
    if lower <= 0.0:
        return ConvergenceError(
            f"bracket [{lower:.17g}, {upper:.17g}] admits rho <= 0 after {iters} "
            f"iterations: the shift {s:g} swamps every digit of rho; lower the shift",
            lower, upper, iters,
        )
    return rho, x, lower, upper, iters, newton_steps


_MAXAT, _MINAT = np.maximum.reduceat, np.minimum.reduceat
_ANY, _ALL = np.logical_or.reduce, np.logical_and.reduce
"""Maxima and minima of each member's segment (``_MAXAT(A, starts)``),
any and all: the ufunc reductions without the ``ndarray`` method
wrappers, which cost more than the work on the short segments of the
verify suite.  Maxima and minima are exact in any order."""


def _power_step(stack, Y, s):
    """The shifted power step from the image y of each member of ``stack``
    (overwritten): ``x' = y^{[1/(k-1)]}`` made k-unit, with its
    ``x'^{[k-1]}`` and image."""
    Y /= stack.rep(_MAXAT(Y, stack.starts))
    X = _k_unit_rows(stack, Y ** (1.0 / (stack.k - 1)))
    return (X, *stack.evaluate(X, s))


def _k_unit_rows(stack, X):
    """``k_unit`` of each member's vector in X, in place and equal bit for
    bit where its sum of x^k is finite and nonzero, as after a power
    step, whose largest entry is 1.  The sums are row sums over the 2-D
    runs of equal n, pairwise as ``np.sum`` of one vector is
    (``np.add.reduceat`` sums sequentially), and the norms take Python's
    float power, as ``k_unit`` does, not numpy's."""
    k = stack.k
    P = X**k
    norms = [t ** (1.0 / k) for a, b, c, n in stack.runs for t in np.add.reduce(P[a:b].reshape(c, n), 1).tolist()]
    if 0.0 in norms:
        raise ValueError("cannot normalize the zero vector")
    X /= stack.rep(norms)
    return X


def _newton_pays(m: int, n: int, k: int, spread_mark: float, spread: float, target: float) -> bool:
    """Whether the power steps still needed by an operator of n vertices
    and m edges of size k cost more than ``_NEWTON_STEPS`` Newton steps.

    The ratio spread contracted from ``spread_mark`` to ``spread`` over the
    last ``_WINDOW`` steps; at that rate the steps left to reach ``target``,
    each m*k multiply-adds of a contraction plus ``_STEP_FLOPS``, are set
    against Newton steps of n^3/3 (an LU factorization) plus
    ``_STEP_FLOPS`` each.
    """
    q = (spread / spread_mark) ** (1.0 / _WINDOW)
    steps_left = math.log(target / spread) / math.log(q) if q < 1.0 else math.inf
    power = steps_left * (m * k + _STEP_FLOPS)
    return power > _NEWTON_STEPS * (n**3 / 3.0 + _STEP_FLOPS)


def _ratio_error(max_degree: int, k: int, ratio: float) -> float:
    """A-priori bound on the rounding error of one computed shifted Collatz
    ratio ``y_i / x_i^{k-1}`` of size ``ratio``: Higham's gamma_j = j u /
    (1 - j u) with j = max degree + 2k + 6, which counts the deg_i - 1 sums
    and k - 1 products of ``(T x^{k-1})_i``, the power, shift, sum and
    division, up to three roundings in a weight and the final subtraction
    of the shift, with room to spare.
    """
    j = max_degree + 2 * k + 6
    u = 2.0**-53  # the unit roundoff of float64, a Python float so that brackets stay floats
    return j * u / (1.0 - j * u) * ratio


def _bordered_matrices(stack, X, XK1, lam, mask):
    """``[[M - (k-1) lam diag(x^{[k-2]}), -x^{[k-1]}], [1^T, 0]]`` of each
    member's vector x in X, dense: yields each chunk of ``stack.chunks()``
    that holds a member of ``mask`` with all of its members' systems
    stacked, one chunk at a time.

    ``M_ij = sum over edges e containing i and j of w_e prod_{l in e, l != i, j} x_l``
    is the Jacobian of ``T x^{k-1}`` (so ``M x = (k-1) T x^{k-1}``), built
    for each chunk by one bincount over the m*k*(k-1) ordered vertex
    pairs of its edges.  Pairs are formed only for the edges from the
    first such chunk to the last.
    """
    k = stack.k
    chunks, side, base = stack.chunks()
    taking = mask.tolist()
    chunks = [chunk for chunk in chunks if True in taking[chunk[0] : chunk[1]]]
    start, stop = chunks[0][4].start, chunks[-1][4].stop
    E = stack.edges[start:stop]
    i, j = _position_pairs(k)
    Xe = X[E]
    pairs = (stack.weights[start:stop] * Xe.prod(axis=1))[:, None] / (Xe[:, i] * Xe[:, j])
    flat = E[:, i] * side[start:stop] + E[:, j] + base[start:stop]
    for chunk in chunks:
        first, end, n, verts, edges = chunk
        B, edges = end - first, slice(edges.start - start, edges.stop - start)
        M = np.bincount(flat[edges].ravel(), weights=pairs[edges].ravel(), minlength=B * (n + 1) ** 2)
        M.reshape(B, -1)[:, : n * (n + 2) : n + 2] -= ((k - 1) * lam[first:end])[:, None] * X[verts].reshape(B, n) ** (k - 2)
        M = M.reshape(B, n + 1, n + 1)
        M[:, :n, n] = -XK1[verts].reshape(B, n)
        M[:, n, :n] = 1.0
        yield chunk, M


@functools.lru_cache(maxsize=8)
def _position_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k(k-1) ordered pairs (i, j), i != j, of positions in an edge,
    read-only, built once per k."""
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _solve_stack(M, rhs):
    """Solutions of the stacked systems ``M[b] z = rhs[b]`` and a mask of
    the solvable ones: when the stacked solve meets a singular matrix,
    each system is solved alone and only the singular ones are masked."""
    ok = np.ones(len(M), dtype=bool)
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        out = np.zeros(rhs.shape)
        for b in range(len(M)):
            try:
                out[b] = np.linalg.solve(M[b], rhs[b])
            except np.linalg.LinAlgError:
                ok[b] = False
        return out, ok


def _newton_step(stack, mask, X, XK1, Y, R, hi, s):
    """One Newton–Noda step of each member of ``mask`` from its k-unit
    vector x in X, with shifted image its part of Y and Collatz ratios
    its part of R, whose maximum is ``hi[b]``, all such members in lock
    step: solve the bordered system for dx (with ``sum dx = 0``, lam =
    hi[b] - s), then try ``x + theta dx`` for theta = 1, 1/2, ... until
    it stays positive and strictly lowers that maximum.  Returns the mask
    of members that took a step and the next ``(x, x^{[k-1]}, shifted
    image)`` of every member of ``stack``, the old one outside ``mask``,
    where no theta succeeded within ``_HALVINGS`` halvings or where the
    system is singular.

    Each chunk of members of one n (``_Stack.chunks``) that holds a
    member of ``mask`` is built as one array, and its members in
    ``mask`` are factored as one.  Every trial contracts the stack's
    span (``_Stack.narrow``), each member outside ``mask`` or no longer
    trying at its own x, and keeps the rows of the members trying.
    """
    gap = (stack.rep(hi) - R) * XK1  # lam x^{[k-1]} - T x^{k-1} >= 0
    DX, ok, taking = np.zeros(len(X)), mask.copy(), mask.tolist()
    for (first, end, n, verts, _), M in _bordered_matrices(stack, X, XK1, hi - s, mask):
        rhs = np.zeros((end - first, n + 1))
        rhs[:, :n] = gap[verts].reshape(end - first, n)
        if False not in taking[first:end]:
            sol, ok[first:end] = _solve_stack(M, rhs)
            DX[verts] = sol[:, :n].ravel()
        else:
            sel = mask[first:end]
            sol, ok[first:end][sel] = _solve_stack(M[sel], rhs[sel])
            DX[verts].reshape(end - first, n)[sel] = sol[:, :n]
    pending = ok.copy()  # members still trying: solvable, and no theta has succeeded yet
    Z, ZK1, YZ = X, XK1, Y
    theta = 1.0
    for _ in range(_HALVINGS + 1):
        z = X + theta * DX
        trying = pending & (_MINAT(z, stack.starts) > 0.0)  # also rejects NaN
        if _ANY(trying):
            every = _ALL(trying)
            if not every:
                z = np.where(np.repeat(trying, stack.sizes), z, X)
            z = _k_unit_rows(stack, z)
            zk1, yz = stack.evaluate(z, s)
            lower = _MAXAT(yz / zk1, stack.starts) < hi
            if every and _ALL(lower):
                return lower, z, zk1, yz
            accepted = trying & lower
            if _ANY(accepted):
                if Z is X:
                    Z, ZK1, YZ = X.copy(), XK1.copy(), Y.copy()
                rows = np.repeat(accepted, stack.sizes)
                Z[rows], ZK1[rows], YZ[rows] = z[rows], zk1[rows], yz[rows]
                pending &= ~accepted
                if not _ANY(pending):
                    break
        theta /= 2.0
    return ok & ~pending, Z, ZK1, YZ


def residual_of(op: TensorOperator, rho: float, x: np.ndarray) -> float:
    """max_i |(T x^{k-1})_i - rho * x_i^{k-1}|."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.max(np.abs(op.apply(x) - rho * x ** (op.k - 1))))

