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
one.  It groups its operators by (n, k), and the members of a group take
every step in lock step: each member keeps its own bracket, switch rule
and kind of step, each contraction is one kernel call on the edges of
the members taking that step, renumbered so member b's vertex v is
b*n + v, and each Newton step solves the members' bordered systems as
one stack.  A member leaves when its own bracket closes, so every
estimate equals a solve of that operator alone, bit for bit.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import _kernels
from .hypergraph import UniformHypergraph
from .tensor import TensorOperator, Weighting, k_unit


NEWTON_MAX_N = 4096
"""Largest n given Newton steps.  Their dense bordered system holds
(n+1)^2 doubles, 128 MB at this n, and ``np.linalg.solve`` factors a copy
of it, so a step peaks at about 2 (n+1)^2 doubles (256 MB) plus the
m*k*(k-1) vertex-pair arrays.  Larger inputs stay on power steps.  A
lock-step group stacks at most (NEWTON_MAX_N+1)^2 doubles of systems at
once, so the same bound holds for a batch."""

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
    seed: Optional[int] = None  # None: uniform start; else seeded-random

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (math.isfinite(self.shift) and self.shift > 0):
            raise ValueError("shift must be positive and finite")


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
    if opts.seed is None:
        return np.full(n, n ** (-1.0 / k))
    rng = np.random.default_rng(opts.seed)
    return k_unit(rng.uniform(0.5, 1.5, size=n), k)


def _as_operator(
    G: Union[UniformHypergraph, TensorOperator], weighting: Optional[Weighting]
) -> TensorOperator:
    if isinstance(G, TensorOperator):
        return G
    if weighting is None:
        raise TypeError("weighting required when passing a hypergraph")
    return TensorOperator.from_weighting(G, weighting)


def spectral_radius(
    G: Union[UniformHypergraph, TensorOperator],
    weighting: Optional[Weighting] = None,
    opts: SolveOptions = SolveOptions(),
) -> SpectralEstimate:
    """Spectral radius and positive k-unit eigenvector, with a certified
    bracket ``lower <= rho <= upper`` of relative width ``opts.tol``.

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
    NotConnectedError; bracket stagnation past max_iters raises
    ConvergenceError carrying the last bracket, and so does a bracket
    that admits rho <= 0, where the shift has swamped every digit of rho.
    """
    return spectral_radii([_as_operator(G, weighting)], opts)[0]


def spectral_radii(
    problems: Sequence[Union[TensorOperator, tuple[UniformHypergraph, Weighting]]],
    opts: SolveOptions = SolveOptions(),
) -> list[SpectralEstimate]:
    """``spectral_radius`` of every problem, an operator or a (hypergraph,
    weighting) pair, each estimate equal bit for bit to a solve of that
    problem alone.

    The problems of one (n, k) are solved together: every member takes
    each step in lock step with the others, and leaves when its own
    bracket closes.  NotConnectedError is raised for the first
    disconnected problem before any step; ConvergenceError for the first
    problem, in input order, that fails, after all are solved.
    """
    ops = [p if isinstance(p, TensorOperator) else _as_operator(*p) for p in problems]
    if not all(op.G.connected for op in ops):
        raise NotConnectedError("hypergraph is not connected")
    out: list = [None] * len(ops)
    groups: dict = {}
    for i, op in enumerate(ops):
        if op.is_zero():
            out[i] = SpectralEstimate(0.0, _initial_vector(op.n, op.k, opts), 0.0, 0.0, 0, 0.0, 0)
        else:
            groups.setdefault((op.n, op.k), []).append(i)
    for members in groups.values():
        for i, est in zip(members, _solve_group([ops[i] for i in members], opts)):
            out[i] = est
    for i, est in enumerate(out):
        if isinstance(est, ConvergenceError):
            if len(ops) > 1:
                est.args = (f"problem {i}: {est}",)
            raise est
    return out


class _Member:
    """One problem's own state in a lock-step group: its best Collatz
    bounds so far (shifted), the spreads its switch rule reads, its kind
    of step and, once its bracket closes or it stalls, its outcome."""

    def __init__(self, op, newton_allowed):
        self.op, self.newton_allowed, self.newton, self.newton_steps = op, newton_allowed, False, 0
        self.lo, self.up, self.outcome = -math.inf, math.inf, None
        self.spreads = collections.deque(maxlen=_WINDOW + 1)

    def track(self, lo, hi, opts) -> bool:
        """Take one step's ratio bounds; False once the bracket is within
        tolerance, else decide whether Newton steps pay from here on."""
        self.lo = max(self.lo, lo)
        self.up = min(self.up, hi)
        target = opts.tol * max(1.0, self.up - opts.shift)
        if self.up - self.lo <= target:
            return False
        if self.newton_allowed and not self.newton:
            self.spreads.append(hi - lo)
            self.newton = len(self.spreads) > _WINDOW and _newton_pays(
                self.op, self.spreads[0], hi - lo, target
            )
        return True

    def finish(self, x, iters, s):
        """Keep ``(rho, x, lower, upper, iters)``, the certified bracket
        widened where it is narrower than rounding, or a ConvergenceError
        when that bracket admits rho <= 0."""
        lower, upper = sorted((self.lo - s, self.up - s))  # rounding may cross them
        rho = (lower + upper) / 2.0
        pad = _ratio_error(self.op, self.up)
        if upper - lower < 2.0 * pad:
            lower, upper = lower - pad, upper + pad
        self.outcome = (rho, x, lower, upper, iters)
        if lower <= 0.0:
            self.outcome = ConvergenceError(
                f"bracket [{lower:.17g}, {upper:.17g}] admits rho <= 0 after {iters} "
                f"iterations: the shift {s:g} swamps every digit of rho; lower the shift",
                lower, upper, iters,
            )

    def stall(self, opts):
        lower, upper, iters = self.lo - opts.shift, self.up - opts.shift, opts.max_iters
        self.outcome = ConvergenceError(
            f"bracket still {self.up - self.lo:.3e} wide after {iters} iterations "
            f"(lower={lower:.17g}, upper={upper:.17g}, iters={iters})",
            lower, upper, iters,
        )


class _Stack:
    """The operators of one (n, k) as one operator on B*n vertices, member
    b's vertex v numbered b*n + v, so that one kernel call contracts any
    subset of them.  A subset of one is its own operator's arrays.  Each
    subset kept has its own kernel workspace, so a stack belongs to one
    solve."""

    def __init__(self, ops):
        self.ops, self.n, self.k = ops, ops[0].n, ops[0].k
        if len(ops) > 1:
            self._edges = np.concatenate([op.G.edge_array for op in ops])
            self._weights = np.concatenate([op.weights for op in ops])
            self._owner = np.repeat(np.arange(len(ops)), [op.G.m for op in ops])
        self._cache = {}

    def arrays(self, members):
        """Edges, weights and kernel workspace of ``members`` (ascending
        group indices), member ``members[b]`` renumbered to the vertices
        b*n + v; the last few member sets are kept."""
        key = members.tobytes()
        if key not in self._cache:
            if len(self._cache) >= 4:
                self._cache.clear()
            if len(members) == 1:
                op = self.ops[members[0]]
                E, W = op.G.edge_array, op.weights
            else:
                slot = np.full(len(self.ops), -1)
                slot[members] = np.arange(len(members))
                at = slot[self._owner]
                keep = at >= 0
                E, W = self._edges[keep] + (at[keep] * self.n)[:, None], self._weights[keep]
            self._cache[key] = E, W, _kernels.Workspace(E)
        return self._cache[key]

    def apply(self, members, X):
        """``T x^{k-1}`` of each row x of X, row b under ``members[b]``."""
        out = np.zeros(X.shape)
        E, W, work = self.arrays(members)
        _kernels.contract(E, W, X.ravel(), out.ravel(), work=work)
        return out

    def evaluate(self, members, X, s):
        """``x^{[k-1]}`` and the shifted image ``T x^{k-1} + s x^{[k-1]}``
        of each row x of X."""
        XK1 = X ** (self.k - 1)
        return XK1, self.apply(members, X) + s * XK1


def _solve_group(ops, opts) -> list:
    """The estimate, or the ConvergenceError, of each nonzero connected
    operator of one (n, k), all stepped in lock step.

    Row b of X, XK1 and Y is the state of member ``live[b]``, whose index
    in the group is ``idx[b]``; rows leave when their brackets close.
    Each step contracts the rows that take it in one call, and the
    residuals take one more at the end.
    """
    stack = _Stack(ops)
    n, k, s = stack.n, stack.k, opts.shift
    group = [_Member(op, n <= NEWTON_MAX_N) for op in ops]
    live, idx = group, np.arange(len(ops))
    X = np.tile(_initial_vector(n, k, opts), (len(ops), 1))
    XK1, Y = stack.evaluate(idx, X, s)
    for iters in range(1, opts.max_iters + 1):
        R = Y / XK1
        hi = _MAX(R, 1)
        going = [m.track(lo, up, opts) for m, lo, up in zip(live, _MIN(R, 1).tolist(), hi.tolist())]
        if not all(going):
            for member, x, go in zip(live, X, going):
                if not go:
                    member.finish(x.copy(), iters, s)
            rows = np.flatnonzero(going)
            live = [live[r] for r in rows]
            idx, X, XK1, Y, R, hi = (A[rows] for A in (idx, X, XK1, Y, R, hi))
            if not live:
                break
        newton = [r for r, member in enumerate(live) if member.newton]
        power = live
        if newton:
            rows = None if len(newton) == len(live) else np.array(newton)
            took, *state = _newton_step(stack, *(_take(A, rows) for A in (idx, X, XK1, Y, R, hi)), s)
            if rows is None:
                X, XK1, Y = state
            else:
                X[rows], XK1[rows], Y[rows] = state
            for r, took_it in zip(newton, took.tolist()):
                if took_it:
                    live[r].newton_steps += 1
                else:
                    # The upper bound no longer drops for any theta tried: it sits
                    # at its rounding floor, where power steps are the cheaper way on.
                    live[r].newton_allowed = live[r].newton = False
            power = [r for r, member in enumerate(live) if not member.newton]
        if power is live:  # every row, on whole arrays
            X, XK1, Y = _power_step(stack, idx, Y, s)
        elif power:
            rows = np.array(power)
            X[rows], XK1[rows], Y[rows] = _power_step(stack, idx[rows], Y[rows], s)
    else:
        for member in live:
            member.stall(opts)

    done = [g for g, member in enumerate(group) if isinstance(member.outcome, tuple)]
    if done:
        Xf = np.array([group[g].outcome[1] for g in done])
        rho = np.array([group[g].outcome[0] for g in done])
        res = _MAX(np.abs(stack.apply(np.array(done), Xf) - rho[:, None] * Xf ** (k - 1)), 1)
        for g, r in zip(done, res.tolist()):
            group[g].outcome = SpectralEstimate(*group[g].outcome, r, group[g].newton_steps)
    return [member.outcome for member in group]


_MAX, _MIN = np.maximum.reduce, np.minimum.reduce
"""Row maxima and minima, ``_MAX(A, 1)``: the ufunc reductions without
the ``ndarray.max`` wrapper, which costs more than the work on the
short rows of the verify suite."""


def _take(A, rows):
    return A if rows is None else A[rows]


def _power_step(stack, members, Y, s):
    """The shifted power step from each row's image y (overwritten):
    ``x' = y^{[1/(k-1)]}`` made k-unit, with its ``x'^{[k-1]}`` and image."""
    Y /= _column(_MAX(Y, 1).tolist())
    X = _k_unit_rows(Y ** (1.0 / (stack.k - 1)), stack.k)
    return (X, *stack.evaluate(members, X, s))


def _k_unit_rows(X, k):
    """``k_unit`` of each row of X, in place and equal bit for bit: the
    norms take Python's float power, as ``k_unit`` does, not numpy's."""
    norms = [t ** (1.0 / k) for t in np.add.reduce(X**k, 1).tolist()]
    if 0.0 in norms:
        raise ValueError("cannot normalize the zero vector")
    X /= _column(norms)
    return X


def _column(values):
    """One divisor per row: a bare float for a single row, whose division
    skips numpy's broadcasting set-up, a cost of the order of the whole
    division on rows of a few hundred entries."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _newton_pays(op: TensorOperator, spread_mark: float, spread: float, target: float) -> bool:
    """Whether the power steps still needed cost more than ``_NEWTON_STEPS``
    Newton steps.

    The ratio spread contracted from ``spread_mark`` to ``spread`` over the
    last ``_WINDOW`` steps; at that rate the steps left to reach ``target``,
    each m*k multiply-adds of a contraction plus ``_STEP_FLOPS``, are set
    against Newton steps of n^3/3 (an LU factorization) plus
    ``_STEP_FLOPS`` each.
    """
    q = (spread / spread_mark) ** (1.0 / _WINDOW)
    steps_left = math.log(target / spread) / math.log(q) if q < 1.0 else math.inf
    power = steps_left * (op.G.m * op.k + _STEP_FLOPS)
    return power > _NEWTON_STEPS * (op.n**3 / 3.0 + _STEP_FLOPS)


def _ratio_error(op: TensorOperator, ratio: float) -> float:
    """A-priori bound on the rounding error of one computed shifted Collatz
    ratio ``y_i / x_i^{k-1}`` of size ``ratio``: Higham's gamma_j = j u /
    (1 - j u) with j = max degree + 2k + 6, which counts the deg_i - 1 sums
    and k - 1 products of ``(T x^{k-1})_i``, the power, shift, sum and
    division, up to three roundings in a weight and the final subtraction
    of the shift, with room to spare.
    """
    j = int(op.G.degree_array.max()) + 2 * op.k + 6
    u = np.finfo(np.float64).eps / 2.0
    return j * u / (1.0 - j * u) * ratio


def _bordered_matrices(stack, members, X, XK1, lam):
    """``[[M - (k-1) lam diag(x^{[k-2]}), -x^{[k-1]}], [1^T, 0]]`` of each
    row x of X, dense, stacked.

    ``M_ij = sum over edges e containing i and j of w_e prod_{l in e, l != i, j} x_l``
    is the Jacobian of ``T x^{k-1}`` (so ``M x = (k-1) T x^{k-1}``), built
    for the whole stack by one bincount over the m*k*(k-1) ordered vertex
    pairs of the edges.
    """
    n, k, B = stack.n, stack.k, len(members)
    E, W, _ = stack.arrays(members)
    i, j = _position_pairs(k)
    Xe = X.ravel()[E]
    pairs = (W * Xe.prod(axis=1))[:, None] / (Xe[:, i] * Xe[:, j])
    flat = E[:, i] * (n + 1) + E[:, j]  # b*n(n+2) + v_i(n+1) + v_j for member b
    if B > 1:
        flat += E[:, :1] // n  # plus b: block b starts at b(n+1)^2
    M = np.bincount(flat.ravel(), weights=pairs.ravel(), minlength=B * (n + 1) ** 2)
    M.reshape(B, -1)[:, : n * (n + 2) : n + 2] -= ((k - 1) * lam)[:, None] * X ** (k - 2)
    M = M.reshape(B, n + 1, n + 1)
    M[:, :n, n] = -XK1
    M[:, n, :n] = 1.0
    return M


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


def _newton_step(stack, members, X, XK1, Y, R, hi, s):
    """One Newton–Noda step from each k-unit row x of X, with shifted
    image the row of Y and Collatz ratios the row of R, whose maximum is
    ``hi[b]``, all rows in lock step: solve the bordered system for dx
    (with ``sum dx = 0``, lam = hi[b] - s), then try ``x + theta dx`` for
    theta = 1, 1/2, ... until it stays positive and strictly lowers that
    maximum.  Returns the mask of rows that took a step and the next
    ``(x, x^{[k-1]}, shifted image)`` of every row, the old one where no
    theta succeeded within ``_HALVINGS`` halvings or the system is
    singular.

    A stack of systems holds at most ``(NEWTON_MAX_N + 1)^2`` doubles, so
    more rows are solved in chunks.
    """
    n, B = stack.n, len(members)
    rhs = np.zeros((B, n + 1))
    rhs[:, :n] = (hi[:, None] - R) * XK1  # lam x^{[k-1]} - T x^{k-1} >= 0
    DX, ok = np.empty((B, n + 1)), np.empty(B, dtype=bool)
    chunk = max(1, (NEWTON_MAX_N + 1) ** 2 // (n + 1) ** 2)
    for c in range(0, B, chunk):
        part = slice(c, c + chunk)
        M = _bordered_matrices(stack, members[part], X[part], XK1[part], hi[part] - s)
        DX[part], ok[part] = _solve_stack(M, rhs[part])
    DX = DX[:, :n]
    pending = ok.copy()  # rows still trying: solvable, and no theta has succeeded yet
    Z, ZK1, YZ = X, XK1, Y
    theta = 1.0
    for _ in range(_HALVINGS + 1):
        z = X + theta * DX
        trying = pending & (_MIN(z, 1) > 0.0)  # also rejects NaN
        flags = trying.tolist()
        if any(flags):
            rows = None if all(flags) else np.flatnonzero(trying)
            z = _k_unit_rows(_take(z, rows), stack.k)
            zk1, yz = stack.evaluate(_take(members, rows), z, s)
            lower = _MAX(yz / zk1, 1) < _take(hi, rows)
            accepted = lower.tolist()
            if rows is None and all(accepted):
                return lower, z, zk1, yz
            if any(accepted):
                if Z is X:
                    Z, ZK1, YZ = X.copy(), XK1.copy(), Y.copy()
                at = _take(np.arange(B), rows)[lower]
                Z[at], ZK1[at], YZ[at] = z[lower], zk1[lower], yz[lower]
                pending[at] = False
                if not any(pending.tolist()):
                    break
        theta /= 2.0
    return ok & ~pending, Z, ZK1, YZ


def residual_of(op: TensorOperator, rho: float, x: np.ndarray) -> float:
    """max_i |(T x^{k-1})_i - rho * x_i^{k-1}|."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.max(np.abs(op.apply(x) - rho * x ** (op.k - 1))))


def residual(
    G: Union[UniformHypergraph, TensorOperator],
    w: Optional[Weighting],
    rho: float,
    x: np.ndarray,
) -> float:
    return residual_of(_as_operator(G, w), rho, x)
