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
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .hypergraph import UniformHypergraph
from .tensor import TensorOperator, Weighting, k_unit


NEWTON_MAX_N = 4096
"""Largest n given Newton steps.  Their dense bordered system holds
(n+1)^2 doubles, 128 MB at this n, and ``np.linalg.solve`` factors a copy
of it, so a step peaks at about 2 (n+1)^2 doubles (256 MB) plus the
m*k*(k-1) vertex-pair arrays.  Larger inputs stay on power steps."""

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
    ConvergenceError carrying the last bracket.
    """
    op = _as_operator(G, weighting)
    if not op.G.connected:
        raise NotConnectedError("hypergraph is not connected")
    n, k = op.n, op.k
    if op.is_zero():
        x = _initial_vector(n, k, opts)
        return SpectralEstimate(
            rho=0.0, eigenvector=x, lower=0.0, upper=0.0, iters=0, residual=0.0, newton_steps=0
        )

    s = opts.shift
    x = _initial_vector(n, k, opts)
    xk1, y = _evaluate(op, x, s)
    lo_best = -np.inf
    up_best = np.inf
    spreads = collections.deque(maxlen=_WINDOW + 1)
    newton_allowed = n <= NEWTON_MAX_N
    newton = False
    newton_steps = 0
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        ratios = y / xk1
        lo, hi = float(ratios.min()), float(ratios.max())
        lo_best = max(lo_best, lo)
        up_best = min(up_best, hi)
        target = opts.tol * max(1.0, up_best - s)
        if up_best - lo_best <= target:
            break
        if newton_allowed and not newton:
            spreads.append(hi - lo)
            newton = len(spreads) > _WINDOW and _newton_pays(op, spreads[0], hi - lo, target)
        if newton:
            step = _newton_step(op, x, xk1, ratios, hi, s)
            if step is not None:
                x, xk1, y = step
                newton_steps += 1
                continue
            # The upper bound no longer drops for any theta tried: it sits at
            # its rounding floor, where power steps are the cheaper way on.
            newton_allowed = newton = False
        y /= y.max()
        x = k_unit(y ** (1.0 / (k - 1)), k)
        xk1, y = _evaluate(op, x, s)
    else:
        lower, upper = lo_best - s, up_best - s
        raise ConvergenceError(
            f"bracket still {up_best - lo_best:.3e} wide after {opts.max_iters} iterations "
            f"(lower={lower:.17g}, upper={upper:.17g}, iters={opts.max_iters})",
            lower=lower,
            upper=upper,
            iters=opts.max_iters,
        )

    lower, upper = sorted((lo_best - s, up_best - s))  # rounding may cross them
    rho = (lower + upper) / 2.0
    pad = _ratio_error(op, up_best)
    if upper - lower < 2.0 * pad:
        lower, upper = lower - pad, upper + pad
    res = residual_of(op, rho, x)
    return SpectralEstimate(
        rho=rho,
        eigenvector=x,
        lower=lower,
        upper=upper,
        iters=iters,
        residual=res,
        newton_steps=newton_steps,
    )


def _evaluate(op: TensorOperator, x: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """``x^{[k-1]}`` and the shifted image ``T x^{k-1} + s x^{[k-1]}``."""
    xk1 = x ** (op.k - 1)
    return xk1, op.apply(x) + s * xk1


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


def _bordered_matrix(op: TensorOperator, x: np.ndarray, xk1: np.ndarray, lam: float) -> np.ndarray:
    """``[[M - (k-1) lam diag(x^{[k-2]}), -x^{[k-1]}], [1^T, 0]]``, dense.

    ``M_ij = sum over edges e containing i and j of w_e prod_{l in e, l != i, j} x_l``
    is the Jacobian of ``T x^{k-1}`` (so ``M x = (k-1) T x^{k-1}``), built
    by one bincount over the m*k*(k-1) ordered vertex pairs of the edges.
    """
    n, k, E = op.n, op.k, op.G.edge_array
    i, j = _position_pairs(k)
    X = x[E]
    P = op.weights * X.prod(axis=1)
    pairs = P[:, None] / (X[:, i] * X[:, j])
    flat = E[:, i] * (n + 1) + E[:, j]
    B = np.bincount(flat.ravel(), weights=pairs.ravel(), minlength=(n + 1) ** 2)
    B = B.reshape(n + 1, n + 1)
    B.flat[: n * (n + 2) : n + 2] -= (k - 1) * lam * x ** (k - 2)
    B[:n, n] = -xk1
    B[n, :n] = 1.0
    return B


@functools.lru_cache(maxsize=8)
def _position_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k(k-1) ordered pairs (i, j), i != j, of positions in an edge,
    read-only, built once per k rather than once per Newton step."""
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _newton_step(op: TensorOperator, x, xk1, ratios, hi: float, s: float):
    """One Newton–Noda step from the k-unit x, whose shifted Collatz ratios
    are ``ratios`` with maximum ``hi``: solve the bordered system for dx
    (with ``sum dx = 0``), then try ``x + theta dx`` for theta = 1, 1/2, ...
    until it stays positive and strictly lowers ``hi``.  Returns the next
    ``(x, x^{[k-1]}, shifted image)``, or None when ``_HALVINGS`` halvings
    do not succeed.
    """
    n = op.n
    rhs = np.zeros(n + 1)
    rhs[:n] = (hi - ratios) * xk1  # lam x^{[k-1]} - T x^{k-1} >= 0, lam = hi - s
    try:
        dx = np.linalg.solve(_bordered_matrix(op, x, xk1, hi - s), rhs)[:n]
    except np.linalg.LinAlgError:
        return None
    theta = 1.0
    for _ in range(_HALVINGS + 1):
        z = x + theta * dx
        if z.min() > 0.0:  # also rejects NaN
            z = k_unit(z, op.k)
            zk1, yz = _evaluate(op, z, s)
            if float((yz / zk1).max()) < hi:
                return z, zk1, yz
        theta /= 2.0
    return None


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
