"""Spectral radius of the implicit nonnegative tensor of a hypergraph.

Shifted power iteration: with T the edge-weighted tensor and s > 0,

    y = T x^{k-1} + s * x^{[k-1]},   x' = y^{[1/(k-1)]} renormalized.

For every positive x the ratios y_i / x_i^{k-1} bracket rho(T) + s
(Collatz-Wielandt for nonnegative tensors), and the positive diagonal
shift makes the iteration convergent whenever the hypergraph is
connected (the tensor is then weakly irreducible).  Convergence is
declared on the certified bracket, never on vector movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .hypergraph import UniformHypergraph, is_connected
from .tensor import TensorOperator, Weighting, k_unit


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
    initial: str = "uniform"  # "uniform" | "seeded-random"
    seed: Optional[int] = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.shift <= 0:
            raise ValueError("shift must be positive")
        if self.initial not in ("uniform", "seeded-random"):
            raise ValueError("initial must be 'uniform' or 'seeded-random'")


@dataclass(frozen=True)
class SpectralEstimate:
    rho: float
    eigenvector: np.ndarray
    lower: float
    upper: float
    iters: int
    residual: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _initial_vector(n: int, k: int, opts: SolveOptions) -> np.ndarray:
    if opts.initial == "uniform":
        return np.full(n, n ** (-1.0 / k))
    rng = np.random.default_rng(0 if opts.seed is None else opts.seed)
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

    A hypergraph whose weights are all zero (the single-edge case under
    the abc rule) short-circuits to rho = 0.  Disconnected input raises
    NotConnectedError; bracket stagnation past max_iters raises
    ConvergenceError carrying the last bracket.
    """
    op = _as_operator(G, weighting)
    if not is_connected(op.G):
        raise NotConnectedError("hypergraph is not connected")
    n, k = op.n, op.k
    if op.is_zero():
        x = _initial_vector(n, k, opts)
        return SpectralEstimate(
            rho=0.0, eigenvector=x, lower=0.0, upper=0.0, iters=0, residual=0.0
        )

    s = opts.shift
    x = _initial_vector(n, k, opts)
    lo_best = -np.inf
    up_best = np.inf
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        xk1 = x ** (k - 1)
        y = op.apply(x) + s * xk1
        ratios = y / xk1
        lo_best = max(lo_best, float(ratios.min()))
        up_best = min(up_best, float(ratios.max()))
        if up_best - lo_best <= opts.tol * max(1.0, up_best - s):
            break
        y /= y.max()
        x = k_unit(y ** (1.0 / (k - 1)), k)
    else:
        lower, upper = lo_best - s, up_best - s
        raise ConvergenceError(
            f"bracket still {up_best - lo_best:.3e} wide after {opts.max_iters} iterations "
            f"(lower={lower:.17g}, upper={upper:.17g}, iters={opts.max_iters})",
            lower=lower,
            upper=upper,
            iters=opts.max_iters,
        )

    lower = lo_best - s
    upper = up_best - s
    if lower > upper:  # floating noise at extreme tolerance
        lower = upper = (lower + upper) / 2.0
    rho = (lower + upper) / 2.0
    res = residual_of(op, rho, x)
    return SpectralEstimate(
        rho=rho, eigenvector=x, lower=lower, upper=upper, iters=iters, residual=res
    )


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
