"""Implicit symmetric tensor operators for the three edge weightings.

The order-k adjacency-style tensor of a k-uniform hypergraph never gets
materialized: each edge e carries one scalar weight and the product
``T x^{k-1}`` collapses to an edge-major sum

    (T x^{k-1})_i = sum over e containing i of w(e) * prod_{j in e, j!=i} x_j

because the (k-1)! symmetric entries cancel the 1/(k-1)! normalization.

Weight rules (d_i = vertex degrees, products/sums over the edge):

* adjacency:  1
* abc:        ((sum d_i - k) / (prod d_i)) ^ (1/k)
* randic:     (prod d_i) ^ (-1/k)
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .hypergraph import UniformHypergraph

COMPILED_KERNEL = False
"""Always False: there is no compiled kernel.  ``perfbench/run.py`` is
the only reader, and the next change to the benchmark removes it."""


class Weighting(str, enum.Enum):
    ADJACENCY = "adjacency"
    ABC = "abc"
    RANDIC = "randic"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"{value!r} is not a weighting; the weightings are {', '.join(cls)}")


def _power_rule(w: Weighting, k: int, sums, prods):
    """The weight ``base ** exponent`` under ``w`` of edges whose k degrees sum to
    ``sums`` and multiply to ``prods``, as ``(base, exponent)``; arrays or scalars."""
    if w is Weighting.ADJACENCY:
        return 1.0, 1.0
    if w is Weighting.ABC:
        return (sums - k) / prods, 1.0 / k
    if w is Weighting.RANDIC:
        return prods, -1.0 / k


def _edge_power(G: UniformHypergraph, e: int, w: Weighting):
    """``_power_rule`` of edge e, 0 <= e < m, from its exact integer degrees."""
    if not 0 <= e < G.m:
        raise IndexError(f"edge {e} is out of range for a hypergraph of {G.m} edges")
    d = [G.degree_list[v] for v in G.edge_array[e].tolist()]
    return _power_rule(w, G.k, sum(d), math.prod(d))


def omega(G: UniformHypergraph, e: int) -> float:
    """(sum of degrees in edge e - k) / (product of degrees in edge e).

    Computed in exact integer arithmetic, converting to float only at the
    final division.  Always >= 0; zero iff all k degrees are 1.
    """
    return _edge_power(G, e, Weighting.ABC)[0]


def edge_weight(G: UniformHypergraph, e: int, w: Weighting) -> float:
    """The weight of edge e under ``w``, a member or its value."""
    base, exponent = _edge_power(G, e, Weighting(w))
    return base**exponent


_EXACT_PRODUCT = 2.0**53
"""Degree products below this are exact in float64 whatever the order
of the multiplications; an edge whose product reaches it is weighted by
the exact-integer ``edge_weight``."""


def edge_weights(G: UniformHypergraph, w: Weighting) -> np.ndarray:
    """``edge_weight(G, e, w)`` for every edge e, equal bit for bit."""
    w = Weighting(w)
    if w is Weighting.ADJACENCY:
        return np.ones(G.m)
    return _degree_weights(G.degree_array[G.edge_array], G.k, w)


def _degree_weights(D: np.ndarray, k: int, w: Weighting) -> np.ndarray:
    """The weight under ``w``, abc or Randić, of each edge whose row of k
    vertex degrees is a row of D, as ``edge_weight`` computes it.

    Degree sums and products are array reductions.  Below
    ``_EXACT_PRODUCT`` they are exact integers in float64, so the quotient
    rounds as the integer division in ``omega`` does.  The final root is
    Python's float power, which can differ from ``np.power`` in the last
    bit.
    """
    prod = D.prod(axis=1, dtype=np.float64)
    base, exponent = _power_rule(w, k, D.sum(axis=1), prod)
    out = np.fromiter(map(pow, base.tolist(), itertools.repeat(exponent)), np.float64, len(D))
    for e in np.flatnonzero(prod >= _EXACT_PRODUCT).tolist():
        d = D[e].tolist()
        base, exponent = _power_rule(w, k, sum(d), math.prod(d))
        out[e] = base**exponent
    return out


@dataclass(frozen=True)
class TensorOperator:
    """Edge-weighted implicit tensor; weights cached once, then immutable."""

    G: UniformHypergraph
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        """Hold the weights as a float64 array of shape (m,), every entry
        finite and >= 0; one min and one max pass, and no copy of a
        float64 array.  G must be a UniformHypergraph (TypeError)."""
        if not isinstance(self.G, UniformHypergraph):
            raise TypeError(f"an operator is built on a UniformHypergraph, not {type(self.G).__name__}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.G.m,):
            raise ValueError(f"weights of shape {w.shape} do not match the m={self.G.m} edges")
        if not (w.min() >= 0.0 and w.max() < math.inf):  # NaN fails both
            raise ValueError("weights must be finite and >= 0")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_weighting(cls, G: UniformHypergraph, w: Weighting) -> "TensorOperator":
        return cls(G=G, weights=edge_weights(G, w))

    @property
    def k(self) -> int:
        return self.G.k

    @property
    def n(self) -> int:
        return self.G.n

    def is_zero(self) -> bool:
        return bool(np.all(self.weights == 0.0))

    def scaled(self, c: float) -> "TensorOperator":
        """The operator with every weight times c, finite and >= 0."""
        if not (math.isfinite(c) and c >= 0):
            raise ValueError(f"scale factor must be finite and >= 0, not {c!r}")
        return TensorOperator(G=self.G, weights=self.weights * c)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(T x^{k-1})_i, deterministic edge-major accumulation."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector length {x.shape} does not match n={self.n}")
        out = np.zeros(self.n, dtype=np.float64)
        _kernels.contract(self.G.edge_array, self.weights, x, out)
        return out

    def form(self, x: np.ndarray) -> float:
        """T x^k = x . (T x^{k-1}) = k * sum_e w(e) prod_{j in e} x_j."""
        x = np.asarray(x, dtype=np.float64)
        return float(x @ self.apply(x))


def abc_index(G: UniformHypergraph) -> float:
    """(1/(k-1)!) * sum over edges of omega(e)^(1/k)."""
    return sum(edge_weights(G, Weighting.ABC).tolist()) / math.factorial(G.k - 1)


def k_unit(x: np.ndarray, k: int) -> np.ndarray:
    """Rescale a nonzero, nonnegative, finite vector so sum x_i^k = 1.

    When sum x_i^k overflows, or underflows to 0 for a nonzero x, x is
    first divided by its largest entry; otherwise it is not, so every
    finite sum keeps its bits.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all((0.0 <= x) & (x < math.inf)):
        raise ValueError("cannot normalize a vector with a negative or non-finite entry")
    with np.errstate(over="ignore"):
        total = float(np.sum(x**k))
    if total == math.inf or total == 0.0 and x.any():
        x = x / x.max()
        total = float(np.sum(x**k))
    norm = total ** (1.0 / k)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / norm
