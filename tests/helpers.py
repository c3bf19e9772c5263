"""Shared test oracles, kept independent of the library's fast paths."""

from __future__ import annotations

import itertools
import math

import numpy as np

from abctensor import build
from abctensor.hypergraph import UniformHypergraph
from abctensor.tensor import Weighting, edge_weight


def dense_tensor(G: UniformHypergraph, w: Weighting) -> np.ndarray:
    """Explicit order-k tensor: every permutation of every edge carries
    weight(e)/(k-1)!.  Only sensible for tiny n."""
    k, n = G.k, G.n
    T = np.zeros((n,) * k)
    for ei, e in enumerate(G.edges):
        val = edge_weight(G, ei, w) / math.factorial(k - 1)
        for perm in itertools.permutations(e):
            T[perm] = val
    return T


def dense_form(G: UniformHypergraph, w: Weighting, x: np.ndarray) -> float:
    """Brute-force sum over all n^k index tuples."""
    T = dense_tensor(G, w)
    total = 0.0
    for idx in itertools.product(range(G.n), repeat=G.k):
        total += T[idx] * math.prod(x[i] for i in idx)
    return total


def dense_apply(G: UniformHypergraph, w: Weighting, x: np.ndarray) -> np.ndarray:
    """Brute-force (T x^{k-1})_i from the explicit tensor."""
    T = dense_tensor(G, w)
    n, k = G.n, G.k
    out = np.zeros(n)
    for i in range(n):
        for rest in itertools.product(range(n), repeat=k - 1):
            out[i] += T[(i,) + rest] * math.prod(x[j] for j in rest)
    return out


def relabel(G: UniformHypergraph, perm: list[int]) -> UniformHypergraph:
    """Rebuild G with vertex v renamed perm[v]."""
    return build(G.k, G.n, [[perm[v] for v in e] for e in G.edges])


def connected_by_search(G: UniformHypergraph) -> bool:
    """Depth-first search over vertices and their edges."""
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for ei in G.vertex_edges[v]:
            for w in G.edges[ei]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == G.n


def shares_a_pair_by_pairs(G: UniformHypergraph) -> bool:
    """Some two distinct edges meet in >= 2 vertices, by comparing every pair."""
    return any(len(set(a) & set(b)) >= 2 for a, b in itertools.combinations(G.edges, 2))


def contract_by_loop(G: UniformHypergraph, weights, x) -> np.ndarray:
    """(T x^{k-1})_i edge by edge, in the kernel's arithmetic order: per
    edge, prefix and suffix products, each term added into a zeroed out."""
    out = np.zeros(G.n)
    for w, e in zip(weights, G.edges):
        pref, p = [], 1.0
        for v in e:
            pref.append(p)
            p *= x[v]
        suff, s = [0.0] * len(e), 1.0
        for j in range(len(e) - 1, -1, -1):
            suff[j] = s
            s *= x[e[j]]
        for j, v in enumerate(e):
            out[v] += (w * pref[j]) * suff[j]
    return out
