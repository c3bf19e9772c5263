"""Constructors for the named hypergraph families, and enumeration of
small hypertrees and unicyclic hypergraphs.

Families follow the usual naming:

* ``S_{m,k}``            hyperstar: m pendant edges at one center.
* ``P_{m,k}``            hyperpath: consecutive edges share one vertex.
* ``C_{g,k}``            hypercycle of length g.
* ``K_n^(k)``            complete k-uniform hypergraph.
* ``G^k``                k-th power: each edge padded with fresh vertices.
* ``D_{m,a}``            double star (2-uniform).
* ``S_{m,k;a_1..a_k}``   a_i pendant edges at vertex i of a base edge.
* ``U_{m,k,g}(a_1..a_k)``  cycle of length g with a_i pendant edges at
                           the vertices of its first edge.

Fresh vertex ids are always appended at the end, so every generator is
reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .canon import canonical_code, vertex_orbits
from .hypergraph import InvalidHypergraphError, UniformHypergraph, build, check_vertex_count


class BudgetExceededError(ValueError):
    """Requested size exceeds the configured desk-scale budget."""


def attach_pendant_edge(G: UniformHypergraph, v: int) -> UniformHypergraph:
    """Add one new edge {v, n, n+1, ..., n+k-2} on k-1 fresh vertices.

    G's rows are already in normal order, and the new row, whose other
    ids are all fresh, belongs right after the last row starting at or
    below v: it is spliced in there, which is what ``build`` would do."""
    k, n, E = G.k, G.n, G.edge_array
    if not isinstance(v, (int, np.integer)):
        raise InvalidHypergraphError("vertex ids must be integers")
    if not (0 <= v < n):
        raise ValueError(f"vertex {v} outside [0, {n})")
    check_vertex_count(n + k - 1)
    at = int(np.searchsorted(E[:, 0], v, side="right"))
    S = np.empty((len(E) + 1, k), dtype=np.int64)
    S[:at], S[at], S[at + 1:] = E[:at], (v, *range(n, n + k - 1)), E[at:]
    S.flags.writeable = False
    return UniformHypergraph(k=k, n=n + k - 1, edge_array=S)


def _with_pendants(k: int, n: int, edges, anchors: Iterable[int]) -> UniformHypergraph:
    """The k-uniform hypergraph on n vertices with ``edges``, after
    ``attach_pendant_edge`` at each vertex of ``anchors`` in turn: the
    same fresh ids, but one ``build`` instead of one per edge."""
    edges = list(edges)
    for v in anchors:
        edges.append((v,) + tuple(range(n, n + k - 1)))
        n += k - 1
    return build(k, n, edges)


def _cycle_edges(g: int, k: int) -> list[tuple[int, ...]]:
    """The edges of C_{g,k}: edge i is (i(k-1), ..., i(k-1)+k-1) mod g(k-1)."""
    n = g * (k - 1)
    return [tuple((i * (k - 1) + j) % n for j in range(k)) for i in range(g)]


def hyperstar(m: int, k: int) -> UniformHypergraph:
    """S_{m,k}: m edges through a common center, n = m(k-1)+1."""
    if m < 1 or k < 2:
        raise ValueError("hyperstar needs m >= 1 and k >= 2")
    check_vertex_count(m * (k - 1) + 1)
    return _with_pendants(k, 1, [], [0] * m)


def hyperpath(m: int, k: int) -> UniformHypergraph:
    """P_{m,k}: consecutive edges share exactly one vertex."""
    if m < 1 or k < 2:
        raise ValueError("hyperpath needs m >= 1 and k >= 2")
    check_vertex_count(m * (k - 1) + 1)
    return _with_pendants(k, 1, [], range(0, m * (k - 1), k - 1))


def hypercycle(g: int, k: int) -> UniformHypergraph:
    """C_{g,k}: cycle of g edges, n = g(k-1); consecutive edges share one
    vertex (two when g = 2, where the wraparound identifies both ends)."""
    if g < 2 or k < 3:
        raise ValueError("hypercycle needs g >= 2 and k >= 3")
    n = g * (k - 1)
    check_vertex_count(n)
    return build(k, n, _cycle_edges(g, k))


def cycle_graph(g: int) -> UniformHypergraph:
    """Ordinary cycle on g vertices (2-uniform)."""
    if g < 3:
        raise ValueError("cycle_graph needs g >= 3")
    check_vertex_count(g)
    return build(2, g, _cycle_edges(g, 2))


def complete(n: int, k: int) -> UniformHypergraph:
    """K_n^(k): all k-subsets of [n] as edges, at most 200,000 of them."""
    if not (2 <= k < n):
        raise ValueError("complete needs n > k >= 2")
    if math.comb(n, k) > 200_000:
        raise BudgetExceededError(f"complete({n},{k}) has {math.comb(n, k)} edges")
    return build(k, n, [tuple(c) for c in combinations(range(n), k)])


def power(G: UniformHypergraph, k: int) -> UniformHypergraph:
    """k-th power: each edge gains k-r fresh degree-1 vertices (r = G.k).

    For k == G.k the hypergraph is returned unchanged.
    """
    r = G.k
    if k < r:
        raise ValueError(f"power target k={k} must be >= edge cardinality {r}")
    if k == r:
        return G
    check_vertex_count(G.n + G.m * (k - r))
    edges = []
    nxt = G.n
    for e in G.edges:
        edges.append(e + tuple(range(nxt, nxt + k - r)))
        nxt += k - r
    return build(k, nxt, edges)


def double_star(m: int, a: int) -> UniformHypergraph:
    """D_{m,a}: centers of S_{a,2} and S_{m-1-a,2} joined by an edge."""
    if m < 3 or not (1 <= a <= (m - 1) / 2):
        raise ValueError(f"double_star needs m >= 3 and 1 <= a <= (m-1)/2, got m={m}, a={a}")
    check_vertex_count(m + 1)
    return _with_pendants(2, 2, [(0, 1)], [0] * a + [1] * (m - 1 - a))


def s_composition(m: int, k: int, a: Sequence[int]) -> UniformHypergraph:
    """S_{m,k;a_1..a_k}: a_i pendant edges at vertex i of a base edge.
    ``a`` may be any iterable; it is read after the vertex count check."""
    check_vertex_count(k + (m - 1) * (k - 1))
    a = tuple(a)
    if len(a) != k:
        raise ValueError(f"composition must have k={k} entries, got {len(a)}")
    if any(x < 0 for x in a):
        raise ValueError("composition entries must be >= 0")
    if sum(a) != m - 1:
        raise ValueError(f"composition must sum to m-1={m - 1}, got {sum(a)}")
    return _with_pendants(k, k, [tuple(range(k))], [v for v in range(k) for _ in range(a[v])])


def unicyclic_family(m: int, k: int, g: int, a: Sequence[int]) -> UniformHypergraph:
    """U_{m,k,g}(a_1..a_k): hypercycle of length g with a_i pendant edges
    at vertex i of its first edge (vertices 1 and k are the cycle joints).
    ``a`` may be any iterable; it is read after the vertex count check."""
    if g not in (2, 3):
        raise ValueError("g must be 2 or 3")
    if k < 3:
        raise ValueError("k must be >= 3")
    check_vertex_count(m * (k - 1))
    a = tuple(a)
    if len(a) != k or any(x < 0 for x in a):
        raise ValueError(f"composition must have k={k} nonnegative entries")
    if sum(a) != m - g:
        raise ValueError(f"composition must sum to m-g={m - g}, got {sum(a)}")
    # Edge 0 of C_{g,k} is (0, 1, ..., k-1) with joints 0 and k-1.
    anchors = [v for v in range(k) for _ in range(a[v])]
    return _with_pendants(k, g * (k - 1), _cycle_edges(g, k), anchors)


def unicyclic_graph(m: int, g: int) -> UniformHypergraph:
    """U_{m,g}: ordinary cycle of length g with m-g pendant edges at one
    cycle vertex (2-uniform)."""
    if g < 3 or m < g:
        raise ValueError("unicyclic_graph needs g >= 3 and m >= g")
    check_vertex_count(m)
    return _with_pendants(2, g, _cycle_edges(g, 2), [0] * (m - g))


def t_family(m: int, idx: int) -> UniformHypergraph:
    """The four 3-uniform hypertrees competing just below S_{m,3;m-3,1,1}.

    idx 1: S_{m,3;m-4,2,1} (m >= 6).
    idx 2: S_{m-1,3;m-4,1,1} plus a pendant edge at a pendant vertex of a
           pendant edge at the degree-(m-3) vertex (m >= 5).
    idx 3: cube of D_{m-2,1} plus one pendant edge at each of the two
           pendant vertices of the pendant edge at the degree-2 center
           (m >= 5).
    idx 4: S_{m-1,3;m-4,1,1} plus a pendant edge at a pendant vertex of
           the pendant edge at a degree-2 vertex (m >= 5).
    """
    if idx == 1:
        if m < 6:
            raise ValueError("t_family idx 1 needs m >= 6")
        return s_composition(m, 3, (m - 4, 2, 1))
    if idx not in (2, 3, 4):
        raise ValueError("idx must be in {1,2,3,4}")
    if m < 5:
        raise ValueError(f"t_family idx {idx} needs m >= 5")
    check_vertex_count(2 * m + 1)
    if idx == 3:
        # Hub 0 with m-3 pendant edges, the last (0, c1, z) with c1 = 2m-7,
        # then (c1, w1, w2) = (2m-7, 2m-5, 2m-4) and an edge at each of w1, w2.
        return _with_pendants(3, 1, [], [0] * (m - 3) + [2 * m - 7, 2 * m - 5, 2 * m - 4])
    # S_{m-1,3;m-4,1,1} on the base edge (0, 1, 2), then a pendant edge at
    # vertex 3 of the first one at vertex 0 (idx 2), or at vertex 2m-5 of
    # the one at vertex 1 (idx 4).
    return _with_pendants(3, 3, [(0, 1, 2)], [0] * (m - 4) + [1, 2, 3 if idx == 2 else 2 * m - 5])


def example_h(idx: int) -> UniformHypergraph:
    """The two worked-example hypertrees: pendant-expanded hyperstars.

    idx 1: S_{2,3} with a pendant edge added at each of its 4 pendant
    vertices (6 edges, 3-uniform).  idx 2: S_{3,4} with a pendant edge at
    each of its 9 pendant vertices (12 edges, 4-uniform).
    """
    if idx == 1:
        return _with_pendants(3, 1, [], [0] * 2 + list(range(1, 5)))
    if idx == 2:
        return _with_pendants(4, 1, [], [0] * 3 + list(range(1, 10)))
    raise ValueError("idx must be 1 or 2")


ENUM_BUDGET = {2: 8, 3: 6, 4: 5}
"""The largest m ``enumerate_hypertrees`` and ``hypertree_classes`` take
for each k; 4 for any other k."""


def _levels(base: UniformHypergraph, steps: int) -> list[dict[bytes, UniformHypergraph]]:
    """The classes grown from ``base`` by 0, 1, ..., ``steps`` rounds of
    pendant-edge attachment, one representative per class, each round's
    keyed by canonical code in the order found.

    Each round attaches at the least vertex of each automorphism orbit of
    each representative of the round before, in ascending order: every
    vertex of an orbit gives the same class, and the least comes first, so
    the classes and their representatives are those of attaching at every
    vertex."""
    levels = [{canonical_code(base): base}]
    for _ in range(steps):
        grown: dict[bytes, UniformHypergraph] = {}
        for G in levels[-1].values():
            for v, least in enumerate(vertex_orbits(G)):
                if v == least:
                    H = attach_pendant_edge(G, v)
                    grown.setdefault(canonical_code(H), H)
        levels.append(grown)
    return levels


def hypertree_classes(m: int, k: int) -> list[dict[bytes, UniformHypergraph]]:
    """For each size j = 1..m, one representative per isomorphism class of
    k-uniform hypertrees with j edges, keyed by canonical code in the order
    found; all from one growth of the single edge.

    Every hypertree is reachable this way: ordering its edges by breadth
    first search from any edge, each subsequent edge meets the previous
    ones in exactly one vertex.
    """
    cap = ENUM_BUDGET.get(k, 4)
    if m > cap:
        raise BudgetExceededError(
            f"enumerate_hypertrees({m},{k}) exceeds budget m <= {cap}"
        )
    if m < 1:
        raise ValueError("m must be >= 1")
    return _levels(build(k, k, [tuple(range(k))]), m - 1)


def enumerate_hypertrees(m: int, k: int) -> list[UniformHypergraph]:
    """One representative per isomorphism class of k-uniform hypertrees
    with m edges, in canonical code order: the last size of
    ``hypertree_classes(m, k)``."""
    reps = hypertree_classes(m, k)[-1]
    return [reps[c] for c in sorted(reps)]


def unicyclic_classes(m: int, k: int) -> dict[bytes, UniformHypergraph]:
    """One representative per isomorphism class of unicyclic k-uniform
    hypergraphs with m edges (m small), keyed by canonical code, grown
    from the hypercycles of every length g <= m by pendant-edge
    attachment with canonical dedupe."""
    reps: dict[bytes, UniformHypergraph] = {}
    for g in range(2, m + 1):
        reps.update(_levels(hypercycle(g, k), m - g)[-1])
    return reps


def enumerate_small_unicyclic(m: int, k: int) -> list[UniformHypergraph]:
    """``unicyclic_classes(m, k)`` in canonical code order."""
    reps = unicyclic_classes(m, k)
    return [reps[c] for c in sorted(reps)]


def random_hypertree(m: int, k: int, seed: int) -> UniformHypergraph:
    """Seeded random hypertree built by uniform pendant-edge attachment:
    each new edge joins a uniformly drawn existing vertex to k-1 fresh
    ones.  The anchors are drawn first and the edges built once."""
    rng = random.Random(seed)
    anchors = [rng.randrange(k + i * (k - 1)) for i in range(m - 1)]
    return _with_pendants(k, k, [tuple(range(k))], anchors)


def random_connected_hypergraph(m: int, k: int, seed: int) -> UniformHypergraph:
    """Seeded random connected k-uniform hypergraph with m edges: a random
    hypertree plus extra random edges over the existing vertex set."""
    rng = random.Random(seed)
    t = rng.randint(max(1, m - 3), m)
    G = random_hypertree(t, k, rng.randrange(2**30))
    existing = set(G.edges)
    edges = list(G.edges)
    attempts = 0
    while len(edges) < m and attempts < 10_000:
        attempts += 1
        e = tuple(sorted(rng.sample(range(G.n), k)))
        if e not in existing:
            existing.add(e)
            edges.append(e)
    return build(k, G.n, edges)
