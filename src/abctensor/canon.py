"""Canonical codes for hypertrees and unicyclic hypergraphs.

Two such hypergraphs get equal codes iff they are isomorphic.  A code is
the relabeled edge list, so it determines its graph.

Both kinds take one linear-time path through the vertex-edge incidence
graph.  ``hypergraph.peel`` peels its leaves layer by layer; here every
peeled node is ranked by the sorted ranks of its children (Aho, Hopcroft
and Ullman, 1974).  A hypertree peels completely and is rooted at its
center.  A unicyclic hypergraph peels down to its one cycle, which
``peel`` walks once and whose nodes are ranked as one more layer; the
walk round it is the least rotation,
in either direction, of its (vertex rank, next-edge rank) pairs (Duval,
J. Algorithms 4, 1983).  A preorder walk in rank order from the root or
from the cycle nodes numbers the vertices.  Any other hypergraph raises
``ValueError``.

The same ranks give the automorphism orbits (``vertex_orbits``): the
center, or the cycle up to its rank-preserving rotations and
reflections, is fixed, and below it two nodes share an orbit iff their
parents do and their ranks are equal.
"""

from __future__ import annotations

import numpy as np

from .hypergraph import UniformHypergraph, peel


def _encode(G: UniformHypergraph, perm: list[int]) -> bytes:
    """Byte code of the relabeled edge list (perm maps old id -> new id).

    Every number is 4 big-endian bytes, so codes of one (k, n, m) sort
    in the integer order of their relabeled edge lists."""
    edges = sorted(sorted(perm[v] for v in e) for e in G.edges)
    ids = [G.k, G.n, G.m] + [v for e in edges for v in e]
    return np.array(ids, dtype=">u4").tobytes()


def _least_rotation(s: list) -> int:
    """Start of the least rotation of s, from Duval's Lyndon factorization
    of s + s; linear in len(s)."""
    n = len(s)
    s = s + s
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def _rotation_period(s: list) -> int:
    """Least p > 0 such that rotating s by p leaves it unchanged, for s a
    least rotation.  Such an s is a power of a Lyndon word, which has no
    border, so p is len(s) less the longest border of s, read from the
    prefix function (Knuth, Morris and Pratt, 1977); linear in len(s)."""
    border = [0] * len(s)  # border[i]: longest proper prefix of s[:i+1] ending it
    j = 0
    for i in range(1, len(s)):
        while j and s[i] != s[j]:
            j = border[j - 1]
        if s[i] == s[j]:
            j += 1
        border[i] = j
    return len(s) - j


def _least_walks(ring: list[int], rank: list[int]) -> list[tuple[list, list[int]]]:
    """For the walk round the cycle and for its reverse: the least rotation
    of its (vertex rank, next-edge rank) pairs, and the cycle's nodes
    (vertex, edge, vertex, ...) from that rotation's start."""
    walks = []
    for walk in (ring, ring[:1] + ring[:0:-1]):
        pairs = [(rank[v], rank[e]) for v, e in zip(walk[::2], walk[1::2])]
        s = _least_rotation(pairs)
        walks.append((pairs[s:] + pairs[:s], walk[2 * s:] + walk[:2 * s]))
    return walks


def _ranks(G: UniformHypergraph) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """(layers, children, ring, rank) of a hypertree or a unicyclic
    hypergraph: ``peel``'s layers, with the cycle's walk appended as one
    more layer ([] for a hypertree), each node's children sorted by rank,
    and each node's AHU rank.

    ``peel`` takes every node iff the incidence graph is a forest, which
    with n - 1 = m(k - 1) means G is a hypertree; the last node peeled
    is the center, unique because every leaf is a vertex node.
    Otherwise G is unicyclic iff n = m(k - 1) and the core is one cycle,
    which ``peel``'s ring then covers.  A node's layer is its height
    above the root or the cycle.
    """
    n, m, k = G.n, G.m, G.k
    layers, children, core, ring = peel(G)
    if len(ring) != len(core) or n - (not core) != m * (k - 1):
        raise ValueError("canonical codes cover hypertrees and unicyclic hypergraphs only")
    if ring:
        layers.append(ring)

    # A node's rank is the rank of its children's sorted ranks among the
    # distinct such tuples of its layer; layers take consecutive ranges.
    rank = [0] * (n + m)
    base = 0
    for layer in layers:
        keys = []
        for v in layer:
            children[v].sort(key=rank.__getitem__)
            keys.append(tuple(rank[c] for c in children[v]))
        order = {key: base + i for i, key in enumerate(sorted(set(keys)))}
        for v, key in zip(layer, keys):
            rank[v] = order[key]
        base += len(order)
    return layers, children, ring, rank


def _perm(G: UniformHypergraph) -> list[int]:
    """Canonical relabeling (old id -> new id) of a hypertree or a
    unicyclic hypergraph."""
    n = G.n
    layers, children, ring, rank = _ranks(G)
    # Children of equal rank have isomorphic subtrees, and least walks
    # that tie differ by an automorphism, so the preorder numbering does
    # not depend on how ties fall.
    perm = [0] * n
    new_id = 0
    stack = min(_least_walks(ring, rank))[1][::-1] if ring else [layers[-1][0]]
    while stack:
        v = stack.pop()
        if v < n:
            perm[v] = new_id
            new_id += 1
        stack.extend(reversed(children[v]))
    return perm


def vertex_orbits(G: UniformHypergraph) -> list[int]:
    """For each vertex of a hypertree or a unicyclic hypergraph, the least
    vertex id in its orbit under the automorphism group; ``ValueError``
    for any other hypergraph.  Linear in the size of G.

    Every automorphism fixes the center of a hypertree, and maps the one
    cycle of a unicyclic hypergraph onto itself, keeping ranks.  On the
    cycle those maps are the rotations by multiples of the least period
    of its (vertex rank, edge rank) pairs, and reflections when the walk
    and its reverse have the same least rotation.  Below the root or the
    cycle, a node's orbit is its parent's orbit and its own rank.
    """
    n = G.n
    layers, children, ring, rank = _ranks(G)
    orbit = [0] * (n + G.m)
    ids: dict[tuple[int, int], int] = {}
    if ring:
        (pairs, walk), (reverse_pairs, reverse_walk) = _least_walks(ring, rank)
        period = 2 * _rotation_period(pairs)
        # When the two walks tie, walk[i] -> reverse_walk[i] is a reflection.
        mirror = reverse_walk if pairs == reverse_pairs else walk
        at = {v: i for i, v in enumerate(walk)}
        for i, v in enumerate(walk):
            j = at[mirror[i]]
            orbit[v] = ids.setdefault((-1, min(i % period, j % period)), len(ids))
    else:
        orbit[layers[-1][0]] = ids.setdefault((-1, 0), 0)
    for layer in reversed(layers):
        for v in layer:
            for c in children[v]:
                orbit[c] = ids.setdefault((orbit[v], rank[c]), len(ids))
    least: dict[int, int] = {}
    return [least.setdefault(orbit[v], v) for v in range(n)]


def canonical_code(G: UniformHypergraph) -> bytes:
    """Code of a hypertree or unicyclic hypergraph, equal iff isomorphic;
    ``ValueError`` for any other hypergraph."""
    return _encode(G, _perm(G))
