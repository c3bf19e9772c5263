"""Canonical codes for small hypergraphs.

Two hypergraphs get equal codes iff they are isomorphic.  A code is the
relabeled edge list, so it determines its graph; only the relabeling
differs between the two ways of choosing it.

Hypertrees (connected, n - 1 = m(k - 1)) take a linear-time path: the
vertex-edge incidence tree is rooted at its center and every node is
ranked by the sorted ranks of its children (Aho, Hopcroft and Ullman,
1974); a depth-first walk in rank order numbers the vertices.  Every
other hypergraph goes to iterated color refinement plus
individualization search, with discovered automorphisms pruning
equivalent branches (McKay and Piperno, 2014).  Only that search has an
exponential worst case; at the desk scales this package targets (n at
most ``SIZE_CAP``) it is fast.
"""

from __future__ import annotations

from .hypergraph import SizeCapExceededError, UniformHypergraph

SIZE_CAP = 64  # at most 255, the ids that fit _encode's one byte per vertex


def _refine(G: UniformHypergraph, colors: list[int]) -> list[int]:
    """Stable partition refinement; colors are canonical ranks."""
    n = G.n
    while True:
        edge_sigs = [tuple(sorted(colors[v] for v in e)) for e in G.edges]
        keys = [
            (colors[v], tuple(sorted(edge_sigs[ei] for ei in G.vertex_edges[v])))
            for v in range(n)
        ]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [rank[keys[v]] for v in range(n)]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _cells(colors: list[int]) -> list[list[int]]:
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def _encode(G: UniformHypergraph, perm: list[int]) -> bytes:
    """Byte code of the relabeled edge list (perm maps old id -> new id)."""
    edges = sorted(tuple(sorted(perm[v] for v in e)) for e in G.edges)
    out = bytearray()
    out.extend(G.k.to_bytes(2, "big"))
    out.extend(G.n.to_bytes(2, "big"))
    out.extend(G.m.to_bytes(4, "big"))
    for e in edges:
        out.extend(e)  # vertex ids fit one byte under the size cap
    return bytes(out)


def _tree_perm(G: UniformHypergraph) -> list[int] | None:
    """Canonical relabeling (old id -> new id) of a hypertree, or None
    when G is not one.

    Node v < n of the incidence tree is vertex v, node n + i is edge i.
    Peeling leaves layer by layer takes every node iff the incidence
    graph is a tree, which with n - 1 = m(k - 1) means G is a hypertree.
    The last node peeled is the center.  A node's layer is its height
    with the tree rooted there, and its parent is the one neighbour left
    when it is peeled.  For k >= 2 every leaf is a vertex node, so the
    center is unique.
    """
    n, m, k = G.n, G.m, G.k
    if k < 2 or n - 1 != m * (k - 1):
        return None
    adj = [[n + i for i in ei] for ei in G.vertex_edges] + [list(e) for e in G.edges]
    left = [len(a) for a in adj]
    peeled = [False] * (n + m)
    children: list[list[int]] = [[] for _ in range(n + m)]
    layers = []
    layer = [v for v in range(n) if left[v] == 1]
    while layer:
        layers.append(layer)
        for v in layer:
            peeled[v] = True
        nxt = []
        for v in layer:
            for u in adj[v]:
                if not peeled[u]:
                    children[u].append(v)
                    left[u] -= 1
                    if left[u] == 1:
                        nxt.append(u)
        layer = nxt
    if sum(map(len, layers)) != n + m:
        return None

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

    # Children of equal rank have isomorphic subtrees, so the preorder
    # numbering does not depend on how their ties fall.
    perm = [0] * n
    new_id = 0
    stack = [layers[-1][0]]
    while stack:
        v = stack.pop()
        if v < n:
            perm[v] = new_id
            new_id += 1
        stack.extend(reversed(children[v]))
    return perm


def canonical_code(G: UniformHypergraph) -> bytes:
    if G.n > SIZE_CAP:
        raise SizeCapExceededError(f"canonical labeling capped at {SIZE_CAP} vertices, got {G.n}")
    perm = _tree_perm(G)
    return _search_code(G) if perm is None else _encode(G, perm)


def _search_code(G: UniformHypergraph) -> bytes:
    """The least code over the leaves of the individualization search."""
    n = G.n
    d = G.degree_list
    init = sorted(set(d))
    colors = _refine(G, [init.index(d[v]) for v in range(n)])

    best_code: bytes | None = None
    best_inv: list[int] = []
    autos: list[list[int]] = []

    def orbit_reaches(v: int, tried: list[int], fixed: list[int]) -> bool:
        """True if some discovered automorphism fixing `fixed` pointwise
        maps v into the already-tried candidates (closure via union-find)."""
        valid = [g for g in autos if all(g[w] == w for w in fixed)]
        if not valid:
            return False
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for g in valid:
            for a in range(n):
                ra, rb = find(a), find(g[a])
                if ra != rb:
                    parent[ra] = rb
        rv = find(v)
        return any(find(u) == rv for u in tried)

    def search(colors: list[int], fixed: list[int]):
        nonlocal best_code, best_inv
        cells = _cells(colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            perm = [0] * n
            for new_id, v in enumerate(sorted(range(n), key=lambda v: colors[v])):
                perm[v] = new_id
            code = _encode(G, perm)
            if best_code is None or code < best_code:
                best_code = code
                best_inv = [0] * n
                for v in range(n):
                    best_inv[perm[v]] = v
            elif code == best_code:
                autos.append([best_inv[perm[v]] for v in range(n)])
            return
        tried: list[int] = []
        for v in target:
            if orbit_reaches(v, tried, fixed):
                continue
            tried.append(v)
            split = [2 * c + (1 if u == v else 0) for u, c in enumerate(colors)]
            search(_refine(G, split), fixed + [v])

    search(colors, [])
    assert best_code is not None
    return best_code
