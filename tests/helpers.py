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
    incident: list[list[tuple[int, ...]]] = [[] for _ in range(G.n)]
    for e in G.edges:
        for v in e:
            incident[v].append(e)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for e in incident[v]:
            for w in e:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == G.n


def shares_a_pair_by_pairs(G: UniformHypergraph) -> bool:
    """Some two distinct edges meet in >= 2 vertices, by comparing every pair."""
    return any(len(set(a) & set(b)) >= 2 for a, b in itertools.combinations(G.edges, 2))


def orbits_by_permutations(G: UniformHypergraph) -> list[int]:
    """For each vertex, the least vertex of its automorphism orbit, from
    all n! permutations that map the edge set onto itself.  Only for n
    up to about 7."""
    edges = set(G.edges)
    least = list(range(G.n))
    for p in itertools.permutations(range(G.n)):
        if all(tuple(sorted(p[v] for v in e)) in edges for e in G.edges):
            for v in range(G.n):
                least[p[v]] = min(least[p[v]], v)
    return least


def grow_at_every_vertex(base: UniformHypergraph, steps: int) -> dict:
    """Pendant-edge growth that attaches at every vertex of every
    representative, keyed by canonical code in first-found order."""
    from abctensor.canon import canonical_code
    from abctensor.generators import attach_pendant_edge

    reps = {canonical_code(base): base}
    for _ in range(steps):
        grown: dict = {}
        for G in reps.values():
            for v in range(G.n):
                H = attach_pendant_edge(G, v)
                grown.setdefault(canonical_code(H), H)
        reps = grown
    return reps


def grow_each_size(base: UniformHypergraph, steps: int) -> dict:
    """Pendant-edge growth from ``base`` by ``steps`` rounds, attaching at
    the least vertex of each automorphism orbit, keyed by canonical code
    in first-found order: one size grown from scratch, the reference for
    a growth that keeps every size."""
    from abctensor.canon import canonical_code, vertex_orbits
    from abctensor.generators import attach_pendant_edge

    reps = {canonical_code(base): base}
    for _ in range(steps):
        grown: dict = {}
        for G in reps.values():
            for v, least in enumerate(vertex_orbits(G)):
                if v == least:
                    H = attach_pendant_edge(G, v)
                    grown.setdefault(canonical_code(H), H)
        reps = grown
    return reps


def count_calls(monkeypatch, owner, attr: str) -> list:
    """Swap ``owner.attr`` for a counting wrapper in every abctensor module
    that binds it; the returned one-item list holds the count."""
    import sys

    original = getattr(owner, attr)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "abctensor" or name.startswith("abctensor.")):
            for binding, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, binding, counted)
    return count


def build_by_loop(k: int, n: int, edges) -> tuple:
    """``build`` edge by edge: ("edges", the sorted rows of sorted ids) or
    (error class name, edge index) for the first offending edge, checking
    cardinality, repeated vertex, vertex range, then duplicate."""
    seen = {}
    for i, e in enumerate(edges):
        e = [int(v) for v in e]
        if len(e) != k:
            return "EdgeCardinalityError", i
        if len(set(e)) != k:
            return "RepeatedVertexError", i
        if any(not (0 <= v < n) for v in e):
            return "VertexRangeError", i
        key = tuple(sorted(e))
        if key in seen:
            return "DuplicateEdgeError", i
        seen[key] = i
    return "edges", tuple(sorted(seen))


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


def estimate_fields(est) -> tuple:
    """Every field of a SpectralEstimate, the eigenvector by its bytes,
    so that two estimates compare equal only bit for bit."""
    x = est.eigenvector
    return (est.rho, est.lower, est.upper, est.iters, est.newton_steps, est.residual,
            x.dtype, x.shape, x.tobytes())


def solve_by_single_loop(op, opts, weighting=None):
    """The solver as one loop over one operator, with 1-D arrays: power
    steps, the switch rule, Newton–Noda steps with theta halvings and the
    final bracket, written out step by step as ``spectral`` documents them.
    ``weighting`` names the rule of ``op``'s weights when it was solved as
    a (hypergraph, weighting) pair.  Returns ``(rho, lower, upper, iters,
    newton_steps, residual, x)``; raises ``ConvergenceError`` as
    ``spectral_radius`` does."""
    import collections

    from abctensor import spectral as sp
    from abctensor.tensor import k_unit

    n, k, s = op.n, op.k, opts.shift
    x = sp._initial_vector(n, k, opts)
    if weighting is Weighting.RANDIC and opts.seed is None:
        x = k_unit(op.G.degree_array ** (1.0 / k), k)  # the exact eigenvector, rho = 1
    if op.is_zero():
        return 0.0, 0.0, 0.0, 0, 0, 0.0, x

    def evaluate(x):
        xk1 = x ** (k - 1)
        return xk1, op.apply(x) + s * xk1

    def newton_step(x, xk1, ratios, hi):
        E = op.G.edge_array
        i, j = sp._position_pairs(k)
        X = x[E]
        pairs = (op.weights * X.prod(axis=1))[:, None] / (X[:, i] * X[:, j])
        B = np.bincount((E[:, i] * (n + 1) + E[:, j]).ravel(), weights=pairs.ravel(), minlength=(n + 1) ** 2)
        B = B.reshape(n + 1, n + 1)
        B.flat[: n * (n + 2) : n + 2] -= (k - 1) * (hi - s) * x ** (k - 2)
        B[:n, n] = -xk1
        B[n, :n] = 1.0
        rhs = np.zeros(n + 1)
        rhs[:n] = (hi - ratios) * xk1
        try:
            dx = np.linalg.solve(B, rhs)[:n]
        except np.linalg.LinAlgError:
            return None
        theta = 1.0
        for _ in range(sp._HALVINGS + 1):
            z = x + theta * dx
            if z.min() > 0.0:
                z = k_unit(z, k)
                zk1, yz = evaluate(z)
                if float((yz / zk1).max()) < hi:
                    return z, zk1, yz
            theta /= 2.0
        return None

    xk1, y = evaluate(x)
    lo_best, up_best = -np.inf, np.inf
    spreads = collections.deque(maxlen=sp._WINDOW + 1)
    newton_allowed, newton, newton_steps = n <= sp.NEWTON_MAX_N, False, 0
    for iters in range(1, opts.max_iters + 1):
        ratios = y / xk1
        lo, hi = float(ratios.min()), float(ratios.max())
        lo_best, up_best = max(lo_best, lo), min(up_best, hi)
        target = opts.tol * max(1.0, up_best - s)
        if up_best - lo_best <= target:
            break
        if newton_allowed and not newton:
            spreads.append(hi - lo)
            newton = len(spreads) > sp._WINDOW and sp._newton_pays(op.G.m, n, k, spreads[0], hi - lo, target)
        if newton:
            step = newton_step(x, xk1, ratios, hi)
            if step is not None:
                x, xk1, y = step
                newton_steps += 1
                continue
            newton_allowed = newton = False
        y /= y.max()
        x = k_unit(y ** (1.0 / (k - 1)), k)
        xk1, y = evaluate(x)
    else:
        raise sp.ConvergenceError("stalled", lo_best - s, up_best - s, opts.max_iters)
    lower, upper = sorted((lo_best - s, up_best - s))
    rho = (lower + upper) / 2.0
    pad = sp._ratio_error(int(op.G.degree_array.max()), k, up_best)
    if upper - lower < 2.0 * pad:
        lower, upper = lower - pad, upper + pad
    if lower <= 0.0:
        raise sp.ConvergenceError("shift swamps rho", lower, upper, iters)
    return rho, lower, upper, iters, newton_steps, sp.residual_of(op, rho, x), x
