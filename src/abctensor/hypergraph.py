"""k-uniform hypergraphs: representation, validation, classification, UHG I/O.

A hypergraph is a frozen value: ``k`` (edge cardinality), ``n`` (vertex
count, vertices are ``0..n-1``) and a read-only int64 ``(m, k)`` array
of edges, each row ascending and the rows in lexicographic order.
``edges`` is the same list as a tuple of tuples.  All operations here
are pure functions; instances are safe to share across threads.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_VERTICES = 10_000_000
"""Largest vertex count ``build`` accepts.  Per-vertex arrays are
allocated at the declared n, so a larger n is rejected before any."""


class InvalidHypergraphError(ValueError):
    """Input violates a structural invariant.

    ``edge_index`` names the offending edge in the caller's edge list
    (None when the problem is not tied to a single edge).
    """

    def __init__(self, message: str, edge_index: Optional[int] = None):
        super().__init__(message)
        self.edge_index = edge_index


class EdgeCardinalityError(InvalidHypergraphError):
    pass


class RepeatedVertexError(InvalidHypergraphError):
    pass


class VertexRangeError(InvalidHypergraphError):
    pass


class DuplicateEdgeError(InvalidHypergraphError):
    pass


@dataclass(frozen=True, eq=False)
class UniformHypergraph:
    k: int
    n: int
    edge_array: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return self.edge_array.shape[0]

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @functools.cached_property
    def degree_array(self) -> np.ndarray:
        d = np.bincount(self.edge_array.ravel(), minlength=self.n)
        d.flags.writeable = False
        return d

    @functools.cached_property
    def degree_list(self) -> tuple[int, ...]:
        return tuple(self.degree_array.tolist())

    @functools.cached_property
    def connected(self) -> bool:
        """``is_connected(self)``, computed once per hypergraph."""
        return is_connected(self)

    @functools.cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the indices of its incident edges."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(tuple(ei) for ei in inc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniformHypergraph):
            return NotImplemented
        return (self.k, self.n) == (other.k, other.n) and np.array_equal(
            self.edge_array, other.edge_array
        )

    def __hash__(self) -> int:
        return hash((self.k, self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"UniformHypergraph(k={self.k}, n={self.n}, edges={self.edges})"


@dataclass(frozen=True)
class DegreeVector:
    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int


@dataclass(frozen=True)
class StructureReport:
    connected: bool
    kind: str  # "hypertree" | "unicyclic" | "other"
    linear: bool
    girth: Optional[int]
    girth_status: str  # "exact" | "acyclic" | "undetermined"
    power_hypertree: Optional[bool]


def check_vertex_count(n: int) -> None:
    """InvalidHypergraphError if n exceeds ``MAX_VERTICES``; generators call
    it before they list any edge, so a huge parameter cannot hang them."""
    if n > MAX_VERTICES:
        raise InvalidHypergraphError(f"vertex count n={n} exceeds the cap {MAX_VERTICES}")


def build(k: int, n: int, edges: Iterable[Sequence[int]]) -> UniformHypergraph:
    """Validate and normalize an edge list into a UniformHypergraph.

    ``edges`` is any iterable of vertex sequences, or an integer ``(m, k)``
    array.  Edges are stored sorted ascending and the edge list sorted
    lexicographically, so equal hypergraphs compare equal regardless of
    input order.  On invalid input the first offending edge in the
    caller's order is reported; within one edge the checks run in the
    order cardinality, repeated vertex, vertex range, duplicate.
    """
    if k < 2:
        raise InvalidHypergraphError(f"edge cardinality k={k} must be >= 2")
    if n < k:
        raise InvalidHypergraphError(f"vertex count n={n} must be >= k={k}")
    check_vertex_count(n)
    if not isinstance(edges, np.ndarray):
        edges = [tuple(e) for e in edges]
    if len(edges) == 0:
        raise InvalidHypergraphError("edge list must be nonempty")
    try:
        A = np.asarray(edges)
    except ValueError:  # rows of different lengths
        raise _first_invalid_edge(k, n, edges) from None
    if A.ndim != 2 or A.shape[1] != k or A.dtype.kind not in "biu":
        raise _first_invalid_edge(k, n, edges)
    S = np.sort(A, axis=1).astype(np.int64, copy=False)
    # A negative id read as unsigned exceeds any n.
    if S.view(np.uint64).max() >= n or (S[:, 1:] == S[:, :-1]).any():
        raise _first_invalid_edge(k, n, edges)
    # Rows of nonnegative ids order lexicographically as their big-endian
    # bytes; the stable sort takes one pass over rows already in order.
    rows = S.astype(">i8").view(np.dtype((np.void, 8 * k))).ravel()
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    if (rows[1:] == rows[:-1]).any():
        raise _first_invalid_edge(k, n, edges)
    S = S[order]
    S.flags.writeable = False
    return UniformHypergraph(k=k, n=n, edge_array=S)


def _first_invalid_edge(k: int, n: int, edges) -> InvalidHypergraphError:
    """The error for the first offending edge, found edge by edge.  Runs
    only after the array checks in ``build`` have rejected the input."""
    if isinstance(edges, np.ndarray):
        edges = [tuple(e) for e in edges.tolist()]
    seen: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(edges):
        if len(e) != k:
            return EdgeCardinalityError(
                f"edge {i} has {len(e)} vertices, expected {k}", edge_index=i
            )
        if len(set(e)) != k:
            return RepeatedVertexError(f"edge {i} repeats a vertex: {e}", edge_index=i)
        for v in e:
            if not (0 <= v < n):
                return VertexRangeError(
                    f"edge {i} contains vertex {v} outside [0, {n})", edge_index=i
                )
        key = tuple(sorted(e))
        if key in seen:
            return DuplicateEdgeError(
                f"edge {i} duplicates edge {seen[key]}: {key}", edge_index=i
            )
        seen[key] = i
    return InvalidHypergraphError("vertex ids must be integers")


def degrees(G: UniformHypergraph) -> DegreeVector:
    d = G.degree_list
    return DegreeVector(degrees=d, max_degree=max(d), min_degree=min(d))


def is_connected(G: UniformHypergraph) -> bool:
    """Every pair of vertices joined by a path of overlapping edges.

    Union-find over whole arrays: each round hooks every root onto the
    smallest root it shares an edge with, if that one is smaller, then
    jumps pointers until every vertex points at its root.  A root that
    is not hooked in a round gets a smaller neighbour root in the next,
    so the number of roots halves at least every two rounds, whatever
    the diameter.
    """
    E = G.edge_array
    u = np.repeat(E[:, 0], G.k - 1)
    v = E[:, 1:].ravel()
    parent = np.arange(G.n)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            break
        pu, pv = pu[split], pv[split]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    # Vertex 0 is the smallest id, so it stays the root of its component.
    return not parent.any()


def _shares_a_pair(G: UniformHypergraph) -> bool:
    """Some two distinct edges meet in two or more vertices: some vertex
    pair (a, b), a < b, lies in two edges.  One sort of m*C(k,2) codes."""
    i, j = np.triu_indices(G.k, 1)
    E = G.edge_array
    codes = np.sort((E[:, i] * G.n + E[:, j]).ravel())
    return bool((codes[1:] == codes[:-1]).any())


def is_linear(G: UniformHypergraph) -> bool:
    """Every two distinct edges share at most one vertex."""
    return not _shares_a_pair(G)


def girth(G: UniformHypergraph, budget: int = 500_000) -> tuple[Optional[int], str]:
    """Length of a shortest cycle, or None.

    A cycle of length L >= 2 is a sequence of distinct vertices
    v_1..v_L and distinct edges e_1..e_L with {v_i, v_{i+1}} in e_i
    (indices wrapping) and cyclically non-adjacent edges disjoint.
    Returns (length, "exact"), (None, "acyclic"), or
    (None, "undetermined") when the node budget is exhausted.
    """
    # Length 2: any pair of edges meeting in >= 2 vertices.
    if _shares_a_pair(G):
        return 2, "exact"
    sets = [set(e) for e in G.edges]
    m = len(sets)

    best: Optional[int] = None
    nodes = 0
    exhausted = False

    def extend(v_start, verts, edge_ids, limit):
        # verts: v_1..v_t chosen; edge_ids: e_1..e_{t-1}; try to close or grow.
        nonlocal best, nodes, exhausted
        if exhausted:
            return
        t = len(verts)
        v_cur = verts[-1]
        for ei in G.vertex_edges[v_cur]:
            if ei in edge_ids:
                continue
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            e = sets[ei]
            # Closing edge: must contain v_start; cycle length t.
            if t >= 3 and v_start in e and t <= limit:
                ok = True
                for pos, ej in enumerate(edge_ids):
                    # Closing edge has index t (1-based); adjacent to e_1 and e_{t-1}.
                    if 0 < pos < t - 2 and e & sets[ej]:
                        ok = False
                        break
                if ok:
                    if best is None or t < best:
                        best = t
                    continue
            if t >= limit:
                continue
            # Grow: next vertex in e, distinct from all chosen.
            for w in e:
                if w == v_cur or w in verts:
                    continue
                ok = True
                for pos, ej in enumerate(edge_ids):
                    # New edge index is t; non-adjacent to e_1..e_{t-2}.
                    if pos < t - 2 and e & sets[ej]:
                        ok = False
                        break
                if ok:
                    extend(v_start, verts + [w], edge_ids + [ei], limit)

    # Iterative deepening keeps the first hit minimal and bounds the search.
    for limit in range(3, m + 1):
        for v in range(G.n):
            extend(v, [v], [], limit)
            if exhausted:
                break
        if best is not None or exhausted:
            break
    if best is not None:
        return best, "exact"
    if exhausted:
        return None, "undetermined"
    return None, "acyclic"


def classify(G: UniformHypergraph) -> StructureReport:
    """Connectivity, hypertree/unicyclic kind, linearity, girth, power flag.

    Kind detection uses the vertex-count identities (connected with
    n = m(k-1)+1 is acyclic; n = m(k-1) has exactly one cycle), which are
    exact for connected k-uniform hypergraphs.  A hypertree with k >= 3
    is the k-th power of an ordinary tree iff every edge carries at least
    k-2 vertices of degree one.
    """
    connected = G.connected
    m, k, n = G.m, G.k, G.n
    if connected and n == m * (k - 1) + 1:
        kind = "hypertree"
    elif connected and n == m * (k - 1):
        kind = "unicyclic"
    else:
        kind = "other"
    linear = is_linear(G)

    if kind == "hypertree":
        g_val, g_status = None, "acyclic"
    else:
        g_val, g_status = girth(G)

    power_flag: Optional[bool] = None
    if kind == "hypertree" and k >= 3:
        leaves = (G.degree_array[G.edge_array] == 1).sum(axis=1)
        power_flag = bool((leaves >= k - 2).all())

    return StructureReport(
        connected=connected,
        kind=kind,
        linear=linear,
        girth=g_val,
        girth_status=g_status,
        power_hypertree=power_flag,
    )


class UhgParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def format_uhg(G: UniformHypergraph) -> str:
    """Serialize to the UHG v1 text format."""
    lines = [f"uhg {G.k} {G.n} {G.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in G.edges)
    return "\n".join(lines) + "\n"


_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
"""The ASCII characters besides "\\n" that ``str.splitlines`` breaks lines at."""

_ARRAY_BYTES = b"0123456789- \t\n"
"""All that the edge lines read by ``np.loadtxt`` may hold."""

_INDENTED_COMMENT = re.compile(rb"\n[ \t]+#")


def parse_uhg(text: str) -> UniformHypergraph:
    """Parse the UHG v1 text format.

    Line 1 is ``uhg <k> <n> <m>``; each of the next m lines holds k
    space-separated 0-based vertex ids.  Lines starting with ``#`` are
    comments.  Malformed input raises UhgParseError with a line number.

    Two readers, one result.  An ASCII text whose only line break is
    "\\n" and whose edge lines, comment lines aside, hold only digits,
    ``-``, spaces and tabs becomes one int64 ``(m, k)`` array in a single
    ``np.loadtxt`` pass, and ``build`` validates it as a whole.  Every
    other text, and every text that pass or ``build`` rejects, is read
    line by line with ``int()``, which reports the first offending line.
    """
    if text.isascii() and not any(b in text for b in _OTHER_BREAKS):
        lines = io.StringIO(text, newline="\n")
        start, k, n, m = _header(lines)
        A = _edge_array(lines.read(), k, m)
        if A is not None:
            try:
                return build(k, n, A)
            except InvalidHypergraphError:
                pass
    return _parse_lines(text)


def _header(lines: Iterable[str]) -> tuple[int, int, int, int]:
    """The header's line number and its k, n and m."""
    for start, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise UhgParseError("missing header", 1)
    parts = line.split()
    if len(parts) != 4 or parts[0] != "uhg":
        raise UhgParseError("expected header 'uhg <k> <n> <m>'", start)
    try:
        k, n, m = (int(p) for p in parts[1:])
    except ValueError:
        raise UhgParseError("non-integer field in header", start) from None
    return start, k, n, m


def _edge_array(body: str, k: int, m: int) -> Optional[np.ndarray]:
    """The edge lines of an ASCII body with "\\n" line breaks as an
    ``(m, k)`` int64 array, or None where ``np.loadtxt`` might read them
    otherwise than ``int()`` line by line does, or cannot read them."""
    data = body.encode("ascii")
    if b"#" in data:
        data = _without_comment_lines(data)
    if data.translate(None, _ARRAY_BYTES) or not data or data.isspace():
        return None  # a stray character, or no data, which loadtxt warns about
    try:
        A = np.loadtxt(io.BytesIO(data), dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        return None
    return A if A.shape == (m, k) else None


def _without_comment_lines(data: bytes) -> bytes:
    """``data`` (ASCII, "\\n" line breaks) without the lines whose first
    byte other than a space or tab is ``#``.

    With a line break put in front, every line starts after a line break
    at some position p; a comment line's bytes from p up to the next line
    break are dropped, so the line goes and the lines around it stay.
    """
    # Indented comment lines move to column 0 first.
    b = np.frombuffer(_INDENTED_COMMENT.sub(b"\n#", b"\n" + data), np.uint8)
    breaks = np.flatnonzero(b == ord("\n"))
    first = b[np.minimum(breaks + 1, b.size - 1)]
    comment = (first == ord("#")) & (breaks + 1 < b.size)
    ends = np.append(breaks[1:], b.size)
    edge = np.zeros(b.size + 1, np.int8)  # +1 where a dropped span starts, -1 where it ends
    edge[breaks[comment]] += 1
    edge[ends[comment]] -= 1
    return b[np.cumsum(edge[:-1], dtype=np.int8) == 0].tobytes()


def _parse_lines(text: str) -> UniformHypergraph:
    """``parse_uhg`` read line by line with ``int()``: the hypergraph, or
    the UhgParseError of the first offending line.  A non-integer id on
    any line is reported first, then a wrong number of edge lines, then
    the first line of the wrong width, then the first edge ``build``
    rejects."""
    lines = text.splitlines()
    start, k, n, m = _header(lines)
    linenos, ids_read, wrong = [], [], None
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        ids = raw.split()  # the same whitespace as str.strip()
        if ids and ids[0][0] != "#":
            try:
                ids_read.extend(map(int, ids))
            except ValueError:
                raise UhgParseError("non-integer vertex id", lineno) from None
            linenos.append(lineno)
            if len(ids) != k and wrong is None:
                wrong = UhgParseError(f"expected {k} vertex ids, got {len(ids)}", lineno)
    if len(linenos) != m:
        raise UhgParseError(f"header declares {m} edges but {len(linenos)} edge lines found", start)
    if wrong is not None:
        raise wrong
    # m rows of k ids each, one flat list: no per-row objects.
    try:
        edges = np.array(ids_read, dtype=np.int64).reshape(m, k) if m else []
    except OverflowError:  # an id beyond int64, which build reports from the rows
        edges = [ids_read[i : i + k] for i in range(0, m * k, k)]
    try:
        return build(k, n, edges)
    except InvalidHypergraphError as exc:
        lineno = linenos[exc.edge_index] if exc.edge_index is not None else start
        raise UhgParseError(str(exc), lineno) from exc
