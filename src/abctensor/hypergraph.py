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
    girth_status: str  # "exact" | "acyclic" | "at-least-3"
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
    S = A.astype(np.int64)
    # Rows in normal order, such as a UHG file written by format_uhg,
    # skip both sorts: strictly ascending rows repeat no vertex, and
    # strictly increasing rows repeat no edge.
    ascending = (S[:, 1:] > S[:, :-1]).all()
    if not ascending:
        S.sort(axis=1)
    # A negative id read as unsigned exceeds any n.
    if S.view(np.uint64).max() >= n or (not ascending and (S[:, 1:] == S[:, :-1]).any()):
        raise _first_invalid_edge(k, n, edges)
    if not (ascending and _rows_increase(S)):
        # Rows of nonnegative ids order lexicographically as their
        # big-endian bytes.
        rows = S.astype(">i8").view(np.dtype((np.void, 8 * k))).ravel()
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        if (rows[1:] == rows[:-1]).any():
            raise _first_invalid_edge(k, n, edges)
        S = S[order]
    S.flags.writeable = False
    return UniformHypergraph(k=k, n=n, edge_array=S)


def _rows_increase(S: np.ndarray) -> bool:
    """Every row of S lexicographically less than the next: in the first
    column where two rows differ, the lower one is larger.  S holds ids
    in [0, n), so no difference overflows."""
    d = S[1:] - S[:-1]
    first = (d != 0).argmax(axis=1)
    return bool((d[np.arange(len(d)), first] > 0).all())


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
    """Every pair of vertices joined by a path of overlapping edges."""
    # Vertex 0 is the smallest id, so it is the root of its component.
    return not _component_roots(G.edge_array, G.n).any()


def _component_roots(E: np.ndarray, n: int) -> np.ndarray:
    """The least vertex of each vertex's component, for the (m, k) edge
    array E on the vertices 0..n-1.

    Union-find over whole arrays: each round hooks every root onto the
    smallest root it shares an edge with, if that one is smaller, then
    jumps pointers until every vertex points at its root.  A root that
    is not hooked in a round gets a smaller neighbour root in the next,
    so the number of roots halves at least every two rounds, whatever
    the diameter.  No pointer ever grows, so each root is the least
    vertex of its component.
    """
    u = np.repeat(E[:, 0], E.shape[1] - 1)
    v = E[:, 1:].ravel()
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            return parent
        pu, pv = pu[split], pv[split]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


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


def peel(G: UniformHypergraph) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """Leaf peeling of the vertex-edge incidence graph, in linear time.

    Node v < n is vertex v, listing its edges ascending, and node n + i
    is edge i.  The first layer is every vertex with at most one
    neighbour; each later layer is every node left with one unpeeled
    neighbour once the layer before it is peeled.  That neighbour is the
    node's parent, and it lists the node among its children in peeling
    order.  Returns (layers, children, core, ring): the layers in peeling
    order, each node's children, the nodes never peeled, ascending, and
    one walk round the core from core[0], each step to the first unpeeled
    neighbour but the node before, or [] unless every core node has two.
    The core is the 2-core of the incidence graph, so it is empty iff the
    incidence graph is a forest, and the ring covers it iff it is one cycle.
    """
    n, m = G.n, G.m
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(G.edges, n):
        for v in e:
            adj[v].append(i)
    adj += map(list, G.edges)
    left = [len(a) for a in adj]
    peeled = [False] * (n + m)
    children: list[list[int]] = [[] for _ in range(n + m)]
    layers = []
    layer = [v for v in range(n) if left[v] <= 1]
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
    core = [v for v in range(n + m) if not peeled[v]]
    ring: list[int] = []
    if core and all(left[v] == 2 for v in core):
        prev, v = -1, core[0]
        while not ring or v != core[0]:
            ring.append(v)
            prev, v = v, next(u for u in adj[v] if not peeled[u] and u != prev)
    return layers, children, core, ring


def classify(G: UniformHypergraph) -> StructureReport:
    """Connectivity, hypertree/unicyclic kind, linearity, girth, power flag.

    Kind detection uses the vertex-count identities (connected with
    n = m(k-1)+1 is acyclic; n = m(k-1) has exactly one cycle), which are
    exact for connected k-uniform hypergraphs.  The girth is the length
    of a shortest cycle: L distinct vertices and L distinct edges taken
    in turn round a cycle of the incidence graph.  A hypertree has
    status "acyclic", and two edges sharing two vertices give
    (2, "exact"); neither is peeled.  Any other input is peeled once
    (``peel``):

    - an empty core means no cycle at all: (None, "acyclic");
    - a unicyclic core is its one cycle, half as long as the incidence
      ring: (len(core) // 2, "exact");
    - otherwise the girth is only known to be at least 3:
      (None, "at-least-3").

    A hypertree with k >= 3 is the k-th power of an ordinary tree iff
    every edge carries at least k-2 vertices of degree one.
    """
    connected = G.connected
    m, k, n = G.m, G.k, G.n
    if connected and n == m * (k - 1) + 1:
        kind = "hypertree"
    elif connected and n == m * (k - 1):
        kind = "unicyclic"
    else:
        kind = "other"
    linear = kind == "hypertree" or is_linear(G)  # a hypertree always is

    if not linear:
        g_val, g_status = 2, "exact"
    elif kind == "hypertree" or not (core := peel(G)[2]):
        g_val, g_status = None, "acyclic"
    elif kind == "unicyclic":
        g_val, g_status = len(core) // 2, "exact"
    else:
        g_val, g_status = None, "at-least-3"

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


def parse_uhg(text: str) -> UniformHypergraph:
    """Parse the UHG v1 text format.

    Line 1 is ``uhg <k> <n> <m>``; each of the next m lines holds k
    space-separated 0-based vertex ids.  Lines starting with ``#`` are
    comments.  Malformed input raises UhgParseError with a line number.

    Two readers, one result.  An ASCII text whose line breaks are all
    "\\n" or "\\r\\n" and whose edge lines, comment lines aside, hold
    only digits, ``-``, spaces and tabs becomes one int64 ``(m, k)``
    array in a single ``np.loadtxt`` pass, and ``build`` validates it as
    a whole.  Every other text, and every text that pass or ``build``
    rejects, is read line by line with ``int()``, which reports the
    first offending line.
    """
    # "\n" for "\r\n" splits the same lines; a "\r" outside a pair
    # stays, and sends the text to the line reader.
    lf = text.replace("\r\n", "\n")
    if lf.isascii() and not any(b in lf for b in _OTHER_BREAKS):
        lines = io.StringIO(lf, newline="\n")
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
    if b"#" in data:  # drop each line whose first byte other than a space or tab is "#"
        data = b"\n".join(line for line in data.split(b"\n") if not line.lstrip(b" \t").startswith(b"#"))
    if data.translate(None, _ARRAY_BYTES) or not data or data.isspace():
        return None  # a stray character, or no data, which loadtxt warns about
    try:
        A = np.loadtxt(io.BytesIO(data), dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        return None
    return A if A.shape == (m, k) else None


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
