"""Representation, validation, classification, canonical codes, UHG I/O."""

import functools
import hashlib
import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abctensor as ab
from abctensor import hypergraph
from abctensor import (
    DuplicateEdgeError,
    EdgeCardinalityError,
    InvalidHypergraphError,
    RepeatedVertexError,
    UhgParseError,
    VertexRangeError,
    build,
    canonical_code,
    classify,
    degrees,
    format_uhg,
    is_connected,
    parse_uhg,
)
from abctensor import generators as gen
from abctensor.canon import vertex_orbits
from helpers import (
    build_by_loop,
    connected_by_search,
    grow_at_every_vertex,
    orbits_by_permutations,
    relabel,
    shares_a_pair_by_pairs,
)


def test_build_minimal_single_edge():
    G = build(3, 3, [[0, 1, 2]])
    assert G.m == 1 and G.n == 3 and G.k == 3
    assert G.edges == ((0, 1, 2),)


def test_build_matches_hyperstar_generator():
    G = build(3, 5, [[0, 1, 2], [0, 3, 4]])
    assert G == gen.hyperstar(2, 3)


def test_build_sorts_edges_and_vertices():
    G = build(3, 5, [[4, 3, 0], [2, 1, 0]])
    assert G.edges == ((0, 1, 2), (0, 3, 4))


def test_build_rejects_duplicate_edge():
    # The last two are in normal order, which skips both sorts.
    for edges in ([[0, 1], [1, 0]], [[0, 1], [0, 1]], np.array([[0, 2], [1, 2], [1, 2]])):
        with pytest.raises(DuplicateEdgeError) as exc:
            build(2, 3, edges)
        assert exc.value.edge_index == len(edges) - 1


def test_build_rejects_wrong_cardinality():
    with pytest.raises(EdgeCardinalityError) as exc:
        build(3, 4, [[0, 1, 2], [0, 1]])
    assert exc.value.edge_index == 1


def test_build_rejects_repeated_vertex():
    with pytest.raises(RepeatedVertexError) as exc:
        build(3, 4, [[0, 1, 1]])
    assert exc.value.edge_index == 0


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError) as exc:
        build(3, 3, [[0, 1, 3]])
    assert exc.value.edge_index == 0


def test_build_rejects_empty_and_bad_params():
    with pytest.raises(InvalidHypergraphError):
        build(3, 3, [])
    with pytest.raises(InvalidHypergraphError):
        build(1, 3, [[0]])
    with pytest.raises(InvalidHypergraphError):
        build(3, 2, [[0, 1, 2]])


def test_degrees_hyperstar():
    dv = degrees(gen.hyperstar(3, 3))
    assert dv.degrees[0] == 3
    assert sorted(dv.degrees) == [1] * 6 + [3]
    assert dv.max_degree == 3 and dv.min_degree == 1


def test_degrees_single_edge_k4():
    dv = degrees(build(4, 4, [[0, 1, 2, 3]]))
    assert dv.degrees == (1, 1, 1, 1)
    assert dv.max_degree == dv.min_degree == 1


def test_degrees_hypercycle_sum():
    G = gen.hypercycle(3, 3)
    dv = degrees(G)
    assert sorted(dv.degrees) == [1, 1, 1, 2, 2, 2]
    assert sum(dv.degrees) == G.m * G.k == 9


def test_degree_sum_identity_random():
    for seed in range(10):
        G = gen.random_connected_hypergraph(6, 3, seed)
        assert sum(degrees(G).degrees) == G.m * G.k


def test_is_connected():
    assert is_connected(gen.hyperstar(4, 3))
    assert is_connected(gen.hypercycle(4, 3))
    assert not is_connected(build(3, 6, [[0, 1, 2], [3, 4, 5]]))


def test_classify_hyperstar():
    rep = classify(gen.hyperstar(4, 3))
    assert rep.connected and rep.kind == "hypertree" and rep.linear
    assert rep.girth is None and rep.girth_status == "acyclic"
    assert rep.power_hypertree is True


def test_classify_nonpower_hypertree():
    rep = classify(gen.s_composition(5, 3, (2, 1, 1)))
    assert rep.kind == "hypertree"
    assert rep.power_hypertree is False


def test_classify_unicyclic_g2():
    G = gen.unicyclic_family(5, 3, 2, (3, 0, 0))
    rep = classify(G)
    assert rep.kind == "unicyclic"
    assert not rep.linear
    assert rep.girth == 2 and rep.girth_status == "exact"


def test_classify_girth_matches_cycle_length():
    for g in (2, 3, 4, 5, 80):
        rep = classify(gen.hypercycle(g, 3))
        assert rep.kind == "unicyclic"
        assert rep.girth == g and rep.girth_status == "exact"


def test_classify_2uniform_cycle():
    rep = classify(gen.cycle_graph(5))
    assert rep.kind == "unicyclic" and rep.girth == 5 and rep.linear


def test_classify_multicyclic_is_other():
    rep = classify(gen.complete(4, 3))
    assert rep.kind == "other"
    assert rep.girth == 2  # two edges of K_4^(3) share two vertices
    rep = classify(gen.complete(5, 2))  # linear with many cycles: length not computed
    assert rep.kind == "other" and rep.girth is None and rep.girth_status == "at-least-3"
    star = gen.hyperstar(3, 3)  # beside a disjoint edge and an isolated vertex
    forest = build(3, star.n + 4, list(star.edges) + [[star.n, star.n + 1, star.n + 2]])
    rep = classify(forest)
    assert rep.kind == "other" and not rep.connected
    assert rep.girth is None and rep.girth_status == "acyclic"


def test_vertex_count_identities_on_generated_families():
    for m in range(1, 7):
        for k in (2, 3, 4):
            T = gen.random_hypertree(m, k, seed=m * k)
            assert T.n == m * (k - 1) + 1
            assert classify(T).kind == "hypertree"
    for m in (3, 5):
        for k in (3, 4):
            U = gen.unicyclic_family(m, k, 2, (m - 2,) + (0,) * (k - 1))
            assert U.n == m * (k - 1)
            assert classify(U).kind == "unicyclic"


def test_power_of_tree_is_power_hypertree():
    rng = random.Random(5)
    for _ in range(8):
        m = rng.randint(1, 6)
        T = gen.random_hypertree(m, 2, seed=rng.randrange(1000))
        for k in (3, 4, 5):
            rep = classify(gen.power(T, k))
            assert rep.power_hypertree is True


# ---- canonical codes ----


def test_canonical_code_permutation_invariant():
    rng = random.Random(11)
    samples = [
        gen.hyperstar(3, 3),
        gen.hyperpath(4, 3),
        gen.hypercycle(3, 3),
        gen.cycle_graph(5),
        gen.s_composition(5, 3, (2, 1, 1)),
        gen.unicyclic_family(4, 3, 2, (2, 0, 0)),
        gen.power(gen.double_star(5, 2), 3),
    ]
    for G in samples:
        c0 = canonical_code(G)
        for _ in range(6):
            perm = list(range(G.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(G, perm)) == c0


def test_canonical_code_distinguishes_shapes():
    assert canonical_code(gen.s_composition(4, 3, (1, 1, 1))) != canonical_code(
        gen.s_composition(4, 3, (2, 1, 0))
    )
    assert canonical_code(gen.hyperstar(3, 3)) != canonical_code(gen.hyperpath(3, 3))


def test_canonical_code_single_edge_all_labelings():
    import itertools

    codes = set()
    for perm in itertools.permutations(range(3)):
        codes.add(canonical_code(build(3, 3, [list(perm)])))
    assert len(codes) == 1


def test_canonical_code_has_no_vertex_cap():
    G = gen.hypercycle(10**4, 3)
    perm = list(range(G.n))
    random.Random(2).shuffle(perm)
    assert canonical_code(relabel(G, perm)) == canonical_code(G)
    assert canonical_code(gen.hyperstar(40, 3)) != canonical_code(gen.hyperpath(40, 3))
    # The cycle's vertices (even ids) form one orbit, the others another.
    assert vertex_orbits(G) == [0, 1] * (G.n // 2)


# Class counts found by a refinement and individualization search, an
# algorithm independent of the leaf peeling.
PINNED_CLASS_COUNTS = {
    ("hypertree", 2): (1, 1, 2, 3, 6, 11, 23, 47),  # m = 1..8
    ("hypertree", 3): (1, 1, 2, 4, 8, 19),  # m = 1..6
    ("hypertree", 4): (1, 1, 2, 4, 9),  # m = 1..5
    ("unicyclic", 3): (1, 3, 10, 31, 106, 352),  # m = 2..7
    ("unicyclic", 4): (1, 3, 11, 36),  # m = 2..5
}


def test_enumerated_classes_match_the_pinned_counts_and_keep_their_codes():
    rng = random.Random(3)
    for (kind, k), counts in PINNED_CLASS_COUNTS.items():
        first_m = 1 if kind == "hypertree" else 2
        enumerate_ = gen.enumerate_hypertrees if kind == "hypertree" else gen.enumerate_small_unicyclic
        for m, count in enumerate(counts, first_m):
            graphs = enumerate_(m, k)
            codes = [canonical_code(G) for G in graphs]
            assert len(set(codes)) == len(graphs) == count, (kind, k, m)
            for G, code in zip(graphs, codes):
                for _ in range(3):
                    perm = list(range(G.n))
                    rng.shuffle(perm)
                    assert canonical_code(relabel(G, perm)) == code, (kind, k, m)


def test_orbit_growth_gives_the_every_vertex_classes_in_order():
    # Every pinned entry, and the k = 3 hypertrees at m = 7 and 8.
    cases = [(build(3, 3, [range(3)]), m - 1) for m in (7, 8)]
    for (kind, k), counts in PINNED_CLASS_COUNTS.items():
        if kind == "hypertree":
            cases += [(build(k, k, [range(k)]), m - 1) for m in range(1, len(counts) + 1)]
        else:
            cases += [(gen.hypercycle(g, k), m - g) for m in range(2, len(counts) + 2) for g in range(2, m + 1)]
    for base, steps in cases:
        levels = gen._levels(base, steps)
        assert list(levels[-1].items()) == list(grow_at_every_vertex(base, steps).items())


def test_vertex_orbits_match_the_automorphisms():
    graphs = [G for k, top in ((2, 6), (3, 3), (4, 2), (5, 1))
              for m in range(1, top + 1) for G in gen.enumerate_hypertrees(m, k)]
    graphs += [G for k, top in ((3, 3), (4, 2))
               for m in range(2, top + 1) for G in gen.enumerate_small_unicyclic(m, k)]
    graphs += [gen.cycle_graph(g) for g in range(3, 8)]
    graphs += [gen.unicyclic_graph(m, g) for g in (3, 4, 5) for m in range(g + 1, 8)]
    # C_5 with pendant edges at 0 and 2: the reflection fixing 1 swaps them.
    graphs.append(build(2, 7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (2, 6)]))
    for G in graphs:
        assert vertex_orbits(G) == orbits_by_permutations(G), G


@functools.lru_cache(maxsize=1)
def _pinned_graphs() -> tuple:
    """Every class ``hypertree_classes`` grows up to ``ENUM_BUDGET``, every
    ``unicyclic_classes(m, k)`` for k = 3, m <= 7 and k = 4, m <= 5, and
    200 seeded random hypertrees, each in the order found."""
    graphs = [G for k, top in gen.ENUM_BUDGET.items() for level in gen.hypertree_classes(top, k) for G in level.values()]
    graphs += [G for k, top in ((3, 7), (4, 5)) for m in range(2, top + 1) for G in gen.unicyclic_classes(m, k).values()]
    graphs += [gen.random_hypertree(40, 3, seed) for seed in range(200)]
    return tuple(graphs)


def test_codes_and_orbits_keep_their_bytes():
    # One digest over the code and the orbits of 900 graphs: the other
    # tests check counts and invariance, this one that no byte moves.
    digest = hashlib.sha256()
    for G in _pinned_graphs():
        digest.update(canonical_code(G))
        digest.update(np.array(vertex_orbits(G), dtype=">u4").tobytes())
    assert digest.hexdigest() == "a6c3a519cd8a2f40b599d33c8dda830c8043030d5dfdb51fc8e15e46fd040fc9"


def test_peel_walks_the_one_cycle_of_a_unicyclic_graph():
    for G in _pinned_graphs():
        _, _, core, ring = hypergraph.peel(G)
        rep = classify(G)
        if rep.kind == "hypertree":
            assert core == ring == []
            continue
        assert rep.kind == "unicyclic" and sorted(ring) == core and len(ring) == 2 * rep.girth
        # From core[0] to its least edge in the core, then vertex and edge
        # nodes alternate, each next to the one before.
        assert ring[1] == min(e for e in core[1:] if e >= G.n and core[0] in G.edges[e - G.n])
        for v, e in zip(ring[::2], ring[1::2]):
            assert v < G.n <= e and v in G.edges[e - G.n]
        for e, v in zip(ring[1::2], ring[2::2] + ring[:1]):
            assert v in G.edges[e - G.n]
    # Two disjoint copies of C_{3,3}: the walk goes round one of them.
    C = gen.hypercycle(3, 3)
    _, _, core, ring = hypergraph.peel(build(3, 12, list(C.edges) + [[v + 6 for v in e] for e in C.edges]))
    assert len(core) == 12 and len(ring) == 6 and set(ring) < set(core)


@st.composite
def relabeled_tree_or_unicyclic(draw):
    if draw(st.booleans()):
        m, k = draw(st.integers(1, 12)), draw(st.integers(2, 4))
        G = gen.random_hypertree(m, k, draw(st.integers(0, 2**16)))
    else:
        k, g = draw(st.integers(3, 4)), draw(st.sampled_from((2, 3)))
        a = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
        G = gen.unicyclic_family(g + sum(a), k, g, a)
    return G, draw(st.permutations(range(G.n)))


@settings(max_examples=100, deadline=None)
@given(relabeled_tree_or_unicyclic())
def test_canonical_code_is_relabel_invariant(case):
    G, perm = case
    assert canonical_code(relabel(G, perm)) == canonical_code(G)


def _orbit_partition(G):
    orbits: dict[int, set[int]] = {}
    for v, least in enumerate(vertex_orbits(G)):
        orbits.setdefault(least, set()).add(v)
    return [frozenset(orbit) for orbit in orbits.values()]


@settings(max_examples=100, deadline=None)
@given(relabeled_tree_or_unicyclic())
def test_vertex_orbits_are_relabel_invariant(case):
    # The relabeling carries each orbit onto an orbit, so in particular
    # the multiset of orbit sizes stays.
    G, perm = case
    image = {frozenset(perm[v] for v in orbit) for orbit in _orbit_partition(G)}
    assert set(_orbit_partition(relabel(G, perm))) == image


def test_single_edge_takes_the_tree_path_centered_on_the_edge():
    # The edge node is the center; its vertices keep their order.
    for k in (2, 3, 5):
        G = build(k, k, [range(k)])
        assert canonical_code(G) == b"".join(v.to_bytes(4, "big") for v in (k, k, 1, *range(k)))


def test_canonical_code_rejects_graphs_neither_tree_nor_unicyclic():
    C = gen.hypercycle(3, 3)
    graphs = [
        # n - 1 = m(k - 1) = 4, but vertex 4 is isolated and the edges meet twice.
        build(3, 5, [(0, 1, 2), (0, 1, 3)]),
        gen.complete(5, 2),
        # Two disjoint copies of C_{3,3}: n = m(k - 1) and two cycles left.
        build(3, 12, list(C.edges) + [[v + 6 for v in e] for e in C.edges]),
        # An edge beside K_4 minus an edge: n = m(k - 1), a theta left.
        build(2, 6, [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)]),
        # A hypertree beside an isolated vertex.
        build(3, 6, [(0, 1, 2), (0, 3, 4)]),
    ]
    for G in graphs:
        with pytest.raises(ValueError, match="hypertrees and unicyclic"):
            canonical_code(G)


# ---- UHG v1 ----


def test_uhg_round_trip():
    for G in (gen.hyperstar(5, 3), gen.hypercycle(4, 4), gen.double_star(5, 2)):
        assert parse_uhg(format_uhg(G)) == G


def test_uhg_comments_and_blanks():
    text = "# a comment\n\nuhg 2 3 2\n0 1\n# middle\n1 2\n"
    assert parse_uhg(text) == build(2, 3, [[0, 1], [1, 2]])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_uhg_round_trip_with_comments_and_blank_lines(data):
    G = data.draw(small_hypergraphs())
    filler = st.lists(st.sampled_from(["", "   ", "# a comment", "  # indented", "#"]), max_size=2)
    lines = []
    for line in format_uhg(G).splitlines() + [""]:
        lines += data.draw(filler) + [line]
    assert parse_uhg("\n".join(lines)) == G


def test_uhg_errors_carry_line_numbers():
    with pytest.raises(UhgParseError) as exc:
        parse_uhg("uhg 2 3\n0 1\n")
    assert exc.value.line == 1
    with pytest.raises(UhgParseError) as exc:
        parse_uhg("uhg 2 3 2\n0 1\n1 x\n")
    assert exc.value.line == 3
    with pytest.raises(UhgParseError) as exc:
        parse_uhg("uhg 2 3 2\n0 1\n0 1 2\n")
    assert exc.value.line == 3
    with pytest.raises(UhgParseError) as exc:
        parse_uhg("uhg 2 3 2\n0 1\n0 1\n")  # duplicate edge
    assert exc.value.line == 3


# ---- error behaviour: type, message, edge_index and line ----


@pytest.mark.parametrize("edges, error, message, index", [
    # The first offending edge wins, whatever the kind of fault.
    ([[0, 1, 2], [0, 1, 9], [0, 1, 2]], VertexRangeError,
     "edge 1 contains vertex 9 outside [0, 5)", 1),
    ([[0, 1, 2], [2, 1, 0], [3, 3, 4]], DuplicateEdgeError,
     "edge 1 duplicates edge 0: (0, 1, 2)", 1),
    ([[0, 1, 2], [3, 3, 4], [0, 1]], RepeatedVertexError,
     "edge 1 repeats a vertex: (3, 3, 4)", 1),
    # Within one edge: cardinality, then repeated vertex, then range.
    ([[0, 1, 2], [7, 7]], EdgeCardinalityError, "edge 1 has 2 vertices, expected 3", 1),
    ([[9, 9, 1]], RepeatedVertexError, "edge 0 repeats a vertex: (9, 9, 1)", 0),
    ([[0, -1, 2]], VertexRangeError, "edge 0 contains vertex -1 outside [0, 5)", 0),
    ([[0, 1, 2], [2, 3, 10**22]], VertexRangeError,
     f"edge 1 contains vertex {10**22} outside [0, 5)", 1),
], ids=["range-first", "duplicate-first", "repeat-first", "cardinality-before-repeat",
        "repeat-before-range", "negative", "beyond-int64"])
def test_build_error_pins(edges, error, message, index):
    with pytest.raises(error) as exc:
        build(3, 5, edges)
    assert type(exc.value) is error
    assert str(exc.value) == message and exc.value.edge_index == index


@pytest.mark.parametrize("text, message, line", [
    ("uhg 3 5 3\n0 1 2\n0 1 1\n0 1 9\n", "edge 1 repeats a vertex: (0, 1, 1)", 3),
    ("uhg 3 5 2\n0 1 2\n2 1 0\n", "edge 1 duplicates edge 0: (0, 1, 2)", 3),
    ("uhg 3 5 1\n0 -1 2\n", "edge 0 contains vertex -1 outside [0, 5)", 2),
    ("uhg 3 5 2\n0 1 2\n2 3 9999999999999999999999\n",
     "edge 1 contains vertex 9999999999999999999999 outside [0, 5)", 3),
    ("uhg 3 5 2\n0 1 2\n0 1\n", "expected 3 vertex ids, got 2", 3),
    ("uhg 3 5 2\n0 1 2\n0 x 2\n", "non-integer vertex id", 3),
    # A non-integer token anywhere is reported before a wrong token count.
    ("uhg 3 5 2\n0 1\n0 x 2\n", "non-integer vertex id", 3),
    ("uhg 3 5 3\n0 1 2\n0 3 4\n", "header declares 3 edges but 2 edge lines found", 1),
    ("# c\n\nuhg 3 5 2\n# c\n0 1 2\n\n  # c2\n0 3 3\n", "edge 1 repeats a vertex: (0, 3, 3)", 8),
    ("# c\nuhg 3 2 1\n0 1 2\n", "vertex count n=2 must be >= k=3", 2),
    ("uhg 3 5 2\r\n0 1 2\r\n0 1 1\r\n", "edge 1 repeats a vertex: (0, 1, 1)", 3),
    # "\r\r\n" is two line breaks, not one.
    ("uhg 3 5 2\r\r\n0 1 2\r\n0 1 1\r\n", "edge 1 repeats a vertex: (0, 1, 1)", 4),
], ids=["first-bad-edge", "duplicate-reordered", "negative", "beyond-int64", "token-count",
        "non-integer", "non-integer-before-count", "edge-count", "comments-and-blanks",
        "header-values", "crlf", "cr-before-crlf"])
def test_parse_error_pins(text, message, line):
    with pytest.raises(UhgParseError) as exc:
        parse_uhg(text)
    assert str(exc.value) == f"line {line}: {message}" and exc.value.line == line


# The array pass of parse_uhg against the line-by-line reader.

_ODD_TOKENS = ["+5", "1_000", "\u0663", "1.0", "-1", str(2**63)]
"""int() reads the first three; "\\u0663" is an Arabic-Indic 3."""


def _outcome(parse, text):
    """The hypergraph a parse returns, or the message and line of its error;
    any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(text)
        except UhgParseError as exc:
            return str(exc), exc.line


@st.composite
def mutated_uhg_texts(draw):
    G = draw(small_hypergraphs())
    lines = format_uhg(G).splitlines()
    if draw(st.integers(0, 9)) == 0:  # m = 0, with or without edge lines
        lines = [f"uhg {G.k} {G.n} 0"] + lines[1:] * draw(st.integers(0, 1))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["token", "comment", "inline", "blank", "tabs"]))
        i = draw(st.integers(0, len(lines) - 1))
        ids = lines[i].split()
        if kind == "token" and i > 0 and ids:
            ids[draw(st.integers(0, len(ids) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
            lines[i] = " ".join(ids)
        elif kind == "comment":
            lines.insert(i, draw(st.sampled_from(["# note", "  # indented", "\t#"])))
        elif kind == "inline":
            lines[i] += " # note"
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "tabs":
            lines[i] = lines[i].replace(" ", "\t")
    breaks = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c"])
    text = lines[0]
    for line in lines[1:]:
        text += draw(breaks) + line
    return text + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=400, deadline=None)
@given(mutated_uhg_texts())
def test_parse_uhg_equals_the_line_by_line_reader(text):
    assert _outcome(parse_uhg, text) == _outcome(hypergraph._parse_lines, text)


def test_plain_and_commented_texts_take_the_array_pass(monkeypatch):
    def refuse(text):
        raise AssertionError("read line by line")

    monkeypatch.setattr(hypergraph, "_parse_lines", refuse)
    G = gen.random_connected_hypergraph(40, 4, 3)
    text = format_uhg(G)
    commented = "# head\n" + text.replace("\n", "\n  # note\n\n", 3) + "#"
    for t in (text, text.rstrip("\n"), text.replace(" ", "\t"), commented):
        assert parse_uhg(t) == G
        assert parse_uhg(t.replace("\n", "\r\n")) == G
        assert parse_uhg(t.replace("\n", "\r\n", 5)) == G


def test_vertex_count_cap_is_checked_before_allocating():
    n = ab.MAX_VERTICES + 1
    with pytest.raises(InvalidHypergraphError, match="exceeds the cap"):
        build(3, n, [[0, 1, 2]])
    with pytest.raises(UhgParseError, match="exceeds the cap") as exc:
        parse_uhg("# huge\nuhg 3 100000000000 1\n0 1 2\n")
    assert exc.value.line == 2


# ---- array passes against their loop references ----


@st.composite
def small_hypergraphs(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 9))
    pool = list(itertools.combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True))
    return build(k, n, edges)


@settings(max_examples=200, deadline=None)
@given(small_hypergraphs(), st.randoms(use_true_random=False))
def test_linearity_and_girth_two_match_pairwise_intersection(G, rnd):
    shares = shares_a_pair_by_pairs(G)
    assert ab.is_linear(G) is not shares
    assert classify(G).linear is not shares
    assert (classify(G).girth == 2) is shares
    perm = list(range(G.n))
    rnd.shuffle(perm)
    assert classify(G) == classify(relabel(G, perm))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_matches_the_edge_by_edge_reference(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(k, 8))
    rows = data.draw(st.lists(st.lists(st.integers(-1, n), min_size=k, max_size=k), min_size=1, max_size=8))
    if data.draw(st.booleans()):  # normal order, which skips both sorts
        rows = sorted(sorted(row) for row in rows)
    A = np.array(rows, dtype=np.int64)
    edges = A if data.draw(st.booleans()) else rows
    expected = build_by_loop(k, n, rows)
    try:
        G = build(k, n, edges)
    except InvalidHypergraphError as exc:
        assert (type(exc).__name__, exc.edge_index) == expected
    else:
        assert ("edges", G.edges) == expected
        assert A.flags.writeable and not np.shares_memory(A, G.edge_array)


@settings(max_examples=200, deadline=None)
@given(small_hypergraphs(), st.randoms(use_true_random=False))
def test_is_connected_matches_search(G, rnd):
    perm = list(range(G.n))
    rnd.shuffle(perm)
    for H in (G, relabel(G, perm)):
        assert is_connected(H) is connected_by_search(H)


def test_is_connected_when_the_hub_has_the_largest_id():
    n = 2000
    star = build(2, n, [(v, n - 1) for v in range(n - 1)])
    assert is_connected(star)
    two_stars = [(v, n - 1) for v in range(n // 2)] + [(v, n - 2) for v in range(n // 2, n - 2)]
    assert not is_connected(build(2, n, two_stars))


def test_classify_hyperpath_with_1e5_edges(monkeypatch):
    def refuse(G):
        raise AssertionError("a hypertree is linear by its kind")

    monkeypatch.setattr(hypergraph, "is_linear", refuse)
    rep = classify(gen.hyperpath(10**5, 3))
    assert rep.kind == "hypertree" and rep.linear is True and rep.connected


def test_connectivity_is_computed_once_per_hypergraph(monkeypatch):
    from abctensor import hypergraph
    from abctensor.spectral import spectral_radius
    from abctensor.tensor import Weighting

    calls = []
    real = hypergraph.is_connected
    monkeypatch.setattr(hypergraph, "is_connected", lambda G: calls.append(G) or real(G))
    G = gen.hyperpath(5, 3)
    for w in Weighting:
        spectral_radius(G, w)
    assert classify(G).connected and G.connected
    assert len(calls) == 1
    H = build(3, 6, [[0, 1, 2], [3, 4, 5]])
    assert not classify(H).connected and not H.connected
    assert len(calls) == 2
