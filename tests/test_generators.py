"""Family constructors, self-checks of the T-family degree patterns,
and isomorphism-free enumeration."""

import hashlib
import math
import random

import numpy as np
import pytest

from abctensor import InvalidHypergraphError, build, canonical_code, classify, degrees
from abctensor import generators as gen
from abctensor import hypergraph
from abctensor.generators import BudgetExceededError
from abctensor.tensor import omega
from helpers import grow_each_size


def test_attach_pendant_edge_single_edge_gives_star2():
    G = gen.attach_pendant_edge(build(3, 3, [[0, 1, 2]]), 0)
    assert G == gen.hyperstar(2, 3)


def test_attach_pendant_edge_at_center_grows_star():
    G = gen.attach_pendant_edge(gen.hyperstar(2, 3), 0)
    assert canonical_code(G) == canonical_code(gen.hyperstar(3, 3))


def test_attach_pendant_edges_at_leaves_gives_path_like_tree():
    G = gen.hyperstar(2, 3)
    G = gen.attach_pendant_edge(G, 1)  # leaf of first edge
    G = gen.attach_pendant_edge(G, 3)  # leaf of the other edge
    assert canonical_code(G) == canonical_code(gen.hyperpath(4, 3))


def test_hyperstar_shapes():
    assert gen.hyperstar(1, 3) == build(3, 3, [[0, 1, 2]])
    G = gen.hyperstar(4, 2)
    assert G.n == 5 and degrees(G).max_degree == 4
    rep = classify(gen.hyperstar(3, 4))
    assert rep.kind == "hypertree" and rep.power_hypertree is True


def test_hyperpath_shapes():
    assert canonical_code(gen.hyperpath(2, 3)) == canonical_code(gen.hyperstar(2, 3))
    P = gen.hyperpath(6, 3)
    assert P.n == 13 and P.m == 6
    sets = [set(e) for e in P.edges]
    inter = [[len(a & b) for b in sets] for a in sets]
    for i in range(6):
        for j in range(6):
            if abs(i - j) == 1:
                assert inter[i][j] == 1
            elif i != j:
                assert inter[i][j] == 0
    assert gen.hyperpath(3, 2).n == 4


def test_hypercycle_shapes():
    C = gen.hypercycle(3, 3)
    assert C.n == 6 and C.m == 3 and classify(C).girth == 3
    C2 = gen.hypercycle(2, 3)
    assert len(set(C2.edges[0]) & set(C2.edges[1])) == 2
    C44 = gen.hypercycle(4, 4)
    d = C44.degree_list
    for e in C44.edges:
        assert sum(d[v] for v in e) == C44.k + 2  # two degree-2 joints per edge


def test_complete():
    K = gen.complete(4, 3)
    assert K.m == 4 and set(degrees(K).degrees) == {3}
    assert gen.complete(5, 2).m == 10
    assert set(degrees(gen.complete(5, 4)).degrees) == {4}
    with pytest.raises(BudgetExceededError):
        gen.complete(40, 20)


def test_power():
    e3 = gen.power(build(2, 2, [[0, 1]]), 3)
    assert e3.m == 1 and e3.k == 3
    tri = gen.cycle_graph(3)
    assert canonical_code(gen.power(tri, 3)) == canonical_code(gen.hypercycle(3, 3))
    assert canonical_code(gen.power(tri, 3)) == canonical_code(
        gen.unicyclic_family(3, 3, 3, (0, 0, 0))
    )
    D = gen.double_star(5, 1)
    D4 = gen.power(D, 4)
    assert D4.m == D.m and D4.n == D.n + D.m * (4 - 2)
    new_vertices = set(range(D.n, D4.n))
    d = D4.degree_list
    assert all(d[v] == 1 for v in new_vertices)
    assert gen.power(D, 2) is D


def test_double_star_degrees():
    assert canonical_code(gen.double_star(3, 1)) == canonical_code(gen.hyperpath(3, 2))
    assert sorted(degrees(gen.double_star(5, 1)).degrees) == [1, 1, 1, 1, 2, 4]
    assert sorted(degrees(gen.double_star(5, 2)).degrees) == [1, 1, 1, 1, 3, 3]
    with pytest.raises(ValueError):
        gen.double_star(5, 3)


def test_s_composition():
    assert canonical_code(gen.s_composition(4, 3, (3, 0, 0))) == canonical_code(
        gen.hyperstar(4, 3)
    )
    G = gen.s_composition(6, 3, (3, 1, 1))
    assert G.m == 6 and classify(G).kind == "hypertree"
    assert classify(gen.s_composition(6, 3, (2, 2, 1))).power_hypertree is False
    with pytest.raises(ValueError):
        gen.s_composition(6, 3, (3, 1, 0))


def test_s_composition_order_invariant():
    a = canonical_code(gen.s_composition(6, 3, (3, 1, 1)))
    b = canonical_code(gen.s_composition(6, 3, (1, 3, 1)))
    c = canonical_code(gen.s_composition(6, 3, (1, 1, 3)))
    assert a == b == c


def test_unicyclic_family():
    U = gen.unicyclic_family(5, 3, 2, (3, 0, 0))
    assert U.n == 10 == U.m * (U.k - 1)
    assert degrees(U).max_degree == 5  # joint vertex: 2 cycle edges + 3 pendants
    U3 = gen.unicyclic_family(6, 4, 3, (3, 0, 0, 0))
    assert U3.n == 18 and classify(U3).kind == "unicyclic"
    assert canonical_code(gen.unicyclic_family(5, 3, 2, (1, 1, 1))) != canonical_code(
        gen.unicyclic_family(5, 3, 2, (3, 0, 0))
    )
    with pytest.raises(ValueError):
        gen.unicyclic_family(5, 3, 4, (1, 0, 0))
    with pytest.raises(ValueError):
        gen.unicyclic_family(5, 3, 2, (2, 0, 0))


def test_unicyclic_g3_matches_power_of_unicyclic_graph():
    # U_{m,3}^{(k)} is the k-th power of the 2-uniform U_{m,3}.
    for m in (3, 4, 6):
        lifted = gen.power(gen.unicyclic_graph(m, 3), 3)
        family = gen.unicyclic_family(m, 3, 3, (m - 3, 0, 0))
        assert canonical_code(lifted) == canonical_code(family)


# ---- T families: the prose constructions must reproduce the exact
# edge-weight patterns their characteristic reductions assume. ----


def _omega_multiset(G):
    return sorted(omega(G, e) for e in range(G.m))


def test_t1_is_s421():
    assert canonical_code(gen.t_family(6, 1)) == canonical_code(
        gen.s_composition(6, 3, (2, 2, 1))
    )


def test_t2_degree_pattern():
    for m in (5, 6, 8):
        G = gen.t_family(m, 2)
        assert G.m == m and classify(G).kind == "hypertree"
        expect = sorted(
            [0.5] * 4 + [(m - 2) / (4 * (m - 3))] + [(m - 4) / (m - 3)] * (m - 5)
        )
        assert _omega_multiset(G) == pytest.approx(expect)


def test_t3_degree_pattern():
    for m in (5, 6, 8):
        G = gen.t_family(m, 3)
        assert G.m == m and classify(G).kind == "hypertree"
        expect = sorted([0.5] * 3 + [3.0 / 8.0] + [(m - 4) / (m - 3)] * (m - 4))
        assert _omega_multiset(G) == pytest.approx(expect)


def test_t4_degree_pattern():
    for m in (5, 6, 8):
        G = gen.t_family(m, 4)
        assert G.m == m and classify(G).kind == "hypertree"
        expect = sorted(
            [0.5] * 3 + [(m - 2) / (4 * (m - 3))] + [(m - 4) / (m - 3)] * (m - 4)
        )
        assert _omega_multiset(G) == pytest.approx(expect)


def test_t_families_coincide_at_m5():
    c2 = canonical_code(gen.t_family(5, 2))
    c3 = canonical_code(gen.t_family(5, 3))
    c4 = canonical_code(gen.t_family(5, 4))
    assert c2 == c3 == c4


def test_t3_has_degree_m_minus_3():
    assert degrees(gen.t_family(7, 3)).max_degree == 4


def test_t_family_rejects_small_m():
    with pytest.raises(ValueError):
        gen.t_family(5, 1)
    with pytest.raises(ValueError):
        gen.t_family(4, 2)


def test_example_h1():
    H = gen.example_h(1)
    assert H.k == 3 and H.m == 6 and H.n == 13
    assert sorted(H.degree_list) == [1] * 8 + [2] * 5
    rep = classify(H)
    # The two inherited edges carry no degree-1 vertex, so this tree is
    # not the cube of any ordinary tree.
    assert rep.kind == "hypertree" and rep.power_hypertree is False


def test_example_h2():
    H = gen.example_h(2)
    assert H.k == 4 and H.m == 12 and H.n == 37
    assert sorted(H.degree_list) == [1] * 27 + [2] * 9 + [3]


# ---- enumeration ----


def test_enumeration_counts():
    assert len(gen.enumerate_hypertrees(2, 3)) == 1
    assert len(gen.enumerate_hypertrees(3, 3)) == 2
    assert len(gen.enumerate_hypertrees(3, 2)) == 2
    assert len(gen.enumerate_hypertrees(4, 2)) == 3
    assert len(gen.enumerate_hypertrees(5, 2)) == 6


def test_enumeration_all_hypertrees():
    for T in gen.enumerate_hypertrees(5, 3):
        rep = classify(T)
        assert rep.kind == "hypertree"
        assert T.n == T.m * (T.k - 1) + 1


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        gen.enumerate_hypertrees(9, 3)
    assert len(gen.enumerate_hypertrees(4, 5)) > 0
    with pytest.raises(BudgetExceededError):
        gen.enumerate_hypertrees(5, 5)


def test_one_growth_per_k_matches_growing_each_size_from_scratch():
    for k in (2, 3, 4, 5):
        top = gen.ENUM_BUDGET.get(k, 4)
        levels = gen.hypertree_classes(top, k)
        assert len(levels) == top
        edge = build(k, k, [tuple(range(k))])
        for m, level in enumerate(levels, 1):
            ref = grow_each_size(edge, m - 1)
            assert list(level) == list(ref), (k, m)
            assert all(np.array_equal(level[c].edge_array, ref[c].edge_array) for c in ref)
            trees = gen.enumerate_hypertrees(m, k)
            assert [T.edge_array.tolist() for T in trees] == [ref[c].edge_array.tolist() for c in sorted(ref)]
    with pytest.raises(BudgetExceededError, match=r"enumerate_hypertrees\(7,3\) exceeds budget m <= 6"):
        gen.hypertree_classes(7, 3)


def test_unicyclic_enumeration_counts_and_kinds():
    for m, count in ((3, 3), (4, 10), (5, 31)):
        shapes = gen.enumerate_small_unicyclic(m, 3)
        assert len(shapes) == count
        assert all(classify(G).kind == "unicyclic" and G.m == m for G in shapes)
        assert len({canonical_code(G) for G in shapes}) == count


def test_enumeration_contains_named_families():
    codes = {canonical_code(T) for T in gen.enumerate_hypertrees(5, 3)}
    assert canonical_code(gen.hyperstar(5, 3)) in codes
    assert canonical_code(gen.hyperpath(5, 3)) in codes
    assert canonical_code(gen.s_composition(5, 3, (2, 1, 1))) in codes
    assert canonical_code(gen.power(gen.double_star(5, 1), 3)) in codes


def test_random_hypertree_is_reproducible():
    a = gen.random_hypertree(6, 3, seed=42)
    b = gen.random_hypertree(6, 3, seed=42)
    assert a == b
    assert classify(a).kind == "hypertree"


def test_random_hypertree_matches_the_attach_loop():
    for m, k in ((1, 3), (7, 2), (20, 3), (15, 5)):
        for seed in range(10):
            rng = random.Random(seed)
            ref = build(k, k, [tuple(range(k))])
            for _ in range(m - 1):
                ref = gen.attach_pendant_edge(ref, rng.randrange(ref.n))
            G = gen.random_hypertree(m, k, seed)
            assert G.n == ref.n and np.array_equal(G.edge_array, ref.edge_array)


def test_random_generators_check_their_size_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the size")

    monkeypatch.setattr(random.Random, "randrange", no_draw)
    for make in (gen.random_hypertree, gen.random_connected_hypergraph):
        for m, k in ((0, 3), (-2, 3), (3, 0)):
            with pytest.raises(ValueError, match=f"m={m}, k={k}"):
                make(m, k, 1)
        with pytest.raises(InvalidHypergraphError, match="exceeds the cap"):
            make(6_000_000, 3, 1)


def _attach_loop(G, anchors):
    for v in anchors:
        G = gen.attach_pendant_edge(G, v)
    return G


def _compositions(total, parts):
    """Every composition of total into the given number of nonnegative parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _same(G, H):
    return G.k == H.k and G.n == H.n and np.array_equal(G.edge_array, H.edge_array)


def test_attach_pendant_edge_equals_a_fresh_build():
    graphs = [T for k in (2, 3, 4) for m in (1, 2, 3, 4) for T in gen.enumerate_hypertrees(m, k)]
    graphs += gen.enumerate_small_unicyclic(4, 3) + [gen.cycle_graph(5), gen.complete(5, 3)]
    for G in graphs:
        for v in range(G.n):
            fresh = build(G.k, G.n + G.k - 1, list(G.edges) + [(v,) + tuple(range(G.n, G.n + G.k - 1))])
            H = gen.attach_pendant_edge(G, v)
            assert _same(H, fresh) and not H.edge_array.flags.writeable
            assert H.edge_array.dtype == fresh.edge_array.dtype and H.edge_array.flags.c_contiguous


@pytest.mark.parametrize("v", [1.0, 1.5, np.float64(2.0), "a", "1", None])
def test_attach_pendant_edge_rejects_a_non_integer_vertex(v):
    with pytest.raises(InvalidHypergraphError, match="vertex ids must be integers"):
        gen.attach_pendant_edge(gen.hyperstar(2, 3), v)


def test_pendant_families_match_the_attach_loop():
    for k in (2, 3, 4, 5):
        edge = build(k, k, [tuple(range(k))])
        for m in range(1, 8):
            for a in _compositions(m - 1, k):
                anchors = [v for v in range(k) for _ in range(a[v])]
                assert _same(gen.s_composition(m, k, a), _attach_loop(edge, anchors))
            for g in (2, 3):
                if k < 3 or m < g:
                    continue
                for a in _compositions(m - g, k):
                    anchors = [v for v in range(k) for _ in range(a[v])]
                    ref = _attach_loop(gen.hypercycle(g, k), anchors)
                    assert _same(gen.unicyclic_family(m, k, g, a), ref)
    for g in (3, 4, 5):
        for m in range(g, 10):
            ref = _attach_loop(gen.cycle_graph(g), [0] * (m - g))
            assert _same(gen.unicyclic_graph(m, g), ref)
    assert _same(gen.example_h(1), _attach_loop(gen.hyperstar(2, 3), range(1, 5)))
    assert _same(gen.example_h(2), _attach_loop(gen.hyperstar(3, 4), range(1, 10)))


def test_pendant_families_keep_their_edge_arrays():
    # One SHA-256 over (k, n, m) and the edge array of each family member,
    # recorded when these families listed their edges by hand.
    graphs = [f(m, k) for f in (gen.hyperstar, gen.hyperpath) for k in range(2, 6) for m in range(1, 9)]
    graphs += [gen.double_star(m, a) for m in range(3, 12) for a in range(1, (m - 1) // 2 + 1)]
    graphs += [gen.t_family(m, idx) for idx in (1, 2, 3, 4) for m in range(6 if idx == 1 else 5, 12)]
    graphs += [gen.example_h(1), gen.example_h(2)]
    digest = hashlib.sha256()
    for G in graphs:
        digest.update(np.array([G.k, G.n, G.m], dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(G.edge_array, dtype=np.int64).tobytes())
    assert len(graphs) == 118
    assert digest.hexdigest() == "deab635f9eed8210014f687930bcfec1444849146763d8a67c26d577790ce1c6"


CAPPED = {
    "hyperstar": (gen.hyperstar, (4, 3)),
    "hyperpath": (gen.hyperpath, (4, 3)),
    "hypercycle": (gen.hypercycle, (4, 3)),
    "cycle_graph": (gen.cycle_graph, (5,)),
    "power": (gen.power, (gen.hyperstar(3, 2), 4)),
    "double_star": (gen.double_star, (6, 2)),
    "s_composition": (gen.s_composition, (5, 3, (2, 1, 1))),
    "unicyclic_family": (gen.unicyclic_family, (6, 3, 3, (1, 1, 1))),
    "unicyclic_graph": (gen.unicyclic_graph, (7, 4)),
    "t_family-3": (gen.t_family, (6, 3)),
}


@pytest.mark.parametrize("name", list(CAPPED))
def test_vertex_cap_is_checked_before_any_edge_is_listed(monkeypatch, name):
    builder, args = CAPPED[name]
    n = builder(*args).n
    monkeypatch.setattr(hypergraph, "MAX_VERTICES", n)
    assert builder(*args).n == n
    monkeypatch.setattr(hypergraph, "MAX_VERTICES", n - 1)
    monkeypatch.setattr(gen, "build", lambda *a: pytest.fail("build ran past the vertex cap"))
    with pytest.raises(InvalidHypergraphError, match=f"n={n} exceeds the cap {n - 1}"):
        builder(*args)
