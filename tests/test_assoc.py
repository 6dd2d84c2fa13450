"""Tests for color graphs inside the rotation skeleton: vertex selection,
connectivity, diameters, vine words, separation and positive neighborhoods."""

from __future__ import annotations

from itertools import product

import pytest

from treecolor import assoc
from treecolor.assoc import (
    all_positive_vertices,
    color_graph,
    color_graph_dot,
    face_union_separates,
    graph_diameter,
    is_connected_or_edgeless,
    positive_neighborhood,
    positive_vector,
    sweep_csv,
    vine_word,
    zero_set,
)
from treecolor.coloring import (
    FLEXIBLE,
    UNACCEPTABLE,
    classify_vector,
    is_acceptable,
    is_valid,
    signs_of,
    zero_intervals,
)
from treecolor.errors import (
    DimensionTooLarge,
    Disconnected,
    NotAVineColoring,
    TooSmall,
    ZeroEntry,
)
from treecolor.trees import all_trees, is_vine, left_vine, right_vine, rotate


def brute_graph(c):
    """Independent rebuild: valid trees plus every rotation between them."""
    verts = [T for T in all_trees(len(c) - 1) if is_valid(T, c)]
    edges = set()
    for T in verts:
        for u in T.internal:
            if u + "0" in T.internal:
                S = rotate(T, u)
                if S in verts:
                    edges.add(frozenset({T, S}))
    return verts, edges


# ---------- vertex and edge selection ----------


def test_color_graph_matches_brute_force():
    for L in range(2, 6):
        for c in product((1, 2, 3), repeat=L):
            g = color_graph(c)
            verts, edges = brute_graph(c)
            assert list(g.vertices) == verts
            got = {frozenset({g.vertices[a], g.vertices[b]}) for a, b in g.edges}
            assert got == edges


def test_acceptability_agrees_everywhere():
    """is_acceptable, classify_vector and color_graph share one rule."""
    for L in range(2, 8):
        for c in product((1, 2, 3), repeat=L):
            acceptable = is_acceptable(c)
            assert (classify_vector(c) != UNACCEPTABLE) == acceptable, c
            assert bool(color_graph(c).vertices) == acceptable, c


def test_vertices_in_canonical_order():
    g = color_graph((1, 1, 3, 2, 2, 1, 3, 3))
    texts = [T.to_text() for T in g.vertices]
    assert texts == sorted(texts)


def test_unacceptable_vector_gives_empty_graph():
    assert color_graph((1, 1, 1)).vertices == ()
    assert color_graph((1, 2, 3)).vertices == ()


def test_input_guards():
    with pytest.raises(ZeroEntry):
        color_graph((1, 0, 2))
    with pytest.raises(TooSmall):
        color_graph((1,))


def test_dimension_guard(monkeypatch):
    assert assoc.MAX_DIMENSION == 9
    with pytest.raises(DimensionTooLarge, match="^dimension 11 exceeds bound 9$"):
        color_graph((1,) * 12 + (2,))  # d = 11
    monkeypatch.setattr(assoc, "MAX_DIMENSION", 3)
    with pytest.raises(DimensionTooLarge):
        color_graph((1, 1, 1, 1, 1, 2))  # d = 4, now over the limit


# ---------- connectivity and the trichotomy ----------


def test_connected_or_edgeless_everywhere():
    for L in range(2, 6):
        for c in product((1, 2, 3), repeat=L):
            g = color_graph(c)
            assert is_connected_or_edgeless(g)
            if not is_acceptable(c):
                continue
            if classify_vector(c) == FLEXIBLE:
                assert g.edges
            else:
                assert not g.edges


def test_diameter_of_one_two_one_vectors():
    # the vector 1^m 2 1^n spans a grid-like graph of diameter m*n
    for m in range(1, 4):
        for n in range(1, 4):
            c = (1,) * m + (2,) + (1,) * n
            assert graph_diameter(color_graph(c)) == m * n


def test_diameter_disconnected():
    # a rigid vector with several valid trees: edgeless but not a single point
    g = color_graph((1, 1, 2, 3, 3))
    assert len(g.vertices) == 2 and not g.edges
    with pytest.raises(Disconnected):
        graph_diameter(g)


def test_theta_shaped_flexible_graph():
    # a length-8 flexible vector whose graph is three 10-edge paths glued
    # at two degree-3 trees forming a prime pair
    import networkx as nx

    g = color_graph((1, 1, 3, 2, 2, 1, 3, 3))
    nxg = g.to_networkx()
    assert (len(g.vertices), len(g.edges)) == (29, 30)
    hubs = [i for i in nxg.nodes if nxg.degree(i) == 3]
    assert len(hubs) == 2
    assert nx.shortest_path_length(nxg, *hubs) == 10
    assert len(list(nx.node_disjoint_paths(nxg, *hubs))) == 3
    cut = nxg.copy()
    cut.remove_nodes_from(hubs)
    assert sorted(len(c) for c in nx.connected_components(cut)) == [9, 9, 9]
    from treecolor.maps import is_prime
    from treecolor.thompson import TreePair

    assert is_prime(TreePair(g.vertices[hubs[0]], g.vertices[hubs[1]]))
    assert graph_diameter(g) == 10


# ---------- zero sets ----------


def test_zero_set_fixture():
    z = zero_set((1, 2, 3, 1))
    assert z.intervals == frozenset({(1, 3), (2, 4)})
    assert all(T not in color_graph((1, 2, 3, 1)).vertices for T in z.vertices)


def test_zero_set_partitions_trees():
    for c in [(1, 1, 2, 1), (1, 2, 3, 1, 2), (2, 2, 3, 1)]:
        z = zero_set(c)
        g = color_graph(c)
        if len(set(c)) > 1 and zero_intervals(c) == z.intervals:
            assert len(z.vertices) + len(g.vertices) == len(all_trees(len(c) - 1)) or (
                not g.vertices
            )


# ---------- vine words ----------


def test_vine_word_right_vine():
    assert vine_word(right_vine(4), (1, 1, 1, 1, 2)) == "llll"
    assert vine_word(left_vine(4), (2, 1, 1, 1, 1)) == "rrrr"


def test_vine_word_distinguishes_vectors():
    # the unique vine reading rrllrl under 1^3 2 1^3 reads rrllrr when the
    # 2 shifts one slot left
    hits = []
    for T in all_trees(6):
        if not is_vine(T):
            continue
        try:
            if vine_word(T, (1, 1, 1, 2, 1, 1, 1)) == "rrllrl":
                hits.append(T)
        except NotAVineColoring:
            pass
    assert len(hits) == 1
    assert vine_word(hits[0], (1, 1, 2, 1, 1, 1, 1)) == "rrllrr"


def test_vine_word_errors():
    with pytest.raises(NotAVineColoring):
        vine_word(right_vine(3), (1, 2, 3, 1))  # not a 1^m 2 1^n vector
    with pytest.raises(NotAVineColoring):
        vine_word(left_vine(3), (1, 1, 1, 2))  # vector invalid on this vine


def test_vine_word_letter_counts():
    # the l-count always equals the number of ones before the 2
    for T in all_trees(5):
        if not is_vine(T):
            continue
        for m in range(1, 5):
            c = (1,) * m + (2,) + (1,) * (5 - m)
            try:
                w = vine_word(T, c)
            except NotAVineColoring:
                continue
            assert w.count("l") == m


# ---------- separation ----------


def test_single_interval_never_separates():
    for lo in range(1, 5):
        for hi in range(lo + 1, 6):
            if (lo, hi) == (1, 5):
                continue
            flag, _ = face_union_separates(3, [(lo, hi)])
            assert not flag


def test_separating_family():
    flag, label = face_union_separates(4, [(1, 5), (2, 4), (3, 6), (4, 6)])
    assert flag
    sizes = sorted(list(label.values()).count(k) for k in set(label.values()))
    assert sizes == [3, 3]


def test_separation_interval_guard():
    with pytest.raises(TooSmall):
        face_union_separates(3, [(1, 5)])  # the full interval is not proper


# ---------- positive neighborhoods ----------


def test_positive_vector_signs():
    for T in all_trees(4):
        c = positive_vector(T)
        assert is_valid(T, c)
        assert all(signs_of(T, c).values())


def test_positive_neighborhood_contains_tree():
    T = right_vine(3)
    c, g = positive_neighborhood(T)
    assert T in g.vertices
    assert all_positive_vertices(g) == [T]


def test_positive_vertex_unique():
    # within one color graph only one tree can be all-positive
    for T in all_trees(4):
        _, g = positive_neighborhood(T)
        assert all_positive_vertices(g) == [T]


# ---------- export ----------


def test_dot_export():
    out = color_graph_dot(color_graph((1, 1, 2, 1)))
    assert out.startswith("graph")
    assert out.rstrip().endswith("}")


def test_csv_export():
    out = sweep_csv([(1, 1, 2, 1), (1, 2, 1)])
    lines = out.strip().splitlines()
    assert lines[0] == "vector,vertices,edges,diameter,zero_intervals"
    assert len(lines) == 3
    assert lines[1].startswith("1121,")
