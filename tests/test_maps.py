"""Tests for the map layer: duals, primality, factorization, the five
triangulation families, surface triples and edge-numbering balance."""

from __future__ import annotations

import os
import subprocess
import sys

import networkx as nx
import pytest

import treecolor
from treecolor.coloring import colorings_of_pair
from treecolor.errors import LengthMismatch, OutOfRange, TooLarge, TooSmall
from treecolor.maps import (
    FAMILIES,
    Triangulation,
    balance_classification,
    biwheel,
    closed_form,
    common_intervals,
    count_vertex_colorings,
    edge_numbering_balance,
    edge_numbering_signs,
    edge_three_coloring_count,
    face_four_coloring_count,
    family,
    has_parallel_edges,
    is_prime,
    no_color_v,
    pair_to_dual,
    pair_to_map,
    petersen_graph,
    prime_factorization,
    torus_k7,
    v_triple_colorings,
)
from treecolor.thompson import TreePair, all_pairs, parse_word, word_to_pair
from treecolor.trees import BinaryTree, all_trees, left_vine, right_vine, shadow_interval, subtree_at


# ---------- duals ----------


def test_dual_of_basic_rotation_is_k4():
    p = TreePair(left_vine(2), right_vine(2))
    d = pair_to_dual(p).graph
    assert nx.is_isomorphic(nx.Graph(d), nx.complete_graph(4))
    assert d.number_of_edges() == 6


def test_dual_sizes():
    # a pair with L leaves gives L+1 dual vertices and 2L-1+... edges:
    # L+1 boundary edges plus L-2 chords per side
    for p in all_pairs(3):
        d = pair_to_dual(p).graph
        L = p.d.leaf_count
        assert d.number_of_nodes() == L + 1
        assert d.number_of_edges() == (L + 1) + 2 * (L - 2)


def test_dual_of_diagonal_pair_has_parallel_chords():
    T = right_vine(3)
    assert has_parallel_edges(pair_to_dual(TreePair(T, T)))


def test_dual_triangulation_faces():
    # Euler count for a prime pair's dual: simple planar with 2n-4 faces
    p = word_to_pair(parse_word("0 e"))
    assert is_prime(p)
    d = nx.Graph(pair_to_dual(p).graph)
    n, m = d.number_of_nodes(), d.number_of_edges()
    assert m == 3 * n - 6  # maximal planar


def test_pair_to_map_is_cubic():
    p = word_to_pair(parse_word("0 e"))
    m = pair_to_map(p)
    assert all(deg == 3 for _, deg in m.graph.degree())
    assert m.face_count == p.d.leaf_count + 1
    assert m.graph.number_of_nodes() == 2 * p.d.carets


def test_maps_are_edge_tuples_with_networkx_views():
    T = right_vine(3)
    dual = pair_to_dual(TreePair(T, T))
    assert dual.vertices == (0, 1, 2, 3, 4)
    # the boundary cycle, then each tree's chords: both trees repeat them
    assert sorted(dual.edges[5:7]) == sorted(dual.edges[7:])
    g = dual.graph
    assert type(g) is nx.MultiGraph and g.number_of_edges() == len(dual.edges) == 9
    assert type(biwheel(6).graph) is nx.Graph
    m = pair_to_map(TreePair(T, T))
    assert type(m.graph) is nx.MultiGraph
    assert m.graph.number_of_edges() == len(m.edges) == 3 * T.carets


def test_has_parallel_edges_counts_unordered_pairs():
    def tri(*edges):
        return Triangulation("t", tuple(range(4)), edges)

    assert not has_parallel_edges(tri((0, 1), (1, 2), (2, 0)))
    assert has_parallel_edges(tri((0, 1), (1, 2), (1, 0)))
    assert has_parallel_edges(tri((0, 1), (2, 3), (0, 1)))
    assert not has_parallel_edges(biwheel(7))


def test_count_vertex_colorings_ignores_parallel_edges():
    # a non-prime dual has parallel chords; the count is that of its simple graph
    T = right_vine(3)
    dual = pair_to_dual(TreePair(T, T))
    assert has_parallel_edges(dual)
    assert count_vertex_colorings(dual, 4) == count_vertex_colorings(nx.Graph(dual.graph), 4)
    assert count_vertex_colorings(dual, 4) == count_vertex_colorings(dual.graph, 4)


def test_map_layer_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from treecolor import coloring, enumeration, maps\n"
        "from treecolor.thompson import TreePair\n"
        "from treecolor.trees import left_vine, right_vine\n"
        "p = TreePair(left_vine(3), right_vine(3))\n"
        "assert not maps.has_parallel_edges(maps.pair_to_dual(p))\n"
        "assert maps.has_parallel_edges(maps.pair_to_dual(TreePair(p.d, p.d)))\n"
        "assert coloring.colorings_of_pair(p) == [(2, 1, 1, 3)]\n"
        "rep = enumeration.max_coloring_search(9, bound=9)\n"
        "assert [c for c, _ in rep.entries] == [enumeration.conjectured_m(i, 9) for i in (1, 2, 3, 4)]\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_map_too_small():
    with pytest.raises(TooSmall):
        pair_to_map(TreePair(BinaryTree([]), BinaryTree([])))


# ---------- primality ----------


def test_is_prime_fixtures():
    assert is_prime(TreePair(left_vine(2), right_vine(2)))
    T = right_vine(4)
    assert not is_prime(TreePair(T, T))
    assert common_intervals(TreePair(T, T)) == {(2, 5), (3, 5), (4, 5)}


def test_primality_rejects_unequal_leaf_counts():
    # a pair with unequal leaf counts cannot be built, so no primality
    # function can be handed one
    with pytest.raises(LengthMismatch, match=r"^leaf counts differ: 2 != 4$"):
        TreePair(right_vine(1), right_vine(3))


def test_prime_matches_parallel_edge_oracle():
    for n in (2, 3, 4):
        for d in all_trees(n):
            for r in all_trees(n):
                p = TreePair(d, r)
                assert is_prime(p) == (not has_parallel_edges(pair_to_dual(p)))


# ---------- factorization ----------


def test_factorization_of_prime_is_itself():
    p = word_to_pair(parse_word("0 e"))
    assert prime_factorization(p) == [p]


def test_factorization_factors_are_prime():
    for d in all_trees(4):
        for r in all_trees(4):
            for f in prime_factorization(TreePair(d, r)):
                assert is_prime(f)


def test_factor_count_law():
    # colorings of the pair = 2^(k-1) * product over the k factors
    for d in all_trees(4):
        for r in all_trees(4):
            p = TreePair(d, r)
            fac = prime_factorization(p)
            prod = 1
            for f in fac:
                prod *= len(colorings_of_pair(f))
            assert len(colorings_of_pair(p)) == 2 ** (len(fac) - 1) * prod


def ref_prime_factorization(p):
    """The split with the cut vertices found by a scan over each tree."""
    factors = []
    while common := common_intervals(p):
        iv = min(common, key=lambda iv: (iv[1] - iv[0], iv[0]))
        u, v = (next(x for x in sorted(T.internal) if x and shadow_interval(T, x) == iv) for T in p)
        factors.append(TreePair(subtree_at(p.d, u), subtree_at(p.r, v)))
        p = TreePair(
            BinaryTree(w for w in p.d.internal if not w.startswith(u)),
            BinaryTree(w for w in p.r.internal if not w.startswith(v)),
        )
    factors.append(p)
    return factors


def test_factorization_matches_reference():
    # every pair through 5 carets, reduced or not
    for n in range(6):
        for d in all_trees(n):
            for r in all_trees(n):
                p = TreePair(d, r)
                assert prime_factorization(p) == ref_prime_factorization(p), p


# ---------- families ----------


def test_family_shapes():
    w8 = biwheel(8)
    assert w8.n == 8
    assert w8.graph.number_of_edges() == 3 * 8 - 6
    degs = sorted(d for _, d in w8.graph.degree())
    assert degs == [4, 4, 4, 4, 4, 4, 6, 6]  # six rim, two apexes
    for name in FAMILIES:
        t = family(name, 9)
        assert t.n == 9
        assert t.graph.number_of_edges() == 3 * 9 - 6  # all are triangulations


def test_family_range_guards():
    for name, lo in [("W", 5), ("Theta", 6), ("Xi", 7), ("Y", 6), ("Nabla", 8)]:
        family(name, lo)  # smallest member exists
        with pytest.raises(TooSmall):
            family(name, lo - 1)
    with pytest.raises(OutOfRange):
        family("Z", 8)


def test_chromatic_closed_forms_small():
    for name, lo in [("W", 6), ("Theta", 6), ("Xi", 7), ("Y", 6), ("Nabla", 8)]:
        for n in (lo, lo + 1):
            t = family(name, n)
            assert count_vertex_colorings(t, 4) == 24 * closed_form(name, n)


def test_count_vertex_colorings_oracle():
    # cross-check the backtracking counter on graphs with known values
    assert count_vertex_colorings(nx.complete_graph(4), 4) == 24
    assert count_vertex_colorings(nx.cycle_graph(5), 4) == 3**5 - 3  # (k-1)^n + (k-1)(-1)^n
    assert count_vertex_colorings(nx.empty_graph(3), 4) == 64
    assert count_vertex_colorings(nx.complete_graph(5), 4) == 0


def plain_vertex_colorings(vertices, edges, k: int) -> int:
    """Test-only oracle: backtracking that tries all k colors at every vertex.

    Vertices are placed greedily next to as many placed ones as possible, so
    it visits one leaf per proper coloring.
    """
    adj = {v: set() for v in vertices}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    order: list = []
    remaining = set(vertices)
    while remaining:
        placed = set(order)
        best = max(remaining, key=lambda v: (len(adj[v] & placed), len(adj[v]), str(v)))
        order.append(best)
        remaining.discard(best)
    pos = {v: i for i, v in enumerate(order)}
    back = [[pos[u] for u in adj[v] if pos[u] < i] for i, v in enumerate(order)]
    colors = [0] * len(order)

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        used = {colors[j] for j in back[i]}
        total = 0
        for c in range(k):
            if c not in used:
                colors[i] = c
                total += rec(i + 1)
        return total

    return rec(0)


def test_count_vertex_colorings_matches_plain_backtracking_on_families():
    for name, (_, lo) in FAMILIES.items():
        for n in range(lo, 13):
            t = family(name, n)
            for k in range(1, 6):
                want = plain_vertex_colorings(t.vertices, t.edges, k)
                assert count_vertex_colorings(t, k) == want, (name, n, k)


def test_count_vertex_colorings_matches_plain_backtracking_on_duals():
    for n in range(1, 6):
        for d in all_trees(n):
            for r in all_trees(n):
                dual = pair_to_dual(TreePair(d, r))
                # k = 5 is left to the families: the oracle alone would take
                # about 3.5 s here (2 cores, Python 3.11)
                for k in range(1, 5):
                    want = plain_vertex_colorings(dual.vertices, dual.edges, k)
                    assert count_vertex_colorings(dual, k) == want, (d, r, k)


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ((), ()),  # the empty graph has one coloring
        ((0, 1, 2), ()),  # isolated vertices: k^3
        ((0, 1, 2, 3, 4), ((0, 1), (2, 3))),  # two edges and an isolated vertex
        ((0, 1, 2), ((0, 1), (1, 2), (0, 1), (2, 2))),  # a parallel edge and a loop
        (tuple(range(5)), tuple((a, b) for a in range(5) for b in range(a + 1, 5))),  # K5
    ],
)
def test_count_vertex_colorings_matches_plain_backtracking_by_hand(vertices, edges):
    t = Triangulation("hand", vertices, edges)
    for k in range(0, 7):
        want = plain_vertex_colorings(vertices, edges, k)
        assert count_vertex_colorings(t, k) == want, k
        assert count_vertex_colorings(t.graph, k) == want, k


def test_face_four_coloring_count():
    p = TreePair(left_vine(2), right_vine(2))
    # the dual is K4: exactly the 24 colorings
    assert face_four_coloring_count(pair_to_map(p)) == 24


# ---------- surface triples ----------


def test_torus_fixture():
    t = torus_k7()
    found = v_triple_colorings(t)
    assert (1, 3, 1, 2, 2, 3, 1, 3) in found
    assert len(found) == 48


def test_no_color_fixture():
    assert v_triple_colorings(no_color_v()) == []


def test_v_triple_shape_guard():
    t = torus_k7()
    with pytest.raises(TooSmall):
        v_triple_colorings(t._replace(labels=(1, 2, 3)))


def test_petersen_has_no_edge_coloring():
    assert edge_three_coloring_count(petersen_graph()) == 0


def test_edge_coloring_counter():
    assert edge_three_coloring_count(nx.complete_graph(4)) == 6
    with pytest.raises(TooLarge):
        edge_three_coloring_count(nx.complete_graph(7))  # 21 edges


# ---------- edge-numbering balance ----------


def test_edge_numbering_signs():
    g = nx.path_graph(3)
    # first edge always positive; the second shares a degree-1 endpoint
    assert edge_numbering_signs(g, [(0, 1), (1, 2)]) == [True, False]


def test_edge_numbering_balance_small():
    g = nx.path_graph(3)
    assert edge_numbering_balance(g, [(0, 1), (1, 2)])


def test_balance_classification_fixtures():
    assert balance_classification(nx.cycle_graph(3)) == "never"
    assert balance_classification(nx.cycle_graph(4)) == "always"
    assert balance_classification(nx.path_graph(4)) == "always"


def test_balance_classification_guard():
    with pytest.raises(TooLarge):
        balance_classification(nx.complete_graph(5))  # ten edges
