"""Tests for the cached rotation skeleton and the layers that run on it: the
colour graph, zero sets and face-removal separation are compared with a
reference that scans every tree's shadow pattern, rotates trees and hands
the graph to networkx; the shared signed-balance search is checked on deep
input."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import treecolor
from treecolor import assoc, trees
from treecolor.coloring import normalized_colorings, vector_sum, zero_intervals
from treecolor.enumeration import pair_coloring_counts
from treecolor.errors import DimensionTooLarge, Disconnected
from treecolor.paths import sign_structure, signed_balance
from treecolor.thompson import TreePair
from treecolor.trees import (
    all_trees,
    interval_mask,
    leaves,
    rotate,
    shadow_pattern,
    skeleton,
)

from test_acceptance import all_edge_paths

# ---------- the reference: shadow scans, rotate and networkx ----------


def ref_shadow_pattern(T):
    """Each non-root internal vertex's shadow, by scanning every leaf."""
    lv = leaves(T)
    out = set()
    for v in T.internal - {""}:
        sub = [i + 1 for i, w in enumerate(lv) if w.startswith(v)]
        out.add((sub[0], sub[-1]))
    return frozenset(out)


def ref_induced(d, bad):
    """Trees with d+1 carets whose shadow misses the interval set bad, and the
    sorted left-rotation edges between them."""
    keep = [T for T in all_trees(d + 1) if not (ref_shadow_pattern(T) & bad)]
    index = {T: i for i, T in enumerate(keep)}
    edges = set()
    for T, i in index.items():
        for u in sorted(T.internal):
            if u + "0" in T.internal:
                j = index.get(rotate(T, u))
                if j is not None:
                    edges.add((min(i, j), max(i, j)))
    return keep, sorted(edges)


def ref_color_graph(c):
    if vector_sum(c) == 0 or len(set(c)) <= 1:
        return [], []
    return ref_induced(len(c) - 2, zero_intervals(c))


def ref_nx(verts, edges):
    g = nx.Graph()
    g.add_nodes_from(range(len(verts)))
    g.add_edges_from(edges)
    return g


def ref_connected_or_edgeless(verts, edges):
    return not edges or nx.is_connected(ref_nx(verts, edges))


def ref_diameter(verts, edges):
    """The diameter, or Disconnected for a disconnected graph."""
    if len(verts) <= 1:
        return 0
    g = ref_nx(verts, edges)
    if not nx.is_connected(g):
        return Disconnected
    return nx.diameter(g)


def diameter_or_disconnected(g):
    try:
        return assoc.graph_diameter(g)
    except Disconnected:
        return Disconnected


def assert_matches_reference(c):
    g = assoc.color_graph(c)
    verts, edges = ref_color_graph(c)
    assert g.vertices == tuple(verts), c
    assert g.edges == tuple(edges), c
    assert assoc.is_connected_or_edgeless(g) == ref_connected_or_edgeless(verts, edges), c
    assert diameter_or_disconnected(g) == ref_diameter(verts, edges), c


def sample_vectors(rng, lengths, per_length):
    return [
        tuple(rng.choice((1, 2, 3)) for _ in range(L)) for L in lengths for _ in range(per_length)
    ]


# ---------- the skeleton itself ----------


def test_interval_mask_bit_encoding():
    L = 6
    for lo in range(1, L + 1):
        for hi in range(lo, L + 1):
            assert interval_mask([(lo, hi)], L) == 1 << ((lo - 1) * L + hi - 1)
    assert interval_mask([(2, 4), (3, 4)], 5) == (1 << 8) | (1 << 13)
    assert interval_mask([], 5) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_shadow_pattern_matches_leaf_scan(n):
    for T in all_trees(n):
        assert shadow_pattern(T) == ref_shadow_pattern(T)


@pytest.mark.parametrize("n", range(0, 7))
def test_skeleton_invariants(n):
    sk = skeleton(n)
    assert sk.trees == tuple(all_trees(n))
    index = {T: i for i, T in enumerate(sk.trees)}
    assert len(index) == len(sk.trees)
    for T, mask, left in zip(sk.trees, sk.masks, sk.left):
        assert mask == interval_mask(ref_shadow_pattern(T), n + 1)
        pivots = [u for u in sorted(T.internal) if u + "0" in T.internal]
        assert list(left) == [index[rotate(T, u)] for u in pivots]
    # every tree has n-1 rotatable edges, and each skeleton edge appears
    # once, as a left rotation of one endpoint
    edges = [frozenset((i, j)) for i, left in enumerate(sk.left) for j in left]
    assert len(edges) == len(set(edges)) == max(n - 1, 0) * len(sk.trees) // 2
    assert skeleton(n) is sk


# ---------- colour graphs against the reference ----------


def test_color_graph_matches_reference_through_length_6():
    for L in range(2, 7):
        for c in product((1, 2, 3), repeat=L):
            assert_matches_reference(c)


def test_color_graph_matches_reference_on_a_sample_of_lengths_7_to_9():
    for c in sample_vectors(random.Random(4), (7, 8, 9), 12):
        assert_matches_reference(c)


def test_color_graph_matches_reference_on_the_long_path_family():
    for m in range(1, 5):
        for n in range(1, 5):
            c = (1,) * m + (2,) + (1,) * n
            assert_matches_reference(c)
            assert assoc.graph_diameter(assoc.color_graph(c)) == m * n


def test_bfs_reports_a_disconnected_graph_with_edges():
    # no colour graph is disconnected with edges, so build one by hand
    g = assoc.ColorGraph((), tuple(all_trees(3)[:4]), ((0, 1), (2, 3)))
    assert not assoc.is_connected_or_edgeless(g)
    with pytest.raises(Disconnected):
        assoc.graph_diameter(g)
    path = g._replace(edges=((0, 1), (1, 2), (2, 3)))
    assert assoc.is_connected_or_edgeless(path)
    assert assoc.graph_diameter(path) == 3


# ---------- zero sets and separation against the reference ----------


def test_zero_set_matches_reference():
    fixtures = [(1, 2, 3, 1), (1, 1, 2, 1), (1, 2, 3, 1, 2), (2, 2, 3, 1), (1, 1, 1), (1, 2, 3)]
    for c in fixtures + sample_vectors(random.Random(5), range(2, 9), 6):
        z = assoc.zero_set(c)
        bad = zero_intervals(c)
        assert z.intervals == frozenset(bad)
        assert z.vertices == tuple(T for T in all_trees(len(c) - 1) if ref_shadow_pattern(T) & bad)


def ref_separates(d, family):
    keep, edges = ref_induced(d, set(family))
    comps = sorted(nx.connected_components(ref_nx(keep, edges)), key=min) if keep else []
    label = {keep[i]: k for k, comp in enumerate(comps) for i in comp}
    return len(comps) > 1, label


def test_face_union_separates_matches_reference():
    cases = [(4, [(1, 5), (2, 4), (3, 6), (4, 6)])]
    cases += [(3, [(lo, hi)]) for lo in range(1, 5) for hi in range(lo + 1, 6) if (lo, hi) != (1, 5)]
    rng = random.Random(6)
    for _ in range(60):
        d = rng.randint(1, 5)
        n = d + 2
        proper = [(lo, hi) for lo in range(1, n) for hi in range(lo + 1, n + 1) if (lo, hi) != (1, n)]
        cases.append((d, rng.sample(proper, min(len(proper), rng.randint(1, 5)))))
    separating = 0
    for d, family in cases:
        got = assoc.face_union_separates(d, family)
        assert got == ref_separates(d, family), (d, family)
        separating += got[0]
    assert separating  # the sample exercises the labelling of several components


# ---------- pair colouring counts against the per-tree interval sets ----------


def ref_pair_coloring_counts(carets):
    ts = all_trees(carets)
    shadows = {T: ref_shadow_pattern(T) for T in ts}
    zeros = {T: [zero_intervals(c) for c in normalized_colorings(T)] for T in ts}
    for d in ts:
        for r in ts:
            if not shadows[d] & shadows[r]:
                yield TreePair(d, r), sum(1 for bad in zeros[d] if not shadows[r] & bad)


@pytest.mark.parametrize("carets", range(0, 8))
def test_pair_coloring_counts_match_reference(carets):
    assert list(pair_coloring_counts(carets)) == list(ref_pair_coloring_counts(carets))


# ---------- guards and imports ----------


def test_dimension_guard_runs_before_the_skeleton(monkeypatch):
    def boom(n):
        raise AssertionError("skeleton built before the dimension check")

    monkeypatch.setattr(assoc, "MAX_DIMENSION", 3)
    monkeypatch.setattr(trees, "skeleton", boom)
    monkeypatch.setattr(assoc, "skeleton", boom)
    for call in (assoc.color_graph, assoc.zero_set):
        with pytest.raises(DimensionTooLarge):
            call((1, 1, 1, 1, 1, 2))  # d = 4
    with pytest.raises(DimensionTooLarge):
        assoc.face_union_separates(4, [(1, 2)])


def test_color_graph_layer_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from treecolor import assoc\n"
        "g = assoc.color_graph((1, 1, 3, 2, 2, 1, 3, 3))\n"
        "assert assoc.graph_diameter(g) == 10\n"
        "assert assoc.is_connected_or_edgeless(g)\n"
        "assoc.zero_set((1, 2, 3, 1))\n"
        "assert assoc.face_union_separates(4, [(1, 5), (2, 4), (3, 6), (4, 6)])[0]\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# ---------- signed balance ----------


def ref_signed_balance(nodes, edges):
    """Union-find with parity: each node keeps its sign relative to its parent."""
    parent = {v: v for v in nodes}
    parity = {v: 0 for v in nodes}

    def find(v):
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    balanced = True
    for a, b, positive in edges:
        need = 0 if positive else 1
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            balanced = balanced and pa ^ pb == need
        else:
            parent[ra] = rb
            parity[ra] = pa ^ pb ^ need
    return balanced, len({find(v)[0] for v in parent})


def test_signed_balance_matches_union_find_on_sign_structures():
    for w in all_edge_paths(4, 5):
        ss = sign_structure(w)
        nodes = ss.support.internal
        assert signed_balance(nodes, ss.edges) == ref_signed_balance(nodes, ss.edges), w


signed_multigraphs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()), max_size=12),
    )
)


@given(signed_multigraphs)
def test_signed_balance_matches_union_find_on_multigraphs(graph):
    # loops and parallel edges of either sign included
    n, edges = graph
    assert signed_balance(range(n), edges) == ref_signed_balance(range(n), edges)


def test_signed_balance_deep_chain():
    # a chain far longer than the recursion limit
    n = 3 * sys.getrecursionlimit()
    chain = [(i, i + 1, True) for i in range(n)]
    assert signed_balance(range(n + 1), chain) == (True, 1)
    # closing the chain into a cycle: positive keeps it balanced, negative not
    assert signed_balance(range(n + 1), chain + [(0, n, True)]) == (True, 1)
    assert signed_balance(range(n + 1), chain + [(n, 0, False)]) == (False, 1)
    assert signed_balance(range(n + 2), chain) == (True, 2)
