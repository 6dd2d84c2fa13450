"""Acceptance checks: one test per release criterion.

Each test is an exhaustive or fixture-pinned verification of one of the
package's headline guarantees, sized to run on a desktop.  `pytest -v`
prints one pass/fail line per criterion.
"""

from __future__ import annotations

from itertools import product

import networkx as nx
import pytest

from treecolor import assoc, coloring, enumeration, maps, paths, thompson, trees
from treecolor.coloring import FLEXIBLE
from treecolor.thompson import RotationSymbol, TreePair
from treecolor.trees import BinaryTree, all_trees, rotate

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def all_edge_paths(max_carets: int, max_len: int):
    """Every directed edge path of length <= max_len starting at a tree with
    <= max_carets carets, collected as rotation words."""
    words = set()

    def dfs(T, w):
        if len(w) == max_len:
            return
        for u in sorted(T.internal):
            for inv in (False, True):
                if u + ("1" if inv else "0") in T.internal:
                    w2 = w + (RotationSymbol(u, inv),)
                    words.add(w2)
                    dfs(rotate(T, u, inv), w2)

    for n in range(1, max_carets + 1):
        for T in all_trees(n):
            dfs(T, ())
    return words


def structure_graph(ss):
    g = nx.Graph()
    g.add_nodes_from(ss.support.internal)
    g.add_edges_from((a, b) for a, b, _ in ss.edges)
    return g


def test_criterion_01_catalan_counts():
    """Tree enumeration sizes match the Catalan numbers through n = 12."""
    for n in range(13):
        assert len(all_trees(n)) == CATALAN[n]


def test_criterion_02_diagonal_coloring_count():
    """Every tree with n <= 7 carets carries exactly 2^(n-1) normalized
    colorings, all distinct and all shared with its diagonal pair."""
    for n in range(1, 8):
        for T in all_trees(n):
            found = coloring.normalized_colorings(T)
            assert len(found) == 2 ** (n - 1)
            assert len(set(found)) == len(found)
    for T in all_trees(4):
        assert coloring.colorings_of_pair(TreePair(T, T)) == coloring.normalized_colorings(T)


def test_criterion_03_acceptability_brute_force():
    """The two-line acceptability test (non-constant, nonzero sum) agrees
    with brute-force witness existence for every vector of length <= 9."""
    for L in range(2, 10):
        ts = all_trees(L - 1)
        # encode each tree's shadow and each vector's zero intervals as
        # bitmasks; a witness is a tree whose shadow misses every interval
        bits: dict[tuple[int, int], int] = {}

        def enc(ivs):
            m = 0
            for iv in ivs:
                if iv not in bits:
                    bits[iv] = 1 << len(bits)
                m |= bits[iv]
            return m

        masks = [enc(trees.shadow_pattern(T)) for T in ts]
        for c in product((1, 2, 3), repeat=L):
            bad = enc(coloring.zero_intervals(c))
            exists = coloring.vector_sum(c) != 0 and any(m & bad == 0 for m in masks)
            if L <= 6:  # ground the mask oracle in direct validity checks
                assert exists == any(coloring.is_valid(T, c) for T in ts)
            assert coloring.is_acceptable(c) == exists
            w = coloring.acceptable_witness(c)
            assert (w is not None) == exists
            if w is not None:
                assert coloring.is_valid(w, c)


def test_criterion_04_trichotomy_and_alternative():
    """For every acceptable vector of length <= 8 the rigidity class is
    uniform over its valid trees, and its color graph is connected exactly
    when the class is flexible (edgeless otherwise)."""

    def alternating(T, s):
        return all(
            s[v] != s[v + b] for v in T.internal for b in "01" if v + b in T.internal
        )

    for L in range(2, 9):
        for c in product((1, 2, 3), repeat=L):
            g = assoc.color_graph(c)
            if not coloring.is_acceptable(c):
                assert not g.vertices
                continue
            cls = coloring.classify_vector(c)
            assert g.vertices
            assert assoc.is_connected_or_edgeless(g)
            assert bool(g.edges) == (cls == FLEXIBLE)
            verdicts = {alternating(T, coloring.signs_of(T, c)) for T in g.vertices}
            assert verdicts == {cls != FLEXIBLE}


def test_criterion_05_balance_theorem_sweep():
    """Over every edge path of length <= 6 from a start tree with <= 5
    carets (all pivot addresses have length <= 3 there), balance of the
    sign structure coincides with brute-force sign-assignment existence,
    and the compatible-coloring count from the minimal start tree is
    2^(p-1) with p the structure's component count."""
    words = all_edge_paths(5, 6)
    assert len(words) > 150_000
    for w in words:
        ss = paths.sign_structure(w)
        bal, p = paths.is_balanced(ss)
        found = paths.compatible_colorings(w, ss.support)
        assert (len(found) > 0) == bal
        assert len(found) == (2 ** (p - 1) if bal else 0)


def test_criterion_06_named_path_fixtures():
    """The five named fixture words have their pinned balance verdicts, the
    balanced six-symbol word represents the same element as the unbalanced
    five-symbol one, and no path under six symbols between the same
    endpoint trees is balanced."""
    verdicts = {
        "0 e 1": False,
        "0 e": True,
        "e e ~1": False,
        "e e 1 ~11": True,
        "e 1 1 1 ~e": False,
        "~0 e ~0 e ~0 e": True,
    }
    for text, want in verdicts.items():
        w = thompson.parse_word(text)
        assert paths.is_balanced(paths.sign_structure(w))[0] == want, text

    w5 = thompson.parse_word("e 1 1 1 ~e")
    w6 = thompson.parse_word("~0 e ~0 e ~0 e")
    assert thompson.word_to_pair(w5) == thompson.word_to_pair(w6)

    # exhaustive: every path of length <= 5 between the endpoint trees
    S = paths.sign_structure(w6).support
    E = thompson.path_evaluate(S, w6)[-1]
    assert thompson.path_evaluate(S, w5)[-1] == E
    equivalents = []

    def dfs(T, w):
        if w and T == E:
            equivalents.append(w)
        if len(w) == 5:
            return
        for u in sorted(T.internal):
            for inv in (False, True):
                if u + ("1" if inv else "0") in T.internal:
                    dfs(rotate(T, u, inv), w + (RotationSymbol(u, inv),))

    dfs(S, ())
    assert equivalents  # the five-symbol word itself is found
    assert not any(paths.is_balanced(paths.sign_structure(w))[0] for w in equivalents)


def test_criterion_07_prime_implies_connected():
    """Whenever a word's support tree and endpoint form a prime pair the
    sign structure is connected; a six-caret non-prime pair shows
    the converse fails, replayed from its signed-tree sequence."""
    for w in all_edge_paths(4, 5):
        ss = paths.sign_structure(w)
        T = ss.support
        if T.carets < 2:
            continue
        end = thompson.path_evaluate(T, w)[-1]
        if T == end or not maps.is_prime(TreePair(T, end)):
            continue
        assert nx.is_connected(structure_graph(ss)), thompson.format_word(w)

    # the non-prime counterexample: a nine-rotation sign-consistent path
    D = BinaryTree(["", "1", "10", "100", "1000", "10001"])
    R = BinaryTree(["", "0", "01", "011", "0111", "01110"])
    c = (1, 3, 3, 2, 1, 1, 1)
    assert coloring.classify_vector(c) == FLEXIBLE
    assert coloring.is_valid(D, c) and coloring.is_valid(R, c)
    w9 = thompson.parse_word("~e ~0 ~00 ~000 ~000 00 0 0 0")
    st = paths.SignedTree(D, coloring.signs_of(D, c))
    for s in w9:
        assert paths.is_signed_rotation_valid(st, s)
        st = paths.apply_signed_rotation(st, s)
    assert st.tree == R
    ss = paths.sign_structure(w9)
    assert ss.support == D
    assert paths.is_balanced(ss) == (True, 1)
    assert nx.is_connected(structure_graph(ss))
    assert not maps.is_prime(TreePair(D, R))
    # and the factor count law still governs its colorings: 8 = 2 * 4 * 1
    fac = maps.prime_factorization(TreePair(D, R))
    assert [len(coloring.colorings_of_pair(f)) for f in fac] == [4, 1]
    assert len(coloring.colorings_of_pair(TreePair(D, R))) == 8


def test_criterion_08_recurrences():
    """The acceptable / rigid / flexible recurrences match brute force up
    to length 10, and the rigid count is a Jacobsthal partial sum."""
    for n in range(1, 10):
        assert enumeration.count_acceptable(n) == enumeration.brute_acceptable(n)
        assert enumeration.count_rigid(n) == enumeration.brute_rigid(n)
        assert enumeration.count_flexible(n) == (
            enumeration.count_acceptable(n) - enumeration.count_rigid(n)
        )
    total = 0
    for n in range(1, 13):
        total += enumeration.jacobsthal(n)
        assert enumeration.count_rigid(n) == total


def test_criterion_09_chromatic_closed_forms():
    """Each family's closed-form coloring count equals backtracking/24 for
    every member with 6 <= n <= 12 (each family from its smallest size)."""
    for name, lo in [("W", 6), ("Theta", 6), ("Xi", 7), ("Y", 6), ("Nabla", 8)]:
        for n in range(lo, 13):
            t = maps.family(name, n)
            assert maps.count_vertex_colorings(t, 4) == 24 * maps.closed_form(name, n)


def test_criterion_10_extreme_count_conjecture():
    """Exhaustive search over prime pairs: the largest coloring count
    matches its predicted formula for 5 <= n <= 8 with a biwheel dual as
    witness, and at n = 9 and n = 10 all four predicted ranks appear exactly."""
    for n in range(5, 9):
        rep = enumeration.max_coloring_search(n)
        top, witness = rep.entries[0]
        assert top == enumeration.conjectured_m(1, n)
        dual = nx.Graph(maps.pair_to_dual(witness).graph)
        assert nx.is_isomorphic(dual, maps.biwheel(n).graph)
    for n in (9, 10):
        rep = enumeration.max_coloring_search(n, bound=n)
        got = [count for count, _ in rep.entries]
        assert got == [enumeration.conjectured_m(i, n) for i in (1, 2, 3, 4)]


def test_criterion_11_long_path_diameters():
    """The color graph of 1^m 2 1^n has diameter exactly m*n for m, n <= 4."""
    for m in range(1, 5):
        for n in range(1, 5):
            c = (1,) * m + (2,) + (1,) * n
            assert assoc.graph_diameter(assoc.color_graph(c)) == m * n


def test_criterion_12_separation():
    """A pinned four-interval family splits the dimension-4 skeleton
    into two halves of three trees, while no flexible vector's zero set
    separates any skeleton of dimension <= 7."""
    flag, label = assoc.face_union_separates(4, [(1, 5), (2, 4), (3, 6), (4, 6)])
    assert flag
    sizes = sorted(list(label.values()).count(k) for k in set(label.values()))
    assert sizes == [3, 3]

    swap = {1: 1, 2: 3, 3: 2}
    for d in range(1, 8):
        ts = all_trees(d + 1)
        idx = {T: i for i, T in enumerate(ts)}
        adj = [[] for _ in ts]
        for T, i in idx.items():
            for u in T.internal:
                if u + "0" in T.internal:
                    j = idx[rotate(T, u)]
                    adj[i].append(j)
                    adj[j].append(i)
        shadows = [trees.shadow_pattern(T) for T in ts]
        for rest in product((1, 2, 3), repeat=d + 1):
            c = (1,) + rest
            if tuple(swap[x] for x in c) < c:
                continue  # zero sets are invariant under recoloring
            if coloring.classify_vector(c) != FLEXIBLE:
                continue
            bad = coloring.zero_intervals(c)
            keep = {i for i in range(len(ts)) if not (shadows[i] & bad)}
            start = next(iter(keep))
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w in keep and w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == keep, c


def test_criterion_13_surface_fixtures():
    """The torus triple accepts its pinned coloring, the uncolorable
    six-leaf triple has none, and the projective-plane fixture admits no
    proper edge three-coloring."""
    found = maps.v_triple_colorings(maps.torus_k7())
    assert (1, 3, 1, 2, 2, 3, 1, 3) in found
    assert maps.v_triple_colorings(maps.no_color_v()) == []
    assert maps.edge_three_coloring_count(maps.petersen_graph()) == 0


def test_criterion_14_zero_set_extremes():
    """|Z| is n^2/4 (rounded down) for 1^n 2 and n^2/8 for the centered
    family, through n = 12; exhaustively, no acceptable vector of length
    <= 10 beats the first family."""
    for n in range(2, 13):
        assert len(coloring.zero_intervals((1,) * n + (2,))) == n * n // 4
        if n % 2 == 0:
            k = n // 2
            assert len(coloring.zero_intervals((1,) * k + (2,) + (1,) * k)) == n * n // 8
    for n in range(2, 10):
        hi, _, hi_w, _ = enumeration.zero_set_extremes(n)
        assert hi == n * n // 4
        assert len(coloring.zero_intervals(hi_w)) == hi
