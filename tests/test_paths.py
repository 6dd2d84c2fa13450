"""Tests for signed rotations, sign structures, the balance criterion, the
compatible-coloring count, path search and the square/pentagon moves."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from treecolor import paths
from treecolor.coloring import normalized_colorings, signs_of
from treecolor.errors import NoMatch, OutOfRange, PivotMissing
from treecolor.paths import (
    SignedTree,
    SignStructure,
    apply_signed_rotation,
    compatible_colorings,
    find_sign_consistent_path,
    is_balanced,
    is_signed_rotation_valid,
    pentagon_move,
    sign_structure,
    sign_structure_dot,
    square_move,
    subpath_check,
)
from treecolor.thompson import (
    RotationSymbol,
    TreePair,
    apply_element,
    format_word,
    parse_word,
    path_evaluate,
    word_to_pair,
)
from treecolor.trees import BinaryTree, all_trees, right_vine

from test_acceptance import all_edge_paths

symbols_st = st.tuples(
    st.sampled_from(["", "0", "1", "00", "01", "10", "11"]),
    st.booleans(),
).map(lambda t: RotationSymbol(*t))
words_st = st.lists(symbols_st, min_size=1, max_size=4).map(tuple)


def signed(T, c):
    return SignedTree(T, signs_of(T, c))


# ---------- signed rotations ----------


def test_signed_rotation_validity():
    T = right_vine(3)
    st_pos = SignedTree(T, {"": True, "1": True, "11": True})
    st_mix = SignedTree(T, {"": True, "1": False, "11": True})
    s = RotationSymbol("1", True)  # pivots "1" and "11"
    assert is_signed_rotation_valid(st_pos, s)
    assert not is_signed_rotation_valid(st_mix, s)


def test_signed_rotation_round_trip():
    st0 = SignedTree(right_vine(3), {"": True, "1": False, "11": True})
    s = RotationSymbol("1", True)
    st1 = apply_signed_rotation(st0, s)
    assert apply_signed_rotation(st1, s.opposite()) == st0


def test_signed_rotation_negates_new_pivots():
    # after rotating, the pivot pair of the opposite symbol flips sign
    st0 = SignedTree(right_vine(2), {"": True, "1": True})
    st1 = apply_signed_rotation(st0, RotationSymbol("", True))
    assert st1.tree == BinaryTree(["", "0"])
    assert st1.signs == {"": False, "0": False}


def test_signed_rotation_missing_pivot():
    with pytest.raises(PivotMissing):
        apply_signed_rotation(
            SignedTree(right_vine(2), {"": True, "1": True}), RotationSymbol("", False)
        )


# ---------- sign structures ----------


def test_sign_structure_fixture():
    ss = sign_structure(parse_word("0 e 1"))
    assert set(ss.edges) == {("0", "00", True), ("", "00", False), ("", "0", True)}
    assert ss.support.internal == frozenset({"", "0", "00"})


def test_sign_structure_edge_count():
    for text in ["0 e", "e e 1 ~11", "~0 e ~0 e ~0 e"]:
        w = parse_word(text)
        assert len(sign_structure(w).edges) == len(w)


def test_balance_verdicts():
    cases = {
        "0 e": (True, 1),
        "0 e 1": (False, 1),
        "e e ~1": (False, 1),
        "e e 1 ~11": (True, 1),
        "e 1 1 1 ~e": (False, 1),
        "~0 e ~0 e ~0 e": (True, 1),
    }
    for text, want in cases.items():
        assert is_balanced(sign_structure(parse_word(text))) == want, text


def test_subpath_check():
    assert subpath_check(parse_word("0 e 1")) == [True, True, False]


def sign_structure_by_pairs(w):
    """Reference route: pull the pivots back with the inverse of the reduced
    tree pair of each prefix."""
    edges = []
    degree = {}
    for i, s in enumerate(w):
        prefix = word_to_pair(w[:i])
        back = TreePair(prefix.r, prefix.d)
        a, b = (apply_element(back, v) for v in s.pivots)
        positive = (degree.get(a, 0) + degree.get(b, 0)) % 2 == 0
        edges.append((a, b, positive))
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    closure = {v[:k] for a, b, _ in edges for v in (a, b) for k in range(len(v) + 1)}
    return SignStructure(tuple(edges), BinaryTree(closure))


def random_word(rng, max_depth, max_len):
    addrs = [""] + [
        "".join(rng.choice("01") for _ in range(rng.randint(1, max_depth)))
        for _ in range(8)
    ]
    return tuple(
        RotationSymbol(rng.choice(addrs), rng.random() < 0.5)
        for _ in range(rng.randint(1, max_len))
    )


def test_sign_structure_matches_tree_pairs_on_criterion_05_slice():
    words = sorted(all_edge_paths(5, 6))
    for w in random.Random(601).sample(words, 1500):
        assert sign_structure(w) == sign_structure_by_pairs(w), format_word(w)


def test_sign_structure_matches_tree_pairs_on_random_words():
    # most of these words are no edge path from any small tree
    rng = random.Random(17)
    for _ in range(1500):
        w = random_word(rng, max_depth=4, max_len=7)
        assert sign_structure(w) == sign_structure_by_pairs(w), format_word(w)


def test_component_count_includes_isolated_vertices():
    # "0" only joins "0" and "00"; the support still reaches the root,
    # which counts as its own component
    ss = sign_structure(parse_word("0"))
    assert ss.support == BinaryTree(["", "0", "00"])
    assert ss.edges == (("0", "00", True),)
    assert is_balanced(ss) == (True, 2)


# ---------- compatible colorings ----------


def test_compatible_coloring_count_matches_balance():
    rng = random.Random(3)
    addrs = ["", "0", "1", "00", "01", "10", "11"]
    pool = [T for n in range(1, 6) for T in all_trees(n)]
    checked = 0
    while checked < 60:
        w = tuple(
            RotationSymbol(rng.choice(addrs), rng.random() < 0.5)
            for _ in range(rng.randint(1, 4))
        )
        ss = sign_structure(w)
        start = ss.support
        if start.carets < 1:
            continue
        try:
            path_evaluate(start, w)
        except PivotMissing:
            continue
        bal, p = is_balanced(ss)
        got = len(compatible_colorings(w, start))
        assert got == (2 ** (p - 1) if bal else 0), format_word(w)
        checked += 1


def test_compatible_colorings_walk_validly():
    w = parse_word("0 e")
    D = sign_structure(w).support
    for c in compatible_colorings(w, D):
        st0 = signed(D, c)
        for s in w:
            assert is_signed_rotation_valid(st0, s)
            st0 = apply_signed_rotation(st0, s)


def test_unbalanced_word_has_no_colorings():
    w = parse_word("0 e 1")
    D = sign_structure(w).support
    assert compatible_colorings(w, D) == []
    assert len(normalized_colorings(D)) == 4  # the obstruction is the signs


def compatible_colorings_by_walk(w, D):
    """Reference route: carry each normalized vector's signed tree along the
    path, rotating the whole tree at every step."""
    path_evaluate(D, w)
    out = []
    for c in normalized_colorings(D):
        st0 = signed(D, c)
        for s in w:
            if not is_signed_rotation_valid(st0, s):
                break
            st0 = apply_signed_rotation(st0, s)
        else:
            out.append(c)
    return out


def compatible_coloring_cases():
    """(word, start tree) pairs: minimal supports, the balance suite's
    larger start trees, and the empty word."""
    rng = random.Random(29)
    pool = [T for n in range(1, 6) for T in all_trees(n)]
    starts = [T for T in pool if T.carets >= 3]
    words = sorted(all_edge_paths(4, 5))
    cases = [((), T) for T in pool[:20]]
    for w in rng.sample(words, 400):
        cases.append((w, sign_structure(w).support))
        for T in rng.sample(starts, 3):
            try:
                path_evaluate(T, w)
            except PivotMissing:
                continue
            cases.append((w, T))
    return cases


def test_compatible_colorings_match_vector_walk():
    cases = compatible_coloring_cases()
    larger = sum(T.carets > sign_structure(w).support.carets for w, T in cases if w)
    assert larger > 100
    for w, T in cases:
        assert compatible_colorings(w, T) == compatible_colorings_by_walk(w, T), (
            format_word(w),
            T.to_text(),
        )


def test_compatible_colorings_empty_word():
    for T in [BinaryTree(), right_vine(1), right_vine(4)]:
        got = compatible_colorings((), T)
        assert got == normalized_colorings(T) == compatible_colorings_by_walk((), T)


def test_compatible_colorings_leaving_the_skeleton():
    w = parse_word("~e 1")  # the first step is fine, the second is not
    T = right_vine(2)
    with pytest.raises(PivotMissing) as new:
        compatible_colorings(w, T)
    with pytest.raises(PivotMissing) as old:
        compatible_colorings_by_walk(w, T)
    assert str(new.value) == str(old.value)
    assert str(new.value) == "symbol 1 (1): pivots 1,10 not internal in ((..).)"


def test_compatible_colorings_independent_of_sign_structure(monkeypatch):
    cases = compatible_coloring_cases()[::20]
    want = [compatible_colorings_by_walk(w, T) for w, T in cases]

    def forbidden(*args):
        raise AssertionError("the oracle consulted the balance criterion")

    monkeypatch.setattr(paths, "sign_structure", forbidden)
    monkeypatch.setattr(paths, "is_balanced", forbidden)
    assert [compatible_colorings(w, T) for w, T in cases] == want


# ---------- path search ----------


def test_find_path_trivial():
    D = BinaryTree(["", "0"])
    R = BinaryTree(["", "1"])
    w = find_sign_consistent_path(D, R)
    assert w is not None
    assert word_to_pair(w) == TreePair(D, R)
    assert path_evaluate(D, w)[-1] == R


def test_find_path_respects_signs():
    D = BinaryTree(["", "0"])
    R = BinaryTree(["", "1"])
    w = find_sign_consistent_path(D, R)
    assert is_balanced(sign_structure(w))[0]


def test_find_path_conventions():
    T = right_vine(3)
    assert find_sign_consistent_path(T, T) == ()
    with pytest.raises(PivotMissing):
        find_sign_consistent_path(T, right_vine(2))


# ---------- moves ----------


def test_square_move_disjoint_pivots():
    w = parse_word("0 11")
    assert format_word(square_move(w, 0)) == "11 0"
    assert square_move(square_move(w, 0), 0) == w


def test_square_move_cancelling_triple():
    w = parse_word("0 e 1 111 ~1")
    assert format_word(square_move(w, 2)) == "0 e 11"


def test_pentagon_move_fixture():
    assert format_word(pentagon_move(parse_word("0 e 1"), 0)) == "e e"
    assert format_word(pentagon_move(parse_word("e e"), 0)) == "0 e 1"


def test_moves_preserve_element():
    for text, idx, move in [
        ("0 11", 0, square_move),
        ("0 e 1 111 ~1", 2, square_move),
        ("0 e 1", 0, pentagon_move),
        ("e e", 0, pentagon_move),
    ]:
        w = parse_word(text)
        assert word_to_pair(move(w, idx)) == word_to_pair(w)


def test_move_errors():
    with pytest.raises(NoMatch):
        square_move(parse_word("0 0"), 0)  # pivots interfere
    with pytest.raises(NoMatch):
        pentagon_move(parse_word("0 1"), 0)
    with pytest.raises(OutOfRange):
        square_move(parse_word("e"), 0)
    with pytest.raises(OutOfRange):
        pentagon_move(parse_word("0 e 1"), -1)


@given(words_st)
def test_square_move_never_changes_element(w):
    p = word_to_pair(w)
    for i in range(len(w) - 1):
        try:
            w2 = square_move(w, i)
        except NoMatch:
            continue
        assert word_to_pair(w2) == p


# ---------- export ----------


def test_sign_structure_dot():
    out = sign_structure_dot(sign_structure(parse_word("0 e 1")))
    assert out.startswith("graph")
    assert '"e"' in out or "e" in out
