"""Tests for color vectors and edge colorings: validity, signs, acceptability
witnesses, the rigidity trichotomy and zero intervals."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from treecolor.coloring import (
    FLEXIBLE,
    NEGATIVE_RIGID,
    POSITIVE_RIGID,
    UNACCEPTABLE,
    acceptable_witness,
    classify_vector,
    coloring_from_sign,
    colorings_of_pair,
    edge_coloring_from_vector,
    format_vector,
    is_acceptable,
    is_pattern_compatible,
    is_rigid,
    is_valid,
    normalized_colorings,
    parse_vector,
    pattern_coloring,
    pattern_positive,
    pattern_rigid,
    sign_assignment_from_coloring,
    signs_of,
    vector_from_edge_coloring,
    vector_sum,
    zero_intervals,
)
from treecolor.errors import (
    ImproperColoring,
    LengthMismatch,
    TooShort,
    ZeroEntry,
    ZeroRoot,
)
from treecolor.thompson import TreePair, parse_word, word_to_pair
from treecolor.trees import BinaryTree, all_trees, left_vine, right_vine

vectors_st = st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=7).map(tuple)


# ---------- parsing and arithmetic ----------


def test_vector_text():
    assert parse_vector("1232") == (1, 2, 3, 2)
    assert format_vector((1, 2, 3)) == "123"
    with pytest.raises(ZeroEntry):
        parse_vector("124")


def test_vector_sum_is_xor():
    assert vector_sum((1, 2)) == 3
    assert vector_sum((1, 2, 3)) == 0
    assert vector_sum((2, 2)) == 0


# ---------- edge colorings ----------


def test_edge_coloring_caret():
    e = edge_coloring_from_vector(BinaryTree([""]), (2, 3))
    assert e == {"": 1, "0": 2, "1": 3}


def test_edge_coloring_interior_sums():
    T = right_vine(3)
    e = edge_coloring_from_vector(T, (1, 2, 1, 3))
    for v in T.internal:
        assert e[v] == e[v + "0"] ^ e[v + "1"]


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        edge_coloring_from_vector(BinaryTree([""]), (1, 2, 3))


def test_validity():
    assert is_valid(BinaryTree([""]), (2, 3))
    assert not is_valid(BinaryTree([""]), (2, 2))  # root edge would be 0
    # the same vector can be valid on one tree and not another
    c = (1, 1, 2, 3)
    assert not is_valid(left_vine(3), c)
    assert is_valid(BinaryTree(["", "0", "01"]), c)


# ---------- signs ----------


def test_sign_fixture():
    # (up, left, right) = (1, 2, 3) is a positive corner
    e = edge_coloring_from_vector(BinaryTree([""]), (2, 3))
    assert sign_assignment_from_coloring(BinaryTree([""]), e) == {"": True}
    e = edge_coloring_from_vector(BinaryTree([""]), (3, 2))
    assert sign_assignment_from_coloring(BinaryTree([""]), e) == {"": False}


def test_sign_rejects_zero():
    with pytest.raises(ImproperColoring):
        signs_of(BinaryTree([""]), (2, 2))
    with pytest.raises(ZeroRoot):
        coloring_from_sign(BinaryTree([""]), {"": True}, root=0)


@given(vectors_st)
def test_sign_round_trip(c):
    w = acceptable_witness(c)
    if w is None:
        return
    e = edge_coloring_from_vector(w, c)
    s = sign_assignment_from_coloring(w, e)
    assert coloring_from_sign(w, s, root=e[""]) == e
    assert vector_from_edge_coloring(w, e) == tuple(c)


# ---------- acceptability ----------


def test_acceptable_characterization():
    assert is_acceptable((1, 2))
    assert not is_acceptable((1, 1))  # constant
    assert not is_acceptable((1, 2, 3))  # zero sum
    with pytest.raises(ZeroEntry):
        is_acceptable((0, 1))
    with pytest.raises(TooShort):
        is_acceptable((1,))


def test_witness_against_brute_force():
    cache = {n: all_trees(n) for n in range(1, 6)}
    for L in range(2, 7):
        for c in product((1, 2, 3), repeat=L):
            brute = any(is_valid(T, c) for T in cache[L - 1])
            w = acceptable_witness(c)
            if brute:
                assert w is not None and is_valid(w, c)
            else:
                assert w is None


# ---------- trichotomy ----------


def test_classify_fixtures():
    assert classify_vector((1, 1)) == UNACCEPTABLE
    assert classify_vector((1, 2, 3)) == UNACCEPTABLE
    assert classify_vector((1, 2)) == POSITIVE_RIGID
    assert classify_vector((2, 1)) == NEGATIVE_RIGID
    assert classify_vector((1, 1, 3, 2, 2, 1, 3, 3)) == FLEXIBLE


def test_classification_is_color_symmetric():
    # any permutation of the three colors preserves the class
    perms = [{1: 1, 2: 3, 3: 2}, {1: 2, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 2}]
    for c in product((1, 2, 3), repeat=5):
        cls = classify_vector(c)
        for p in perms:
            moved = tuple(p[x] for x in c)
            got = classify_vector(moved)
            if cls in (UNACCEPTABLE, FLEXIBLE):
                assert got == cls
            else:
                assert got in (POSITIVE_RIGID, NEGATIVE_RIGID)


def test_rigid_means_alternating_everywhere():
    def alternating(T, s):
        return all(
            s[v] != s[v + b] for v in T.internal for b in "01" if v + b in T.internal
        )

    cache = {n: all_trees(n) for n in range(1, 6)}
    for L in range(2, 7):
        for c in product((1, 2, 3), repeat=L):
            if not is_acceptable(c):
                continue
            verdicts = {
                alternating(T, signs_of(T, c))
                for T in cache[L - 1]
                if is_valid(T, c)
            }
            assert len(verdicts) == 1  # uniform over all valid trees
            assert is_rigid(c) == verdicts.pop()


# ---------- colorings of trees and pairs ----------


def test_normalized_coloring_count():
    for n in range(1, 6):
        for T in all_trees(n):
            found = normalized_colorings(T)
            assert len(found) == 2 ** (n - 1)
            assert len(set(found)) == len(found)
            for c in found:
                e = edge_coloring_from_vector(T, c)
                assert e[""] == 1
                assert signs_of(T, c)[""] is True


def test_colorings_of_diagonal_pair():
    T = right_vine(3)
    assert colorings_of_pair(TreePair(T, T)) == normalized_colorings(T)


def test_colorings_of_pair_are_valid_on_both():
    p = word_to_pair(parse_word("0 e"))
    found = colorings_of_pair(p)
    assert found
    for c in found:
        assert is_valid(p.d, c) and is_valid(p.r, c)


# ---------- patterns ----------


def test_pattern_basics():
    assert pattern_rigid("") is True
    assert pattern_positive("") is True
    # the rigid pattern alternates with depth
    assert pattern_rigid("0") is False and pattern_rigid("01") is True
    T = right_vine(3)
    c = pattern_coloring(pattern_positive, T)
    assert is_valid(T, c)
    assert all(s for s in signs_of(T, c).values())


def test_pattern_compatible():
    # a diagonal pair is compatible with every pattern
    T = left_vine(3)
    assert is_pattern_compatible(TreePair(T, T), pattern_rigid)
    assert is_pattern_compatible(TreePair(T, T), pattern_positive)


# ---------- zero intervals ----------


def test_zero_intervals_fixture():
    assert zero_intervals((1, 2, 3, 1)) == {(1, 3), (2, 4)}
    assert zero_intervals((1, 2)) == set()
    assert zero_intervals((2, 2)) == {(1, 2)}


def test_zero_intervals_block_validity():
    # with a nonzero total sum, a tree is valid exactly when its shadow
    # avoids every zero interval (the root edge carries the total sum)
    from treecolor.trees import shadow_pattern

    for c in product((1, 2, 3), repeat=5):
        bad = zero_intervals(c)
        nonzero = vector_sum(c) != 0
        for T in all_trees(4):
            avoid = nonzero and not (shadow_pattern(T) & bad)
            assert is_valid(T, c) == avoid
