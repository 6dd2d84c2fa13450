"""Tests for the binary tree layer: addresses, canonical text, enumeration,
shadow patterns, rotations, the dihedral action and projections."""

from __future__ import annotations

import copy
import functools
import os
import pickle
import subprocess
import sys
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

import treecolor
from treecolor.errors import (
    NotAVertex,
    NotEdgeDisjoint,
    NotPrefixClosed,
    PivotMissing,
    SubtreeTooSmall,
    TooLarge,
    TooSmall,
)
from treecolor.thompson import TreePair
from treecolor.trees import (
    TREES_MAX_CARETS,
    TRIVIAL,
    BinaryTree,
    _trusted_tree,
    all_trees,
    dihedral_apply,
    dihedral_orbit,
    format_address,
    is_vine,
    join,
    leaves,
    left_vine,
    parse_address,
    projection,
    right_vine,
    ROTATION_ACTION_CACHE,
    ROTATION_STEP_CACHE,
    rotate,
    rotation_action,
    rotation_step,
    shadow_interval,
    shadow_pattern,
    skeleton,
    subtree_at,
    tree_from_shadow_pattern,
    tree_set_ops,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def random_tree(draw_bits, max_carets=6):
    """hypothesis helper: grow a tree by attaching carets at random leaves."""
    T = TRIVIAL
    for pick in draw_bits:
        ls = leaves(T)
        T = BinaryTree(set(T.internal) | {ls[pick % len(ls)]})
        if T.carets >= max_carets:
            break
    return T


trees_st = st.lists(st.integers(min_value=0), max_size=6).map(random_tree)


# ---------- addresses and text form ----------


def test_address_text():
    assert format_address("") == "e"
    assert format_address("010") == "010"
    assert parse_address("e") == ""
    assert parse_address("10") == "10"


def test_text_round_trip():
    assert TRIVIAL.to_text() == "."
    caret = BinaryTree([""])
    assert caret.to_text() == "(..)"
    assert BinaryTree.from_text("((..).)").internal == frozenset({"", "0"})
    for n in range(5):
        for T in all_trees(n):
            assert BinaryTree.from_text(T.to_text()) == T


def test_prefix_closure_enforced():
    with pytest.raises(NotPrefixClosed):
        BinaryTree(["", "00"])  # missing "0"


# ---------- enumeration ----------


def test_catalan_counts():
    for n, want in enumerate(CATALAN[:8]):
        assert len(all_trees(n)) == want


def test_all_trees_sorted_and_distinct():
    for n in range(7):
        ts = all_trees(n)
        texts = [t.to_text() for t in ts]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        assert all(t.carets == n for t in ts)


@functools.lru_cache(maxsize=None)
def ref_all_trees(n):
    """The sort-based generator: every join of two smaller trees, built
    through the prefix-closure check and sorted by text."""
    if n == 0:
        return (TRIVIAL,)
    found = [
        BinaryTree(["", *("0" + v for v in l.internal), *("1" + v for v in r.internal)])
        for i in range(n)
        for l in ref_all_trees(i)
        for r in ref_all_trees(n - 1 - i)
    ]
    found.sort(key=BinaryTree.to_text)
    return tuple(found)


def test_all_trees_matches_the_sorted_reference():
    for n in range(11):
        assert all_trees(n) == ref_all_trees(n)


def test_generated_trees_are_valid_and_shared():
    for n in range(11):
        ts = all_trees(n)
        assert ts is all_trees(n)
        assert isinstance(ts, tuple)
        for T in ts:
            checked = BinaryTree(T.internal)  # through the prefix-closure check
            assert T == checked and hash(T) == hash(checked)


def test_each_address_is_one_string_object():
    addresses = [v for T in all_trees(8) for v in T.internal]
    assert len({id(v) for v in addresses}) == len(set(addresses))


def test_tree_budget_is_checked_first():
    for fn in (all_trees, skeleton):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"trees limited to {TREES_MAX_CARETS} carets, got 13"):
            fn(TREES_MAX_CARETS + 1)
        assert time.perf_counter() - start < 0.1
        with pytest.raises(TooSmall):
            fn(-1)


def test_join_decomposition():
    S = right_vine(2)
    T = left_vine(1)
    J = join(S, T)
    assert J.carets == 4
    assert subtree_at(J, "0") == S
    assert subtree_at(J, "1") == T


def test_tree_set_ops():
    union, inter, comps = tree_set_ops(left_vine(2), right_vine(2))
    assert union.internal == frozenset({"", "0", "1"})
    assert inter == BinaryTree([""])
    assert comps == {"0": BinaryTree([""])}


# ---------- shadows ----------


def test_shadow_interval_vine():
    T = right_vine(3)  # leaves 0, 10, 110, 111
    assert shadow_interval(T, "1") == (2, 4)
    assert shadow_interval(T, "11") == (3, 4)
    assert shadow_interval(T, "") == (1, 4)
    assert [shadow_interval(T, v) for v in leaves(T)] == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert shadow_interval(TRIVIAL, "") == (1, 1)
    with pytest.raises(NotAVertex):
        shadow_interval(T, "01")
    assert shadow_pattern(T) == frozenset({(2, 4), (3, 4)})


def test_shadow_pattern_excludes_root():
    for T in all_trees(4):
        assert (1, 5) not in shadow_pattern(T)


def test_shadow_too_small():
    with pytest.raises(TooSmall):
        shadow_pattern(TRIVIAL)


def test_shadow_round_trip():
    for n in range(1, 6):
        for T in all_trees(n):
            assert tree_from_shadow_pattern(shadow_pattern(T), T.leaf_count) == T


# ---------- rotations ----------


def test_rotation_action_cases():
    # rotating at the root sends the left-left corner up and pushes the
    # right side down
    assert rotation_action("", False, "00") == "0"
    assert rotation_action("", False, "01") == "10"
    assert rotation_action("", False, "1") == "11"
    # and the inverse action undoes it
    assert rotation_action("", True, "0") == "00"
    assert rotation_action("", True, "10") == "01"
    assert rotation_action("", True, "11") == "1"
    # off-pivot addresses pass through
    assert rotation_action("0", False, "1") == "1"


def ref_rotation_action(u, inverse, v):
    """The vertex action written out once per direction."""
    if not inverse:
        if v == u:
            return u + "1"
        if v == u + "0":
            return u
        rest = v[len(u):]
        if v.startswith(u):
            if rest.startswith("00"):
                return u + "0" + rest[2:]
            if rest.startswith("01"):
                return u + "10" + rest[2:]
            if rest.startswith("1"):
                return u + "11" + rest[1:]
        return v
    if v == u:
        return u + "0"
    if v == u + "1":
        return u
    rest = v[len(u):]
    if v.startswith(u):
        if rest.startswith("11"):
            return u + "1" + rest[2:]
        if rest.startswith("10"):
            return u + "01" + rest[2:]
        if rest.startswith("0"):
            return u + "00" + rest[1:]
    return v


def bit_strings(max_len):
    return ["".join(bits) for n in range(max_len + 1) for bits in product("01", repeat=n)]


def test_rotation_action_matches_the_two_direction_rule():
    vertices = bit_strings(7)
    for u in bit_strings(3):
        for inverse in (False, True):
            for v in vertices:
                assert rotation_action(u, inverse, v) == ref_rotation_action(u, inverse, v), (u, inverse, v)


def test_rotate_basic():
    assert rotate(left_vine(2), "") == right_vine(2)
    assert rotate(right_vine(2), "", inverse=True) == left_vine(2)


def test_rotate_missing_pivot():
    with pytest.raises(PivotMissing):
        rotate(right_vine(2), "")  # needs internal "0"
    with pytest.raises(PivotMissing):
        rotate(left_vine(2), "", inverse=True)


# the rotation by its definition, uncached: where each part of the tree moves
MOVES = {False: (("00", "0"), ("01", "10"), ("1", "11")), True: (("11", "1"), ("10", "01"), ("0", "00"))}


def ref_rotation_step(T, u, inverse):
    pivot2 = u + ("1" if inverse else "0")
    if u not in T.internal or pivot2 not in T.internal:
        raise PivotMissing(
            f"pivots {format_address(u)},{format_address(pivot2)} not internal in {T.to_text()}"
        )

    def image(v):
        if v == u:
            return u + ("0" if inverse else "1")
        if v == pivot2:
            return u
        for old, new in MOVES[inverse]:
            if v.startswith(u + old):
                return u + new + v[len(u + old):]
        return v

    moves = {v: image(v) for v in T.internal}
    return BinaryTree(moves.values()), moves


def test_rotation_step_matches_reference():
    for n in range(7):
        for T in all_trees(n):
            for u in sorted(T.internal) + leaves(T) + ["0" * (n + 1)]:
                for inverse in (False, True):
                    try:
                        want = ref_rotation_step(T, u, inverse)
                    except PivotMissing as e:
                        for fn in (rotation_step, rotate):
                            with pytest.raises(PivotMissing) as got:
                                fn(T, u, inverse)
                            assert str(got.value) == str(e)
                        continue
                    assert rotation_step(T, u, inverse) == want
                    assert rotate(T, u, inverse) == want[0]


def test_rotation_steps_are_cached_up_to_a_bound():
    T = BinaryTree.from_text("((.(..))(..))")
    first = rotation_step(T, "", False)
    assert rotation_step(BinaryTree.from_text(T.to_text()), "", False) is first
    assert rotation_step(T, "", True) is not first
    with pytest.raises(TypeError):  # every caller shares the cached map
        first[1][""] = "0"
    assert rotation_step.cache_info().maxsize == ROTATION_STEP_CACHE
    assert rotation_action.cache_info().maxsize == ROTATION_ACTION_CACHE


def test_deep_vine_rotates_without_filling_the_caches():
    T = left_vine(1500)
    before = rotation_step.cache_info().currsize, rotation_action.cache_info().currsize
    S, moves = rotation_step(T, "")
    assert (S, moves) == ref_rotation_step(T, "", False)
    assert rotate(S, "", True) == T
    assert S.carets == 1500 and S.internal >= {"", "1"}
    assert (rotation_step.cache_info().currsize, rotation_action.cache_info().currsize) == before


@given(trees_st)
def test_rotate_round_trip(T):
    for u in sorted(T.internal):
        if u + "0" in T.internal:
            assert rotate(rotate(T, u), u, inverse=True) == T


@given(trees_st)
def test_rotate_preserves_size(T):
    for u in sorted(T.internal):
        if u + "0" in T.internal:
            assert rotate(T, u).carets == T.carets


# ---------- vines and the dihedral action ----------


def test_vines():
    assert is_vine(right_vine(4))
    assert is_vine(left_vine(3))
    assert not is_vine(BinaryTree(["", "0", "1"]))
    assert leaves(right_vine(3)) == ["0", "10", "110", "111"]


def test_dihedral_composition():
    T = BinaryTree(["", "0", "00", "1"])
    m = T.leaf_count + 1
    for j in range(m):
        for k in range(m):
            assert dihedral_apply(dihedral_apply(T, j), k) == dihedral_apply(T, j + k)


def test_dihedral_orbit_sizes():
    assert len(dihedral_orbit(BinaryTree(["", "1", "10", "11"]))) == 2
    assert len(dihedral_orbit(right_vine(4))) == 6
    for T in all_trees(4):
        m = 2 * (T.leaf_count + 1)
        assert m % len(dihedral_orbit(T)) == 0


# ---------- projections ----------


def test_projection_empty():
    T = right_vine(3)
    assert projection(T, []).to_text() == T.to_text()


def test_projection_worked_example():
    # three edge-disjoint subtrees: two with three leaves, one with four;
    # the first's lower leaf is the second's root, which is still allowed
    T = BinaryTree(["", "0", "1", "00", "01", "010", "011", "10", "11", "110"])
    subs = [
        ("0", BinaryTree(["", "0"])),
        ("01", BinaryTree(["", "1"])),
        ("1", BinaryTree(["", "0", "1"])),
    ]
    assert projection(T, subs).to_text() == "((..((..)..))(..(..).))"


def test_projection_errors():
    T = right_vine(4)
    with pytest.raises(SubtreeTooSmall):
        projection(T, [("", BinaryTree([""]))])  # only two leaves
    with pytest.raises(NotAVertex):
        projection(T, [("0", BinaryTree(["", "0"]))])
    with pytest.raises(NotEdgeDisjoint):
        projection(T, [("", BinaryTree(["", "1"])), ("1", BinaryTree(["", "1"]))])


def test_projection_error_is_independent_of_the_hash_seed():
    # S has 15 internal vertices and 13 of them are missing from T; the
    # message names the first in sorted order, not in frozenset order
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    code = (
        "from itertools import product\n"
        "from treecolor.trees import BinaryTree, NotAVertex, projection, right_vine\n"
        "S = BinaryTree(''.join(b) for k in range(4) for b in product('01', repeat=k))\n"
        "try:\n"
        "    projection(right_vine(2), [('', S)])\n"
        "except NotAVertex as e:\n"
        "    print(e)\n"
    )
    outs = []
    for seed in ("0", "2"):  # two seeds that iterate S.internal differently
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outs.append(out.stdout)
    assert outs == ["0 is not internal in T\n"] * 2


# ---------- pickling and copying ----------


def test_trees_pairs_and_projections_pickle_and_copy():
    T = right_vine(4)
    values = [t for n in range(5) for t in all_trees(n)] + [
        right_vine(1500),
        TreePair(right_vine(3), left_vine(3)),
        projection(T, [("1", subtree_at(T, "1"))]),
    ]
    for x in values:
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and hash(y) == hash(x) and type(y) is type(x)
    # unpickling checks the vertex set again
    with pytest.raises(NotPrefixClosed):
        pickle.loads(pickle.dumps(_trusted_tree(frozenset({"1"}))))
