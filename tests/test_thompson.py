"""Tests for tree-pair arithmetic: reduction, multiplication, the action on
addresses, rotation words and the structural predicates."""

from __future__ import annotations

import pickle
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from treecolor import thompson
from treecolor.errors import LengthMismatch, NotALeaf, NotAVertex, PivotMissing, TooLarge
from treecolor.thompson import (
    IDENTITY,
    RotationSymbol,
    TreePair,
    all_pairs,
    apply_element,
    classify_multiplication,
    deferment,
    format_word,
    invert,
    is_positive,
    is_prime_positive,
    leaf_depths,
    multiply,
    parity_condition,
    parse_symbol,
    parse_word,
    path_evaluate,
    reduce,
    rotation_as_pair,
    word_to_pair,
)
from treecolor.trees import TRIVIAL, BinaryTree, all_trees, left_vine, right_vine

from test_acceptance import all_edge_paths

symbols_st = st.tuples(
    st.sampled_from(["", "0", "1", "00", "01", "10", "11"]),
    st.booleans(),
).map(lambda t: RotationSymbol(*t))
words_st = st.lists(symbols_st, max_size=5).map(tuple)


# ---------- symbols and words ----------


def test_symbol_parsing():
    assert parse_symbol("e") == RotationSymbol("", False)
    assert parse_symbol("~10") == RotationSymbol("10", True)
    assert parse_word("0 e ~1") == (
        RotationSymbol("0", False),
        RotationSymbol("", False),
        RotationSymbol("1", True),
    )
    assert format_word(parse_word("0 e ~1")) == "0 e ~1"


def test_symbol_opposite_and_pivots():
    s = RotationSymbol("0", False)
    assert s.opposite() == RotationSymbol("0", True)
    assert s.pivots == ("0", "00")
    assert s.opposite().pivots == ("0", "01")


def test_equal_symbols_are_one_object():
    assert parse_symbol("~01") is RotationSymbol("01", True)
    assert parse_symbol("e") is RotationSymbol("")
    s = RotationSymbol("10", False)
    assert s.opposite().opposite() is s
    assert parse_word("0 e ~1 0")[0] is parse_word("0")[0]
    assert pickle.loads(pickle.dumps(s)) is s


def test_edge_path_words_share_their_symbols():
    words = all_edge_paths(4, 5)
    by_value = {}
    for w in words:
        for s in w:
            assert by_value.setdefault(tuple(s), s) is s, format_word(w)
    assert len(by_value) < 40 < len(words)


def test_symbols_behave_as_named_tuples():
    s = RotationSymbol("01", True)
    assert repr(s) == "RotationSymbol(u='01', inverse=True)"
    assert str(s) == "~01" and str(RotationSymbol("")) == "e"
    assert s == ("01", True) and hash(s) == hash(("01", True))
    assert RotationSymbol._fields == ("u", "inverse")
    assert RotationSymbol("0") == RotationSymbol("0", False)
    assert not hasattr(s, "__dict__")
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        t = pickle.loads(pickle.dumps(s, proto))
        assert t == s and type(t) is RotationSymbol
    r = s._replace(inverse=False)
    assert r == RotationSymbol("01") and type(r) is RotationSymbol
    assert s._replace(u="1").pivots == ("1", "11")
    # only bool flags are shared: an int flag keeps its own value
    a = RotationSymbol("0110", True)
    assert repr(RotationSymbol("0110", 1)) == "RotationSymbol(u='0110', inverse=1)"
    assert RotationSymbol("0110", True) is a


def test_symbol_table_cap(monkeypatch):
    monkeypatch.setattr(thompson, "SYMBOL_TABLE_MAX", 2)
    monkeypatch.setattr(thompson, "_SYMBOLS", {})
    first = [RotationSymbol(u, inv) for u in ("", "0", "1", "10") for inv in (False, True)]
    again = [RotationSymbol(u, inv) for u in ("", "0", "1", "10") for inv in (False, True)]
    assert len(thompson._SYMBOLS) == 2
    assert first == again and len(set(first + again)) == 8
    assert [a is b for a, b in zip(first, again)] == [True, True] + [False] * 6
    assert [hash(a) for a in first] == [hash(b) for b in again]
    assert format_word(tuple(again)) == "e ~e 0 ~0 1 ~1 10 ~10"
    assert again[7].opposite() == first[6] and again[7].pivots == ("10", "101")


# ---------- reduction ----------


def test_reduce_diagonal():
    for T in all_trees(3):
        assert reduce(TreePair(T, T)) == IDENTITY


def test_reduce_common_caret():
    # matching exposed carets on corresponding leaves cancel
    p = TreePair(BinaryTree(["", "0", "1"]), BinaryTree(["", "1", "11"]))
    assert reduce(p) == TreePair(left_vine(2), right_vine(2))


@given(words_st)
def test_reduce_idempotent(w):
    p = word_to_pair(w)
    assert reduce(p) == p  # word_to_pair already reduces
    assert p.d.leaf_count == p.r.leaf_count


# ---------- group structure ----------


def test_word_to_pair_fixture():
    p = word_to_pair(parse_word("0 e"))
    assert p.d.internal == frozenset({"", "0", "00"})
    assert p.r.internal == frozenset({"", "1", "10"})


def test_rotation_generator_pair():
    p = rotation_as_pair(RotationSymbol("", False))
    assert p == TreePair(left_vine(2), right_vine(2))
    assert rotation_as_pair(RotationSymbol("", True)) == invert(p)


@given(words_st)
def test_multiply_by_inverse(w):
    # multiply leaves the common expansion unreduced by design
    p = word_to_pair(w)
    assert reduce(multiply(p, invert(p))) == IDENTITY
    assert reduce(multiply(invert(p), p)) == IDENTITY


@given(words_st, words_st)
def test_word_concatenation_multiplies(a, b):
    got = reduce(multiply(word_to_pair(a), word_to_pair(b)))
    assert word_to_pair(a + b) == got


def test_apply_element_preserves_order():
    p = word_to_pair(parse_word("0 e"))  # ({e,0,00}, {e,1,10})
    imgs = [apply_element(p, v) for v in ["000", "001", "01", "1"]]
    assert imgs == ["0", "100", "101", "11"]
    # internal vertices map by infix position
    assert apply_element(p, "00") == ""
    assert apply_element(p, "") == "1"


def test_apply_element_rejects_unequal_leaf_counts():
    # the pair is refused when it is built, before any vertex is acted on
    with pytest.raises(LengthMismatch, match=r"^leaf counts differ: 3 != 2$"):
        TreePair(BinaryTree.from_text("((..).)"), BinaryTree.from_text("(..)"))


def test_apply_element_rejects_non_vertex():
    p = word_to_pair(parse_word("0 e"))
    for v in ("2", "0x"):  # no leaf of D above it, and not internal
        with pytest.raises(NotAVertex, match=f"{v} is not a vertex of"):
            apply_element(p, v)


# ---------- paths ----------


def test_path_evaluate():
    seq = path_evaluate(left_vine(2), parse_word("e"))
    assert seq == [left_vine(2), right_vine(2)]
    with pytest.raises(PivotMissing):
        path_evaluate(right_vine(2), parse_word("e"))


def test_path_evaluate_matches_pair():
    w = parse_word("0 e 1")
    p = word_to_pair(w)
    seq = path_evaluate(p.d, w)
    assert seq[0] == p.d and seq[-1] == p.r


# ---------- predicates ----------


def test_classify_multiplication():
    p = TreePair(right_vine(2), right_vine(2))
    # pivot vine already present
    assert classify_multiplication(p, RotationSymbol("", True)) == "NonIncreasing"
    # exactly one vertex missing
    assert classify_multiplication(p, RotationSymbol("", False)) == "MinimallyIncreasing"
    # two or more missing
    assert classify_multiplication(p, RotationSymbol("0", False)) == "Increasing"


def vine_classify(p, s):
    """Test-only copy of the hand-built pivot vine: every prefix of the
    second pivot, counted against p's range tree."""
    x = s.pivots[1]
    missing = {x[:i] for i in range(len(x) + 1)} - p.r.internal
    if not missing:
        return "NonIncreasing"
    return "MinimallyIncreasing" if len(missing) == 1 else "Increasing"


def test_classify_multiplication_matches_the_vine_closure():
    # every pivot of at most 3 bits, both ways, against the 227 pairs of
    # at most 4 carets: 6,810 cases
    pivots = [""] + ["".join(b) for k in (1, 2, 3) for b in product("01", repeat=k)]
    symbols = [RotationSymbol(u, inv) for u in pivots for inv in (False, True)]
    pairs = [TreePair(d, r) for n in range(5) for d in all_trees(n) for r in all_trees(n)]
    assert len(symbols) * len(pairs) == 6810
    for p in pairs:
        for s in symbols:
            assert classify_multiplication(p, s) == vine_classify(p, s), (str(p), str(s))


def test_positivity():
    assert is_positive(word_to_pair(parse_word("e")))
    assert not is_positive(word_to_pair(parse_word("~e")))
    assert is_prime_positive(word_to_pair(parse_word("e")))


def test_leaf_depths():
    assert leaf_depths(right_vine(3)) == [1, 2, 3, 3]


def test_parity_condition():
    assert parity_condition(TreePair(right_vine(3), right_vine(3)))
    # the basic rotation swaps depths 2,1 against 1,2: both shifts odd
    assert not parity_condition(rotation_as_pair(RotationSymbol("", False)))


def test_deferment():
    p = word_to_pair(parse_word("0 e"))
    assert deferment(p, TRIVIAL, "") == p
    e = rotation_as_pair(RotationSymbol("", False))
    q = deferment(e, BinaryTree([""]), "0")
    assert q == TreePair(BinaryTree(["", "0", "00"]), BinaryTree(["", "0", "01"]))
    with pytest.raises(NotALeaf):
        deferment(p, BinaryTree([""]), "00")


def test_deferment_even_depth_preserves_parity():
    p = TreePair(right_vine(3), right_vine(3))
    host = BinaryTree(["", "0"])  # leaf "00" has even depth 2
    assert parity_condition(deferment(p, host, "00"))


def test_all_pairs():
    got = list(all_pairs(2))
    assert len(got) == 2  # only the two root rotations survive reduction
    assert all(reduce(p) == p for p in got)
    assert len(list(all_pairs(3))) == 14


def test_all_pairs_budget_raises_at_once():
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match=f"pairs limited to {thompson.ALL_PAIRS_MAX_CARETS} carets"):
        all_pairs(thompson.ALL_PAIRS_MAX_CARETS + 1)
    assert time.perf_counter() - t0 < 0.1
