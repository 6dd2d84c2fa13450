"""Tests for signed rotations, sign structures, the balance criterion, the
compatible-coloring count, path search and the square/pentagon moves."""

from __future__ import annotations

import functools
import random
import time
from collections import deque
from itertools import product

import pytest
from hypothesis import given, strategies as st

from treecolor import paths
from treecolor.coloring import (
    FLEXIBLE,
    classify_vector,
    colorings_of_pair,
    is_valid,
    normalized_colorings,
    signs_of,
)
from treecolor.errors import (
    LengthMismatch,
    NoMatch,
    OutOfRange,
    PivotMissing,
    TooLarge,
    TreeColorError,
)
from treecolor.paths import (
    PATH_MAX_CARETS,
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
    IDENTITY,
    RotationSymbol,
    TreePair,
    apply_element,
    format_word,
    multiply,
    parse_word,
    path_evaluate,
    reduce,
    rotation_as_pair,
    word_to_pair,
)
from treecolor.trees import BinaryTree, all_trees, format_address, left_vine, right_vine, rotate

from test_acceptance import all_edge_paths
from test_trees import bit_strings, ref_rotation_action, ref_rotation_step

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


def outcome(fn, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except TreeColorError as e:
        return type(e), str(e)


def ref_check_pivots(T, s):
    a, b = s.pivots
    if a not in T.internal or b not in T.internal:
        raise PivotMissing(
            f"pivots {format_address(a)},{format_address(b)} not internal in {T.to_text()}"
        )


def ref_is_signed_rotation_valid(st0, s):
    ref_check_pivots(st0.tree, s)
    a, b = s.pivots
    return st0.signs[a] == st0.signs[b]


def ref_apply_signed_rotation(st0, s):
    """Each sign moved by the vertex action, then the tree rotated again."""
    ref_check_pivots(st0.tree, s)
    moved = {ref_rotation_action(s.u, s.inverse, v): sgn for v, sgn in st0.signs.items()}
    for v in s.opposite().pivots:
        moved[v] = not moved[v]
    return SignedTree(ref_rotation_step(st0.tree, s.u, s.inverse)[0], moved)


def test_signed_rotations_match_reference():
    symbols = [RotationSymbol(u, inverse) for u in bit_strings(3) for inverse in (False, True)]
    for n in range(1, 6):
        for T in all_trees(n):
            for c in normalized_colorings(T):
                st0 = signed(T, c)
                for s in symbols:
                    for fn, ref in (
                        (is_signed_rotation_valid, ref_is_signed_rotation_valid),
                        (apply_signed_rotation, ref_apply_signed_rotation),
                    ):
                        assert outcome(fn, st0, s) == outcome(ref, st0, s), (T, c, s)


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


def ref_subpath_check(w):
    """Each prefix's verdict from its own sign structure."""
    return [is_balanced(sign_structure(w[: k + 1]))[0] for k in range(len(w))]


def test_subpath_check_matches_reference(monkeypatch):
    # every word of length <= 4 over the pivots of <= 1 bit, and random
    # deeper words, which mostly walk from no small tree
    syms = [RotationSymbol(u, inv) for u in ("", "0", "1") for inv in (False, True)]
    words = [w for n in range(1, 5) for w in product(syms, repeat=n)]
    rng = random.Random(41)
    words += [random_word(rng, max_depth=4, max_len=7) for _ in range(500)]
    real = paths.sign_structure
    built = []
    monkeypatch.setattr(paths, "sign_structure", lambda w: built.append(w) or real(w))
    for w in words:
        want = ref_subpath_check(w)
        built.clear()
        assert subpath_check(w) == want, format_word(w)
        assert built == [w]


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


# ---------- where a word walks from ----------


def test_words_walk_from_exactly_the_trees_containing_their_support():
    # every word of <= 3 symbols at pivots of <= 2 bits, against every tree
    # of <= 4 carets
    def words(max_u, max_len):
        syms = [RotationSymbol(u, inv) for u in bit_strings(max_u) for inv in (False, True)]
        return [w for n in range(1, max_len + 1) for w in product(syms, repeat=n)]

    pool = [T for n in range(5) for T in all_trees(n)]
    walks = 0
    for w in words(2, 3):
        support = sign_structure(w).support.internal
        for T in pool:
            try:
                path_evaluate(T, w)
                walked = True
            except PivotMissing:
                walked = False
            assert walked == (support <= T.internal), (format_word(w), T.to_text())
            walks += walked
    assert walks > 500


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


def test_compatible_colorings_checks_the_caret_limit_first():
    # before the 2^29 sign assignments of a 30-caret vine are tried
    big = right_vine(30)
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="^colorings limited to 20 carets, got 30$"):
        compatible_colorings((), big)
    assert time.perf_counter() - t0 < 0.1


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


def test_compatible_colorings_leave_the_skeleton_like_path_evaluate():
    symbols = [RotationSymbol(u, inv) for u in ("", "0", "1", "00") for inv in (False, True)]
    words = [(a, b) for a in symbols for b in symbols]
    raised = 0
    for T in [T for n in range(1, 4) for T in all_trees(n)]:
        for w in words:
            try:
                path_evaluate(T, w)
            except PivotMissing as e:
                with pytest.raises(PivotMissing) as got:
                    compatible_colorings(w, T)
                assert str(got.value) == str(e)
                raised += 1
    assert raised > 400


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
    with pytest.raises(LengthMismatch, match="^leaf counts differ: 4 != 3$"):
        find_sign_consistent_path(T, right_vine(2))


def ref_find_sign_consistent_path(D, R):
    """The search with a copy of the word kept in every queue entry and
    every neighbour rotated and tested in full."""
    if D == R:
        return ()
    for c in colorings_of_pair(TreePair(D, R)):
        if classify_vector(c) != FLEXIBLE:
            continue
        seen = {D}
        queue = deque([(D, ())])
        while queue:
            T, word = queue.popleft()
            syms = [RotationSymbol(u, inv) for u in sorted(T.internal) for inv in (False, True)
                    if u + ("1" if inv else "0") in T.internal]
            for s in sorted(syms, key=str):
                nxt = rotate(T, s.u, s.inverse)
                if nxt in seen or not is_valid(nxt, c):
                    continue
                if nxt == R:
                    return word + (s,)
                seen.add(nxt)
                queue.append((nxt, word + (s,)))
    return None


def test_find_path_matches_reference():
    for n in range(6):
        for D in all_trees(n):
            for R in all_trees(n):
                want = ref_find_sign_consistent_path(D, R)
                assert find_sign_consistent_path(D, R) == want, (D.to_text(), R.to_text())


def test_find_path_budget_is_checked_first(monkeypatch):
    def forbidden(p):
        raise AssertionError("colorings listed before the caret check")

    monkeypatch.setattr(paths, "colorings_of_pair", forbidden)
    big = right_vine(PATH_MAX_CARETS + 1)
    message = f"^path search limited to {PATH_MAX_CARETS} carets, got {PATH_MAX_CARETS + 1}$"
    for R in (big, left_vine(PATH_MAX_CARETS + 1)):
        with pytest.raises(TooLarge, match=message):
            find_sign_consistent_path(big, R)
    at_budget = right_vine(PATH_MAX_CARETS)
    assert find_sign_consistent_path(at_budget, at_budget) == ()


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


def ref_check_index(w, i, width):
    if not (0 <= i and i + width <= len(w)):
        raise OutOfRange(f"no {width}-symbol subword at index {i} in a word of length {len(w)}")


def ref_splice(w, i, width, repl):
    out = w[:i] + repl + w[i + width:]
    if paths.word_to_pair(out) != paths.word_to_pair(w):
        raise NoMatch("rewrite does not preserve the group element")
    return out


def ref_square_move(w, i):
    if i < 0 or i >= len(w):
        raise OutOfRange(f"index {i} out of range")
    if i + 3 <= len(w) and w[i + 2] == w[i].opposite():
        s1, s2 = w[i], w[i + 1]
        c = ref_rotation_action(s1.u, not s1.inverse, s2.u)
        return ref_splice(w, i, 3, (RotationSymbol(c, s2.inverse),))
    ref_check_index(w, i, 2)
    s1, s2 = w[i], w[i + 1]
    t1 = RotationSymbol(ref_rotation_action(s1.u, not s1.inverse, s2.u), s2.inverse)
    t2 = RotationSymbol(ref_rotation_action(t1.u, t1.inverse, s1.u), s1.inverse)
    return ref_splice(w, i, 2, (t1, t2))


def ref_pentagon_move(w, i):
    """The two pentagon templates, each direction written out."""
    if i < 0 or i >= len(w):
        raise OutOfRange(f"index {i} out of range")
    R = RotationSymbol
    if i + 3 <= len(w):
        x = w[i + 1].u
        if w[i: i + 3] == (R(x + "0", False), R(x, False), R(x + "1", False)):
            return ref_splice(w, i, 3, (R(x), R(x)))
        if w[i: i + 3] == (R(x + "1", True), R(x, True), R(x + "0", True)):
            return ref_splice(w, i, 3, (R(x, True), R(x, True)))
    if i + 2 <= len(w) and w[i] == w[i + 1]:
        x, inv = w[i]
        if inv:
            return ref_splice(w, i, 2, (R(x + "1", True), R(x, True), R(x + "0", True)))
        return ref_splice(w, i, 2, (R(x + "0", False), R(x, False), R(x + "1", False)))
    raise NoMatch(f"no pentagon template at index {i}")


def test_splice_matches_reference():
    # replacements that are the same element (the subword itself, or with a
    # cancelling pair added) and ones that mostly are not (random words)
    rng = random.Random(47)
    syms = [RotationSymbol(u, inv) for u in bit_strings(2) for inv in (False, True)]
    same = 0
    for _ in range(1000):
        w = tuple(rng.choice(syms) for _ in range(rng.randint(2, 5)))
        width = rng.randint(2, min(3, len(w)))
        i = rng.randint(0, len(w) - width)
        t = rng.choice(syms)
        repl = rng.choice([
            w[i: i + width],
            w[i: i + width] + (t, t.opposite()),
            (t.opposite(), t) + w[i: i + width],
            tuple(rng.choice(syms) for _ in range(rng.randint(1, 3))),
        ])
        got = outcome(paths._splice, w, i, width, repl)
        assert got == outcome(ref_splice, w, i, width, repl), (format_word(w), i, format_word(repl))
        same += got == w[:i] + repl + w[i + width:]
    assert 300 < same < 900


def move_cases():
    """Every word of length <= 3 on the pivots of length <= 2, and of length 4
    on the pivots of length <= 1."""
    def words(max_u, lengths):
        syms = [RotationSymbol(u, inv) for u in bit_strings(max_u) for inv in (False, True)]
        return [w for n in lengths for w in product(syms, repeat=n)]

    return words(2, range(4)) + words(1, [4])


def test_moves_match_reference(monkeypatch):
    @functools.lru_cache(maxsize=None)
    def folded(w):
        """word_to_pair as a cached left fold: words that share a prefix
        share its product, so each rewrite check costs one multiply."""
        if not w:
            return IDENTITY
        return reduce(multiply(folded(w[:-1]), rotation_as_pair(w[-1])))

    monkeypatch.setattr(paths, "word_to_pair", folded)
    for w in move_cases():
        for i in range(-1, len(w) + 1):
            for fn, ref in ((square_move, ref_square_move), (pentagon_move, ref_pentagon_move)):
                assert outcome(fn, w, i) == outcome(ref, w, i), (format_word(w), i, fn.__name__)


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
