"""The tree walks are loops over addresses, not recursion: they agree with
recursive reference copies on small inputs and handle trees far deeper than
the interpreter's recursion limit."""

from __future__ import annotations

import json
from itertools import product

import pytest

from treecolor import cli
from treecolor.coloring import (
    acceptable_witness,
    coloring_from_sign,
    edge_coloring_from_vector,
    is_acceptable,
    is_valid,
    normalized_colorings,
    parse_vector,
    signs_of,
    vector_sum,
)
from treecolor.errors import NotPrefixClosed
from treecolor.trees import (
    BinaryTree,
    GeneralTree,
    all_trees,
    join,
    leaves,
    left_vine,
    projection,
    right_vine,
    subtree_at,
)

DEEP = 1500  # carets; more than the default recursion limit of 1000


# ---------- recursive references ----------


def ref_to_text(T: BinaryTree) -> str:
    def rec(v):
        if v not in T.internal:
            return "."
        return "(" + rec(v + "0") + rec(v + "1") + ")"

    return rec("")


def ref_from_text(s: str) -> BinaryTree:
    s = s.strip()
    internal = []
    pos = 0

    def rec(addr):
        nonlocal pos
        if pos >= len(s):
            raise NotPrefixClosed(f"truncated tree text {s!r}")
        ch = s[pos]
        if ch == ".":
            pos += 1
            return
        if ch != "(":
            raise NotPrefixClosed(f"bad tree text {s!r} at {pos}")
        pos += 1
        internal.append(addr)
        rec(addr + "0")
        rec(addr + "1")
        if pos >= len(s) or s[pos] != ")":
            raise NotPrefixClosed(f"bad tree text {s!r} at {pos}")
        pos += 1

    rec("")
    if pos != len(s):
        raise NotPrefixClosed(f"trailing characters in {s!r}")
    return BinaryTree(internal)


def ref_witness(c: tuple) -> BinaryTree:
    n = len(c)
    if n == 2:
        return BinaryTree({""})
    x = c[0]
    if all(v == x for v in c[:-1]):
        return right_vine(n - 1)
    if all(v == c[1] for v in c[1:]):
        return left_vine(n - 1)
    if vector_sum(c) != x:
        A = ref_witness(c[1:])
        return BinaryTree({""} | {"1" + v for v in A.internal})
    if c[-1] != x:
        A = ref_witness(c[:-1])
        return BinaryTree({""} | {"0" + v for v in A.internal})
    i = 1
    while c[i] == x:
        i += 1
    return join(ref_witness(c[: i + 1]), ref_witness(c[i + 1:]))


def ref_postorder(T: BinaryTree) -> list[str]:
    def rec(v):
        if v not in T.internal:
            return []
        return rec(v + "0") + rec(v + "1") + [v]

    return rec("")


def ref_preorder(T: BinaryTree) -> list[str]:
    def rec(v):
        if v not in T.internal:
            return []
        return [v] + rec(v + "0") + rec(v + "1")

    return rec("")


def ref_general_text(g: GeneralTree) -> str:
    if not g.children:
        return "."
    return "(" + "".join(ref_general_text(c) for c in g.children) + ")"


def outcome(f, *args):
    try:
        return f(*args)
    except NotPrefixClosed as e:
        return (type(e), str(e))


# ---------- agreement with the references ----------


def test_text_forms_match_reference():
    for n in range(8):
        for T in all_trees(n):
            s = T.to_text()
            assert s == ref_to_text(T)
            assert BinaryTree.from_text(s) == ref_from_text(s) == T


def test_from_text_errors_match_reference():
    # every string over "()." up to length 8, with the exception type and message
    checked = 0
    for L in range(9):
        for chars in product("().", repeat=L):
            s = "".join(chars)
            assert outcome(BinaryTree.from_text, s) == outcome(ref_from_text, s), s
            checked += 1
    assert checked == 9841
    for s in [" (..) ", "(..)x", "(.x)", "x", "(..", "((..)"]:
        assert outcome(BinaryTree.from_text, s) == outcome(ref_from_text, s), s


def test_witness_matches_reference():
    for L in range(2, 9):
        for c in product((1, 2, 3), repeat=L):
            w = acceptable_witness(c)
            assert w == (ref_witness(c) if is_acceptable(c) else None), c


def test_coloring_dict_order_matches_reference():
    # leaves left to right, then each caret after its subtree; signs top down
    for n in range(1, 6):
        for T in all_trees(n):
            c = normalized_colorings(T)[-1]
            e = edge_coloring_from_vector(T, c)
            assert list(e)[T.leaf_count:] == ref_postorder(T)
            f = coloring_from_sign(T, signs_of(T, c), 2)
            assert list(f) == [""] + [v + b for v in ref_preorder(T) for b in "01"]


def test_general_tree_text_and_equality_match_reference():
    # every projection that collapses one subtree of a tree with <= 6 carets
    seen = {}
    for n in range(0, 7):
        for T in all_trees(n):
            cases = [projection(T, [])]
            cases += [
                projection(T, [(w, subtree_at(T, w))])
                for w in sorted(T.internal)
                if subtree_at(T, w).leaf_count >= 3
            ]
            for g in cases:
                text = ref_general_text(g)
                assert g.to_text() == text
                assert repr(g) == f"GeneralTree({text!r})"
                if text in seen:
                    assert g == seen[text] and hash(g) == hash(seen[text])
                seen[text] = g
    texts = list(seen)
    # distinct texts are distinct trees, also as dict keys
    assert len({seen[t]: t for t in texts}) == len(texts)
    assert GeneralTree([GeneralTree()] * 3) != GeneralTree([GeneralTree([GeneralTree()] * 2), GeneralTree()])


# ---------- deep trees ----------


@pytest.mark.parametrize("vine", [right_vine, left_vine])
def test_deep_vine_text_round_trip(vine):
    T = vine(DEEP)
    s = T.to_text()
    assert len(s) == 3 * DEEP + 1
    assert BinaryTree.from_text(s) == T


def test_deep_vine_inspect(capsys):
    s = right_vine(DEEP).to_text()
    assert cli.main(["trees", "--inspect", s, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["carets"] == DEEP and info["vine"] is True
    assert info["shadow"] == [[k, DEEP + 1] for k in range(2, DEEP + 1)]


@pytest.mark.parametrize("vine", [right_vine, left_vine])
def test_deep_vine_colorings(vine):
    T = vine(DEEP)
    s = {v: len(v) % 2 == 0 for v in T.internal}
    e = coloring_from_sign(T, s, 3)
    c = tuple(e[v] for v in leaves(T))
    assert edge_coloring_from_vector(T, c) == e
    assert signs_of(T, c) == s


def test_deep_witness_cli(capsys):
    v = "12" * 700 + "3"
    assert cli.main(["color", v, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    w = BinaryTree.from_text(data["witness"])
    assert w.carets == len(v) - 1
    assert is_valid(w, parse_vector(v))


@pytest.mark.parametrize("vine", [right_vine, left_vine])
def test_deep_projection_prints_and_hashes(vine):
    g = projection(vine(DEEP), [])
    assert g.to_text() == vine(DEEP).to_text()
    assert repr(g) == f"GeneralTree({vine(DEEP).to_text()!r})"
    again = projection(vine(DEEP), [])
    assert g == again and hash(g) == hash(again)
    other = left_vine if vine is right_vine else right_vine
    assert g != projection(other(DEEP), [])
