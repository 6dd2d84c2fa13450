"""Signed rotations and edge paths: the sign structure of a word, its balance
test, compatible-coloring counts, sign-consistent path search, and the square
and pentagon word moves."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .errors import NoMatch, OutOfRange, PivotMissing
from .coloring import (
    ColorVector,
    FLEXIBLE,
    classify_vector,
    colorings_of_pair,
    is_valid,
    sign_order,
    vectors_from_sign_bits,
)
from .thompson import RotationSymbol, TreePair, Word, path_evaluate, word_to_pair
from .trees import Address, BinaryTree, format_address, rotate, rotation_action


class SignedTree(NamedTuple):
    tree: BinaryTree
    signs: dict  # Address -> bool, True = positive

    def __str__(self) -> str:
        marks = {v: "+" if s else "-" for v, s in self.signs.items()}
        body = " ".join(f"{format_address(v)}:{marks[v]}" for v in sorted(self.signs))
        return f"{self.tree.to_text()} [{body}]"


def _check_pivots(T: BinaryTree, s: RotationSymbol) -> None:
    a, b = s.pivots
    if a not in T.internal or b not in T.internal:
        raise PivotMissing(
            f"pivots {format_address(a)},{format_address(b)} not internal in {T.to_text()}"
        )


def is_signed_rotation_valid(st: SignedTree, s: RotationSymbol) -> bool:
    _check_pivots(st.tree, s)
    a, b = s.pivots
    return st.signs[a] == st.signs[b]


def apply_signed_rotation(st: SignedTree, s: RotationSymbol) -> SignedTree:
    """Transport the signed tree along a rotation, flipping the pivot signs.

    Defined whether or not the rotation is valid for the signs.
    """
    _check_pivots(st.tree, s)
    moved = {
        rotation_action(s.u, s.inverse, v): sgn for v, sgn in st.signs.items()
    }
    for v in s.opposite().pivots:
        moved[v] = not moved[v]
    return SignedTree(rotate(st.tree, s.u, s.inverse), moved)


# ---------- The sign structure of a word ----------


class SignStructure(NamedTuple):
    edges: tuple  # of (Address, Address, bool); True = positive
    support: BinaryTree

    def __str__(self) -> str:
        return ", ".join(
            f"{format_address(a)}-{format_address(b)}:{'+' if s else '-'}"
            for a, b, s in self.edges
        )


def sign_structure(w: Word) -> SignStructure:
    """The signed graph recording which sign agreements the word requires.

    Edge i joins the preimages of symbol i's pivots under the prefix before
    it: each pivot is pulled back through the prefix's rotations, last one
    first, by the inverse vertex action.  The edge is positive iff the
    endpoint degrees so far sum to an even number.
    """
    edges = []
    degree: dict[Address, int] = {}
    for i, s in enumerate(w):
        a, b = s.pivots
        for t in reversed(w[:i]):
            a = rotation_action(t.u, not t.inverse, a)
            b = rotation_action(t.u, not t.inverse, b)
        positive = (degree.get(a, 0) + degree.get(b, 0)) % 2 == 0
        edges.append((a, b, positive))
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    closure = {a[:k] for a, _, _ in edges for k in range(len(a) + 1)}
    closure |= {b[:k] for _, b, _ in edges for k in range(len(b) + 1)}
    return SignStructure(tuple(edges), BinaryTree(closure))


def is_balanced(ss: SignStructure) -> tuple[bool, int]:
    """Whether every cycle carries an even number of negative edges, and the
    component count over the support's internal vertices."""
    parent: dict[Address, Address] = {v: v for v in ss.support.internal}
    parity: dict[Address, int] = {v: 0 for v in ss.support.internal}

    def find(v: Address) -> tuple[Address, int]:
        if parent[v] == v:
            return v, 0
        root, par = find(parent[v])
        parent[v] = root
        parity[v] ^= par
        return root, parity[v]

    balanced = True
    for a, b, positive in ss.edges:
        need = 0 if positive else 1
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            if pa ^ pb != need:
                balanced = False
        else:
            parent[ra] = rb
            parity[ra] = pa ^ pb ^ need
    roots = {find(v)[0] for v in parent}
    return balanced, len(roots)


def subpath_check(w: Word) -> list[bool]:
    """Balance verdict for every prefix of the word."""
    return [is_balanced(sign_structure(w[: k + 1]))[0] for k in range(len(w))]


def compatible_colorings(w: Word, D: BinaryTree) -> list[ColorVector]:
    """Normalized vectors of D that keep every rotation of the word valid.

    This is the brute-force oracle for the balance theorem, so it never
    consults sign_structure or is_balanced: it tries all 2^(n-1) normalized
    sign assignments of D.  The path is walked once, following each internal
    vertex of D to its current address; a step is the bitmask m of the slots
    (positions in sign_order(D)) of its two pivots.  A rotation is valid iff
    its pivots carry equal signs, and it flips both, so an assignment passes
    the step iff bits & m is 0 or m, and continues as bits ^ m.
    """
    path_evaluate(D, w)  # raise early if the path leaves the skeleton
    order = sign_order(D)
    slot = {v: i for i, v in enumerate(order)}
    steps = []
    for s in w:
        a, b = s.pivots
        steps.append(1 << slot[a] | 1 << slot[b])
        slot = {rotation_action(s.u, s.inverse, v): i for v, i in slot.items()}
    survivors = []
    for start in range(1 << max(len(order) - 1, 0)):  # the root's bit stays 0
        bits = start
        for m in steps:
            if (bits & m) not in (0, m):
                break
            bits ^= m
        else:
            survivors.append(start)
    return sorted(vectors_from_sign_bits(D, survivors))


# ---------- Path search ----------


def _symbols_for(T: BinaryTree):
    out = []
    for u in sorted(T.internal):
        if u + "0" in T.internal:
            out.append(RotationSymbol(u, False))
        if u + "1" in T.internal:
            out.append(RotationSymbol(u, True))
    out.sort(key=str)
    return out


def find_sign_consistent_path(D: BinaryTree, R: BinaryTree) -> Word | None:
    """A word of everywhere-valid signed rotations from D to R, if one exists.

    Searches each flexible common normalized vector in canonical order and
    walks its color graph breadth-first; returns the first path found.
    """
    if D.leaf_count != R.leaf_count:
        raise PivotMissing("trees must have equal leaf counts")
    if D == R:
        return ()
    for c in colorings_of_pair(TreePair(D, R)):
        if classify_vector(c) != FLEXIBLE:
            continue
        word = _bfs_in_color_graph(D, R, c)
        if word is not None:
            return word
    return None


def _bfs_in_color_graph(D: BinaryTree, R: BinaryTree, c: ColorVector) -> Word | None:
    seen = {D}
    queue = deque([(D, ())])
    while queue:
        T, word = queue.popleft()
        for s in _symbols_for(T):
            nxt = rotate(T, s.u, s.inverse)
            if nxt in seen or not is_valid(nxt, c):
                continue
            if nxt == R:
                return word + (s,)
            seen.add(nxt)
            queue.append((nxt, word + (s,)))
    return None


# ---------- Word moves across square and pentagon faces ----------


def _check_index(w: Word, i: int, width: int) -> None:
    if not (0 <= i and i + width <= len(w)):
        raise OutOfRange(f"no {width}-symbol subword at index {i} in a word of length {len(w)}")


def _splice(w: Word, i: int, width: int, repl: Word) -> Word:
    out = w[:i] + repl + w[i + width:]
    if word_to_pair(out) != word_to_pair(w):
        raise NoMatch("rewrite does not preserve the group element")
    return out


def square_move(w: Word, i: int) -> Word:
    """Rewrite across a square face: swap two independent rotations, or
    collapse a conjugated triple s t s^{-1} to a single rotation."""
    if i < 0 or i >= len(w):
        raise OutOfRange(f"index {i} out of range")
    if i + 3 <= len(w) and w[i + 2] == w[i].opposite():
        s1, s2 = w[i], w[i + 1]
        c = rotation_action(s1.u, not s1.inverse, s2.u)
        return _splice(w, i, 3, (RotationSymbol(c, s2.inverse),))
    _check_index(w, i, 2)
    s1, s2 = w[i], w[i + 1]
    t1 = RotationSymbol(rotation_action(s1.u, not s1.inverse, s2.u), s2.inverse)
    t2 = RotationSymbol(rotation_action(t1.u, t1.inverse, s1.u), s1.inverse)
    return _splice(w, i, 2, (t1, t2))


def pentagon_move(w: Word, i: int) -> Word:
    """Rewrite across a pentagon face: three stacked rotations for two equal
    ones, or back."""
    if i < 0 or i >= len(w):
        raise OutOfRange(f"index {i} out of range")
    if i + 3 <= len(w):
        s1, s2, s3 = w[i: i + 3]
        x = s2.u
        if (s1, s2, s3) == (
            RotationSymbol(x + "0", False),
            RotationSymbol(x, False),
            RotationSymbol(x + "1", False),
        ):
            return _splice(w, i, 3, (RotationSymbol(x), RotationSymbol(x)))
        if (s1, s2, s3) == (
            RotationSymbol(x + "1", True),
            RotationSymbol(x, True),
            RotationSymbol(x + "0", True),
        ):
            return _splice(w, i, 3, (RotationSymbol(x, True), RotationSymbol(x, True)))
    if i + 2 <= len(w) and w[i] == w[i + 1]:
        x, inv = w[i]
        if inv:
            repl = (
                RotationSymbol(x + "1", True),
                RotationSymbol(x, True),
                RotationSymbol(x + "0", True),
            )
        else:
            repl = (
                RotationSymbol(x + "0", False),
                RotationSymbol(x, False),
                RotationSymbol(x + "1", False),
            )
        return _splice(w, i, 2, repl)
    raise NoMatch(f"no pentagon template at index {i}")


# ---------- Export ----------


def sign_structure_dot(ss: SignStructure) -> str:
    lines = ["graph sign_structure {"]
    for v in sorted(ss.support.internal):
        lines.append(f'  "{format_address(v)}";')
    for a, b, positive in ss.edges:
        color = "black" if positive else "red"
        lines.append(
            f'  "{format_address(a)}" -- "{format_address(b)}" '
            f'[sign="{"+" if positive else "-"}", color={color}];'
        )
    lines.append("}")
    return "\n".join(lines)
