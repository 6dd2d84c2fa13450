"""Signed rotations and edge paths: the sign structure of a word, its balance
test, compatible-coloring counts, sign-consistent path search, and the square
and pentagon word moves."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import NoMatch, OutOfRange, TooLarge
from .coloring import (
    ColorVector,
    FLEXIBLE,
    check_plane_size,
    classify_vector,
    colorings_of_pair,
    edge_coloring_from_vector,
    sign_order,
    vectors_from_sign_bits,
)
from .thompson import RotationSymbol, TreePair, Word, path_steps, word_to_pair
from .trees import Address, BinaryTree, format_address, rotate, rotation_action, rotation_step

# path search budget: the worst of 40 seeded pairs of random trees took 0.9 s
# at 12 carets and 1.9 s at 13 (2 cores, Python 3.11)
PATH_MAX_CARETS = 12


class SignedTree(NamedTuple):
    tree: BinaryTree
    signs: dict  # Address -> bool, True = positive

    def __str__(self) -> str:
        marks = {v: "+" if s else "-" for v, s in self.signs.items()}
        body = " ".join(f"{format_address(v)}:{marks[v]}" for v in sorted(self.signs))
        return f"{self.tree.to_text()} [{body}]"


def is_signed_rotation_valid(st: SignedTree, s: RotationSymbol) -> bool:
    rotation_step(st.tree, s.u, s.inverse)  # raises PivotMissing
    a, b = s.pivots
    return st.signs[a] == st.signs[b]


def apply_signed_rotation(st: SignedTree, s: RotationSymbol) -> SignedTree:
    """Transport the signed tree along a rotation, flipping the pivot signs.

    Defined whether or not the rotation is valid for the signs.
    """
    T, moves = rotation_step(st.tree, s.u, s.inverse)
    moved = {moves[v]: sgn for v, sgn in st.signs.items()}
    for v in s.opposite().pivots:
        moved[v] = not moved[v]
    return SignedTree(T, moved)


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
    back = [(t.u, not t.inverse) for t in w]  # each symbol's inverse
    edges = []
    degree: dict[Address, int] = {}  # over every endpoint so far
    for i, s in enumerate(w):
        a, b = s.pivots
        for u, inverse in reversed(back[:i]):
            a = rotation_action(u, inverse, a)
            b = rotation_action(u, inverse, b)
        da, db = degree.get(a, 0), degree.get(b, 0)
        edges.append((a, b, (da + db) % 2 == 0))
        degree[a] = da + 1
        degree[b] = db + 1
    closure = {v[:k] for v in degree for k in range(len(v) + 1)}
    return SignStructure(tuple(edges), BinaryTree(closure))


def signed_balance(nodes: Iterable, edges: Iterable[tuple]) -> tuple[bool, int]:
    """Whether every cycle of the signed edges (a, b, positive) carries an
    even number of negative edges, and the number of components over the
    nodes.

    By Harary's balance theorem that holds iff the nodes split into two
    sides with each negative edge between them and each positive edge
    within one.  A breadth-first search puts each node on a side and checks
    every edge; it is a loop, so a deep chain needs no recursion.
    """
    adjacent: dict = {v: [] for v in nodes}
    for a, b, positive in edges:
        adjacent[a].append((b, not positive))
        adjacent[b].append((a, not positive))
    side: dict = {}
    balanced = True
    components = 0
    for root in adjacent:
        if root in side:
            continue
        components += 1
        side[root] = False
        queue = [root]
        for v in queue:  # grows while read: breadth-first order
            for x, cross in adjacent[v]:
                want = side[v] ^ cross
                if x not in side:
                    side[x] = want
                    queue.append(x)
                elif side[x] != want:
                    balanced = False
    return balanced, components


def is_balanced(ss: SignStructure) -> tuple[bool, int]:
    """Whether every cycle carries an even number of negative edges, and the
    component count over the support's internal vertices."""
    return signed_balance(ss.support.internal, ss.edges)


def subpath_check(w: Word) -> list[bool]:
    """Balance verdict for every prefix of the word.  Edge i depends only on
    symbols up to i, so a prefix's edges are a prefix of the word's edges."""
    ss = sign_structure(w)
    return [signed_balance(ss.support.internal, ss.edges[: k + 1])[0] for k in range(len(w))]


def compatible_colorings(w: Word, D: BinaryTree) -> list[ColorVector]:
    """Normalized vectors of D that keep every rotation of the word valid.

    This is the brute-force oracle for the balance theorem, so it never
    consults sign_structure or is_balanced: it tries all 2^(n-1) normalized
    sign assignments of D.  The path is walked once through path_steps,
    following each internal vertex of D to its current address, so a
    missing pivot raises PivotMissing before any assignment is tried.  A
    step is the bitmask m of the slots (positions in sign_order(D)) of its
    two pivots.  A rotation is valid iff its pivots carry equal signs, and
    it flips both, so an assignment passes the step iff bits & m is 0 or m,
    and continues as bits ^ m.
    """
    check_plane_size(D)  # before the walk and the 2^(n-1) loop
    order = sign_order(D)
    slot = {v: i for i, v in enumerate(order)}
    steps = []
    for s, (_, moves) in zip(w, path_steps(D, w)):
        a, b = s.pivots
        steps.append(1 << slot[a] | 1 << slot[b])
        slot = {moves[v]: j for v, j in slot.items()}
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


def _symbols_for(T: BinaryTree) -> list[RotationSymbol]:
    """Every rotation whose pivots are internal in T, sorted by their text."""
    syms = (RotationSymbol(u, b == "1") for u in T.internal for b in "01" if u + b in T.internal)
    return sorted(syms, key=str)


def find_sign_consistent_path(D: BinaryTree, R: BinaryTree) -> Word | None:
    """A word of everywhere-valid signed rotations from D to R, if one exists.

    Searches each flexible common normalized vector in canonical order and
    walks its color graph breadth-first; returns the first path found.
    """
    p = TreePair(D, R)
    if D.carets > PATH_MAX_CARETS:
        raise TooLarge(f"path search limited to {PATH_MAX_CARETS} carets, got {D.carets}")
    if D == R:
        return ()
    for c in colorings_of_pair(p):
        if classify_vector(c) != FLEXIBLE:
            continue
        word = _bfs_in_color_graph(D, R, c)
        if word is not None:
            return word
    return None


def _bfs_in_color_graph(D: BinaryTree, R: BinaryTree, c: ColorVector) -> Word | None:
    parent = {D: None}  # tree -> (the tree it was reached from, the symbol)
    queue = [D]
    for T in queue:  # grows while read: breadth-first order
        color = edge_coloring_from_vector(T, c)
        for s in _symbols_for(T):
            # the rotation makes one new caret, whose edge sums the edges above
            # u+ab and u+b (0, 1 swapped if inverse): valid iff those differ
            a, b = ("1", "0") if s.inverse else ("0", "1")
            if color[s.u + a + b] == color[s.u + b]:
                continue
            nxt = rotate(T, s.u, s.inverse)
            if nxt in parent:
                continue
            parent[nxt] = (T, s)
            if nxt == R:
                word = []
                while parent[nxt] is not None:
                    nxt, s = parent[nxt]
                    word.append(s)
                return tuple(reversed(word))
            queue.append(nxt)
    return None


# ---------- Word moves across square and pentagon faces ----------


def _splice(w: Word, i: int, width: int, repl: Word) -> Word:
    """Replace w[i:i+width] by repl if both are one group element: x a y = x b y
    iff a = b, and reduced tree-pair diagrams are unique."""
    if word_to_pair(w[i: i + width]) != word_to_pair(repl):
        raise NoMatch("rewrite does not preserve the group element")
    return w[:i] + repl + w[i + width:]


def square_move(w: Word, i: int) -> Word:
    """Rewrite across a square face: swap two independent rotations, or
    collapse a conjugated triple s t s^{-1} to a single rotation."""
    if i < 0 or i >= len(w):
        raise OutOfRange(f"index {i} out of range")
    if i + 3 <= len(w) and w[i + 2] == w[i].opposite():
        s1, s2 = w[i], w[i + 1]
        c = rotation_action(s1.u, not s1.inverse, s2.u)
        return _splice(w, i, 3, (RotationSymbol(c, s2.inverse),))
    if i + 2 > len(w):
        raise OutOfRange(f"no 2-symbol subword at index {i} in a word of length {len(w)}")
    s1, s2 = w[i], w[i + 1]
    t1 = RotationSymbol(rotation_action(s1.u, not s1.inverse, s2.u), s2.inverse)
    t2 = RotationSymbol(rotation_action(t1.u, t1.inverse, s1.u), s1.inverse)
    return _splice(w, i, 2, (t1, t2))


def _pentagon(x: Address, inverse: bool) -> Word:
    """The three stacked rotations that equal two rotations at x; the
    inverse template is the forward one with 0 and 1 swapped below x."""
    a, b = ("1", "0") if inverse else ("0", "1")
    return tuple(RotationSymbol(v, inverse) for v in (x + a, x, x + b))


def pentagon_move(w: Word, i: int) -> Word:
    """Rewrite across a pentagon face: three stacked rotations for two equal
    ones, or back."""
    if i < 0 or i >= len(w):
        raise OutOfRange(f"index {i} out of range")
    if i + 3 <= len(w) and w[i: i + 3] == _pentagon(*w[i + 1]):
        return _splice(w, i, 3, (w[i + 1],) * 2)
    if i + 2 <= len(w) and w[i] == w[i + 1]:
        return _splice(w, i, 2, _pentagon(*w[i]))
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
