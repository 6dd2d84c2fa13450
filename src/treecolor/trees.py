"""Rooted, locally ordered binary trees as finite subtrees of the standard model.

A vertex of the (infinite) standard model is named by a finite bit string
("address"); the empty string is the child of the root.  A finite binary tree
is stored as the set of its internal vertices (caret centers), which must be
prefix-closed.  Leaves are derived.
"""

from __future__ import annotations

import functools
import sys
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    NotAVertex,
    NotEdgeDisjoint,
    NotLaminar,
    NotPrefixClosed,
    PivotMissing,
    SubtreeTooSmall,
    TooLarge,
    TooSmall,
    WrongCardinality,
)

Address = str  # bit string over {0,1}; "" is the child of the root


def format_address(v: Address) -> str:
    """Serialize an address; the empty word prints as "e"."""
    return v if v else "e"


def parse_address(s: str) -> Address:
    if s == "e":
        return ""
    if s == "" or any(ch not in "01" for ch in s):
        raise NotAVertex(f"bad address {s!r}")
    return s


class BinaryTree:
    """Immutable binary tree given by its prefix-closed internal vertex set."""

    __slots__ = ("internal",)

    def __init__(self, internal: Iterable[Address] = ()):
        s = frozenset(internal)
        for v in s:
            if v and v[:-1] not in s:
                raise NotPrefixClosed(f"parent of {format_address(v)} missing")
        object.__setattr__(self, "internal", s)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryTree is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which checks the set again
        return (BinaryTree, (self.internal,))

    def __eq__(self, other):
        return isinstance(other, BinaryTree) and self.internal == other.internal

    def __hash__(self):
        return hash(self.internal)  # a frozenset caches its own hash

    def __repr__(self):
        return f"BinaryTree({self.to_text()!r})"

    def __contains__(self, v: Address) -> bool:
        """True iff v is a vertex (internal or leaf) of this tree."""
        return v in self.internal or (v == "" or (v[:-1] in self.internal))

    @property
    def carets(self) -> int:
        return len(self.internal)

    @property
    def leaf_count(self) -> int:
        return len(self.internal) + 1

    def to_text(self) -> str:
        """Canonical parenthesized form: "." for the trivial tree, "(AB)" for a join."""
        out = []
        todo: list[Address | None] = [""]  # None closes a caret
        while todo:
            v = todo.pop()
            if v is None:
                out.append(")")
            elif v in self.internal:
                out.append("(")
                todo += (None, v + "1", v + "0")
            else:
                out.append(".")
        return "".join(out)

    def to_json(self) -> dict:
        return {"internal": sorted(format_address(v) for v in self.internal)}

    @staticmethod
    def from_text(s: str) -> "BinaryTree":
        """Inverse of to_text: the same worklist, reading one character per step."""
        s = s.strip()
        internal: list[Address] = []
        pos = 0
        todo: list[Address | None] = [""]
        while todo:
            addr = todo.pop()
            if addr is None:
                if s[pos:pos + 1] != ")":
                    raise NotPrefixClosed(f"bad tree text {s!r} at {pos}")
            elif pos >= len(s):
                raise NotPrefixClosed(f"truncated tree text {s!r}")
            elif s[pos] == "(":
                internal.append(addr)
                todo += (None, addr + "1", addr + "0")
            elif s[pos] != ".":
                raise NotPrefixClosed(f"bad tree text {s!r} at {pos}")
            pos += 1
        if pos != len(s):
            raise NotPrefixClosed(f"trailing characters in {s!r}")
        return BinaryTree(internal)

    @staticmethod
    def from_json(obj: dict) -> "BinaryTree":
        return BinaryTree(parse_address(a) if a != "e" else "" for a in obj["internal"])


TRIVIAL = BinaryTree()


def leaves(T: BinaryTree) -> list[Address]:
    """Leaf addresses in left-right (lexicographic) order."""
    if not T.internal:
        return [""]
    out = [v + b for v in T.internal for b in "01" if v + b not in T.internal]
    out.sort()
    return out


# all_trees(12) lists 208,012 trees; 16 carets would be 35M
TREES_MAX_CARETS = 12


def _trusted_tree(internal: frozenset[Address]) -> BinaryTree:
    """A tree from a vertex set known to be prefix-closed: the check is skipped."""
    T = BinaryTree.__new__(BinaryTree)
    object.__setattr__(T, "internal", internal)
    return T


def _below(T: BinaryTree, bit: str, intern: bool = False) -> frozenset[Address]:
    """The root and T's internal vertices moved below the root's child `bit`.

    With intern, the addresses are interned, so the trees built from them
    share one string per address.
    """
    moved = (bit + v for v in T.internal)
    return frozenset(["", *(map(sys.intern, moved) if intern else moved)])


@functools.lru_cache(maxsize=None)
def _sizes_in_order(m: int) -> tuple[int, ...]:
    """The caret counts of all trees with at most m carets, in canonical order.

    A join's text is "(" + text(left) + text(right) + ")" and the texts form
    a prefix-free code, so joins sort by (left, right); "." sorts last.
    """
    if m < 0:
        return ()
    out = [a + b + 1 for a in _sizes_in_order(m - 1) for b in _sizes_in_order(m - 1 - a)]
    out.append(0)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _all_trees(n: int) -> tuple[BinaryTree, ...]:
    """The n-caret trees in canonical order, without a sort.

    The left subtrees run over all smaller sizes in text order:
    _sizes_in_order(n - 1) names the size of each in turn, and each size
    yields its trees in its cached order.  Each is joined with every right
    subtree of the complementary size, in that size's order.
    """
    if n == 0:
        return (TRIVIAL,)
    lefts = [iter(_all_trees(i)) for i in range(n)]
    rights: dict[int, list] = {}  # right halves by size, kept if reused
    out = []
    for i in _sizes_in_order(n - 1):
        zero = _below(next(lefts[i]), "0", intern=True)
        ones = rights.get(n - 1 - i)
        if ones is None:
            ones = (_below(T, "1", intern=True) for T in _all_trees(n - 1 - i))
            if i > 1:  # more left trees of i carets follow
                ones = rights[n - 1 - i] = list(ones)
        out.extend(_trusted_tree(zero | one) for one in ones)
    return tuple(out)


def all_trees(n: int) -> tuple[BinaryTree, ...]:
    """All trees with n carets, ordered lexicographically by canonical text.

    The tuple is built once per size and shared by every caller.  At most
    TREES_MAX_CARETS carets, checked before any work.
    """
    if n < 0:
        raise TooSmall("caret count must be >= 0")
    if n > TREES_MAX_CARETS:
        raise TooLarge(f"trees limited to {TREES_MAX_CARETS} carets, got {n}")
    return _all_trees(n)


def subtree_at(T: BinaryTree, v: Address) -> BinaryTree:
    """The subtree hanging below the edge above v, re-addressed to the root."""
    if v not in T:
        raise NotAVertex(f"{format_address(v)} is not a vertex of {T.to_text()}")
    k = len(v)
    return BinaryTree(w[k:] for w in T.internal if w.startswith(v))


def join(S: BinaryTree, T: BinaryTree) -> BinaryTree:
    """The tree whose left subtree is S and right subtree is T."""
    return _trusted_tree(_below(S, "0") | _below(T, "1"))


def tree_set_ops(A: BinaryTree, B: BinaryTree):
    """(union, intersection, components of A−B).

    The difference is returned as a mapping from each leaf v of A∩B that is
    internal in A to the component subtree of A attached there.
    """
    union = BinaryTree(A.internal | B.internal)
    inter = BinaryTree(A.internal & B.internal)
    comps: dict[Address, BinaryTree] = {}
    for v in leaves(inter):
        if v in A.internal:
            comps[v] = subtree_at(A, v)
    return union, inter, comps


def shadow_interval(T: BinaryTree, v: Address) -> tuple[int, int]:
    """1-based leaf index interval spanned by the subtree below v."""
    if v not in T:
        raise NotAVertex(f"{format_address(v)} is not a vertex of {T.to_text()}")
    return _spans(T)[v]


def _spans(T: BinaryTree) -> dict[Address, tuple[int, int]]:
    """1-based leaf index interval below every vertex: (i, i) for the i-th
    leaf, and for an internal vertex from the start of its left child's
    interval to the end of its right child's."""
    out = {w: (i + 1, i + 1) for i, w in enumerate(leaves(T))}
    for v in sorted(T.internal, reverse=True):  # both children before v
        out[v] = (out[v + "0"][0], out[v + "1"][1])
    return out


def shadow_pattern(T: BinaryTree) -> frozenset[tuple[int, int]]:
    """Shadow intervals of every internal vertex except the topmost one."""
    if T.leaf_count < 2:
        raise TooSmall("tree must have at least 2 leaves")
    spans = _spans(T)
    return frozenset(spans[v] for v in T.internal if v)


def tree_from_shadow_pattern(p: Iterable[tuple[int, int]], n: int) -> BinaryTree:
    """Inverse of shadow_pattern for a tree with n leaves."""
    intervals = set(tuple(i) for i in p)
    if len(intervals) != n - 2:
        raise WrongCardinality(f"expected {n - 2} intervals, got {len(intervals)}")
    for lo, hi in intervals:
        if not (1 <= lo < hi <= n) or (lo, hi) == (1, n):
            raise NotLaminar(f"interval [{lo},{hi}] is not proper in [1,{n}]")
    used = set()
    internal: list[Address] = []
    todo = [(1, n, "")]
    while todo:
        lo, hi, addr = todo.pop()
        if lo == hi:
            continue
        internal.append(addr)
        split = lo
        for j in range(lo, hi):
            if j == lo or (lo, j) in intervals:
                split = j
        if split > lo:
            used.add((lo, split))
        if split + 1 < hi:
            if (split + 1, hi) not in intervals:
                raise NotLaminar(f"no interval covers [{split + 1},{hi}]")
            used.add((split + 1, hi))
        todo += ((split + 1, hi, addr + "1"), (lo, split, addr + "0"))
    if used != intervals:
        raise NotLaminar("intervals do not form a laminar tree pattern")
    return BinaryTree(internal)


# ---------- Rotations ----------


# A colouring plane holds one bit per normalized sign assignment, 2^(n-1) bits
# for n carets; beyond this many carets the planes (and the colorings) are too
# big, so no sweep walks such a tree and its rotation steps are not cached.
PLANE_MAX_CARETS = 20

# Entries kept by the rotation caches.  Every criterion-05 word (at most 5
# carets, length 6) walks 222 distinct steps and pulls back 258 distinct
# vertices; the bounds leave room for larger sweeps and cap the memory of
# path searches that rotate thousands of trees once each.
ROTATION_STEP_CACHE = 1024
ROTATION_ACTION_CACHE = 4096


def _rotation_action(u: Address, inverse: bool, v: Address) -> Address:
    """Where the rotation at u sends the vertex v of the standard model.

    The inverse rotation is the forward one with 0 and 1 swapped below u.
    """
    a, b = ("1", "0") if inverse else ("0", "1")
    if not v.startswith(u):
        return v
    rest = v[len(u):]
    if not rest:
        return u + b
    if rest == a:
        return u
    if rest.startswith(a + a):
        return u + a + rest[2:]
    if rest.startswith(a + b):
        return u + b + a + rest[2:]
    return u + b + b + rest[1:]  # rest starts with b


rotation_action = functools.lru_cache(maxsize=ROTATION_ACTION_CACHE)(_rotation_action)


Step = tuple[BinaryTree, Mapping[Address, Address]]


def _rotation_step(T: BinaryTree, u: Address, inverse: bool) -> Step:
    pivot2 = u + ("1" if inverse else "0")
    if u not in T.internal or pivot2 not in T.internal:
        raise PivotMissing(
            f"pivots {format_address(u)},{format_address(pivot2)} not internal in {T.to_text()}"
        )
    moves = {v: _rotation_action(u, inverse, v) for v in T.internal}
    return BinaryTree(moves.values()), MappingProxyType(moves)


_cached_rotation_step = functools.lru_cache(maxsize=ROTATION_STEP_CACHE)(_rotation_step)


def rotation_step(T: BinaryTree, u: Address, inverse: bool = False) -> Step:
    """The rotation with pivot u applied to T, and a read-only map of where
    it sends each internal vertex of T.

    Steps of trees with at most PLANE_MAX_CARETS carets are cached, so a
    sweep that walks the same edge of the associahedron again reads it back.
    """
    if len(T.internal) <= PLANE_MAX_CARETS:
        return _cached_rotation_step(T, u, inverse)
    return _rotation_step(T, u, inverse)


rotation_step.cache_info = _cached_rotation_step.cache_info


def rotate(T: BinaryTree, u: Address, inverse: bool = False) -> BinaryTree:
    """Apply the rotation with pivot u (inverse: opposite direction)."""
    return rotation_step(T, u, inverse)[0]


# ---------- The rotation skeleton ----------


def interval_mask(intervals: Iterable[tuple[int, int]], L: int) -> int:
    """An interval family over L leaves as an int: (lo, hi) is bit (lo-1)*L + hi-1.

    Shadow patterns and zero-interval sets share this encoding, so a tree's
    shadow meets a family iff the AND of their masks is nonzero.
    """
    m = 0
    for lo, hi in intervals:
        m |= 1 << ((lo - 1) * L + hi - 1)
    return m


class Skeleton(NamedTuple):
    """The rotation 1-skeleton of the associahedron on the n-caret trees."""

    trees: tuple  # of BinaryTree, canonical order (as all_trees)
    masks: tuple  # interval_mask of each tree's shadow pattern (0 below 2 leaves)
    left: tuple  # per tree, indices of rotate(T, u) for sorted u with u+"0" internal


@functools.lru_cache(maxsize=None)
def skeleton(n: int) -> Skeleton:
    """The trees with n carets, their shadow masks and left-rotation indices.

    Built on first use and cached for the life of the process: every size is
    computed once, whatever the number of colour graphs drawn on it.  The
    trees are all_trees(n), so n is held to TREES_MAX_CARETS first.  Each
    edge of the skeleton appears once, as a left rotation of one endpoint.
    A shadow pattern determines its tree, so a rotation is found by its
    mask: rotating at u trades the interval [a, b] of u0 for the interval
    [x+1, c] of the new u1, where u00 ends at leaf x and u at leaf c.
    """
    ts = all_trees(n)
    L = n + 1
    spans = [_spans(T) for T in ts]
    masks = tuple(interval_mask((sp[v] for v in T.internal if v), L) for T, sp in zip(ts, spans))
    by_mask = {m: i for i, m in enumerate(masks)}
    left = []
    for T, sp, m in zip(ts, spans, masks):
        rot = []
        for u in sorted(T.internal):
            if u + "0" in T.internal:
                a, b = sp[u + "0"]
                x = sp[u + "00"][1]
                rot.append(by_mask[m ^ interval_mask([(a, b), (x + 1, sp[u][1])], L)])
        left.append(tuple(rot))
    return Skeleton(ts, masks, tuple(left))


# ---------- Vines ----------


def right_vine(n: int) -> BinaryTree:
    return BinaryTree("1" * i for i in range(n))


def left_vine(n: int) -> BinaryTree:
    return BinaryTree("0" * i for i in range(n))


def is_vine(T: BinaryTree) -> bool:
    """True iff T has exactly one exposed caret."""
    exposed = [v for v in T.internal if v + "0" not in T.internal and v + "1" not in T.internal]
    return len(exposed) == 1


# ---------- Dihedral action via the dual polygon ----------


def dihedral_apply(T: BinaryTree, k: int, reflect: bool = False) -> BinaryTree:
    """Root shift by k (and optional reflection) of the dual triangulated polygon.

    The polygon has leaf_count+1 sides; the root stays in the top edge, so the
    chord family is relabeled and converted back to a tree.
    """
    L = T.leaf_count
    m = L + 1
    k %= m
    if L < 2:
        return T
    chords = [(lo - 1, hi) for lo, hi in shadow_pattern(T)]
    moved = []
    for p, q in chords:
        if reflect:
            p, q = (L - p) % m, (L - q) % m
        p, q = (p + k) % m, (q + k) % m
        lo, hi = (min(p, q), max(p, q))
        moved.append((lo + 1, hi))
    return tree_from_shadow_pattern(moved, L)


def dihedral_orbit(T: BinaryTree) -> set[BinaryTree]:
    m = T.leaf_count + 1
    return {dihedral_apply(T, k, r) for k in range(m) for r in (False, True)}


# ---------- Projections ----------


class GeneralTree:
    """Ordered rooted tree allowing internal vertices of any arity >= 2."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable["GeneralTree"] = ()):
        object.__setattr__(self, "children", tuple(children))

    def __setattr__(self, name, value):
        raise AttributeError("GeneralTree is immutable")

    def __reduce__(self):
        return (GeneralTree, (self.children,))

    def __eq__(self, other):
        # the text is a prefix-free code, so equal texts mean equal trees
        return isinstance(other, GeneralTree) and self.to_text() == other.to_text()

    def __hash__(self):
        return hash(self.to_text())

    def to_text(self) -> str:
        """Canonical form: "." for a leaf, "(" + the children's texts + ")" otherwise."""
        out = []
        todo: list[GeneralTree | None] = [self]  # None closes a vertex
        while todo:
            t = todo.pop()
            if t is None:
                out.append(")")
            elif t.children:
                out.append("(")
                todo.append(None)
                todo.extend(reversed(t.children))
            else:
                out.append(".")
        return "".join(out)

    def __repr__(self):
        return f"GeneralTree({self.to_text()!r})"


def projection(T: BinaryTree, subs: list[tuple[Address, BinaryTree]]) -> GeneralTree:
    """Collapse the internal edges of each named subtree of T.

    Each subtree is given as (w, S): w is the address in T of the child of the
    subtree's root, S the subtree shape re-addressed to the standard model.
    """
    claimed: set[Address] = set()
    absorb: dict[Address, list[Address]] = {}
    for w, S in subs:
        if S.leaf_count < 3:
            raise SubtreeTooSmall(f"subtree at {format_address(w)} has fewer than 3 leaves")
        for x in sorted(S.internal):  # the first missing vertex in a fixed order
            if w + x not in T.internal:
                raise NotAVertex(f"{format_address(w + x)} is not internal in T")
        body = {w + x for x in S.internal} | {w + l for l in leaves(S)}
        body.discard(w)
        if body & claimed:
            raise NotEdgeDisjoint("subtrees share a non-root edge")
        claimed |= body
        absorb[w] = [w + l for l in leaves(S)]

    leaf = GeneralTree()
    nodes: dict[Address, GeneralTree] = {}
    for v in sorted(T.internal, reverse=True):  # every descendant before v
        kids = absorb.get(v, (v + "0", v + "1"))
        nodes[v] = GeneralTree(nodes.get(c, leaf) for c in kids)
    return nodes.get("", leaf)
