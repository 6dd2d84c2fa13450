"""Group elements as tree pairs: reduction, multiplication, the vertex action,
rotations as generators, words, and structural predicates."""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import LengthMismatch, NotALeaf, NotAVertex, PivotMissing, TooLarge
from .trees import (
    Address,
    BinaryTree,
    Step,
    TRIVIAL,
    format_address,
    join,
    leaves,
    parse_address,
    right_vine,
    rotation_step,
    subtree_at,
)


class _Symbol(NamedTuple):
    u: Address
    inverse: bool = False


# Distinct symbols kept for sharing.  Every symbol that applies to a tree of
# at most 12 carets fits: its pivot u has length at most 10, which leaves
# 2^11 - 1 pivots in each direction.  Past the cap a new value is made as a
# fresh, equal symbol, so the table cannot grow without bound.
SYMBOL_TABLE_MAX = 1 << 12
_SYMBOLS: dict = {}

# all_pairs(7) reduces Catalan(7)^2 = 184,041 pairs in about 4.4 s on 2 cores
ALL_PAIRS_MAX_CARETS = 7


class RotationSymbol(_Symbol):
    """A rotation at pivot u, inverse or not.

    Equal symbols are one shared object (up to SYMBOL_TABLE_MAX values):
    a sweep's words are many tuples over a few dozen symbols.  Only bool
    flags are shared, so RotationSymbol(u, 1) keeps its int flag.
    """

    __slots__ = ()

    def __new__(cls, u: Address, inverse: bool = False):
        s = _SYMBOLS.get((u, inverse))
        if s is None or s.inverse is not inverse:
            s = tuple.__new__(cls, (u, inverse))
            if (inverse is True or inverse is False) and len(_SYMBOLS) < SYMBOL_TABLE_MAX:
                _SYMBOLS[s] = s
        return s

    def opposite(self) -> "RotationSymbol":
        return RotationSymbol(self.u, not self.inverse)

    @property
    def pivots(self) -> tuple[Address, Address]:
        return (self.u, self.u + ("1" if self.inverse else "0"))

    def __str__(self) -> str:
        return ("~" if self.inverse else "") + format_address(self.u)


Word = tuple[RotationSymbol, ...]


def parse_symbol(tok: str) -> RotationSymbol:
    inv = tok.startswith("~")
    if inv:
        tok = tok[1:]
    return RotationSymbol(parse_address(tok), inv)


def parse_word(s: str) -> Word:
    return tuple(parse_symbol(tok) for tok in s.split())


def format_word(w: Word) -> str:
    return " ".join(str(s) for s in w)


class _Pair(NamedTuple):
    d: BinaryTree
    r: BinaryTree


class TreePair(_Pair):
    """A pair of binary trees with the same number of leaves; any other pair
    is refused with LengthMismatch."""

    __slots__ = ()

    def __new__(cls, d: BinaryTree, r: BinaryTree):
        if len(d.internal) != len(r.internal):
            raise LengthMismatch(f"leaf counts differ: {d.leaf_count} != {r.leaf_count}")
        return tuple.__new__(cls, (d, r))

    def __str__(self) -> str:
        return f"({self.d.to_text()}, {self.r.to_text()})"

    def to_json(self) -> dict:
        return {"d": self.d.to_json(), "r": self.r.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "TreePair":
        return TreePair(BinaryTree.from_json(obj["d"]), BinaryTree.from_json(obj["r"]))


IDENTITY = TreePair(TRIVIAL, TRIVIAL)


def reduce(p: TreePair) -> TreePair:
    """Remove matching exposed carets until none remain."""
    d, r = set(p.d.internal), set(p.r.internal)
    while True:
        dl = leaves(BinaryTree(d))
        rl = leaves(BinaryTree(r))
        hit = None
        for i in range(len(dl) - 1):
            a, b = dl[i], dl[i + 1]
            x, y = rl[i], rl[i + 1]
            if a[:-1] == b[:-1] and a[-1:] == "0" and x[:-1] == y[:-1] and x[-1:] == "0":
                hit = (a[:-1], x[:-1])
                break
        if hit is None:
            return TreePair(BinaryTree(d), BinaryTree(r))
        d.discard(hit[0])
        r.discard(hit[1])


def invert(p: TreePair) -> TreePair:
    return TreePair(p.r, p.d)


def multiply(a: TreePair, b: TreePair) -> TreePair:
    """Unreduced product: expand both factors to the common middle tree."""
    A, B = a
    C, D = b
    M = BinaryTree(B.internal | C.internal)

    def expand(base: BinaryTree, mid: BinaryTree) -> BinaryTree:
        # grow `base` by the components of M - mid, attached at matching leaves
        out = set(base.internal)
        ml = leaves(mid)
        bl = leaves(base)
        for i, v in enumerate(ml):
            if v in M.internal:
                sub = subtree_at(M, v)
                out.update(bl[i] + x for x in sub.internal)
        return BinaryTree(out)

    return TreePair(expand(A, B), expand(D, C))


def _infix_key(v: Address):
    return tuple(int(b) for b in v) + (0.5,)


def apply_element(p: TreePair, v: Address) -> Address:
    """The total action of the pair on vertex addresses of the standard model."""
    D, R = p
    dl = leaves(D)
    rl = leaves(R)
    for k in range(len(v) + 1):
        q = v[:k]
        if q in dl:
            return rl[dl.index(q)] + v[k:]
    if v not in D.internal:  # no leaf above it and not internal: not a 0/1 word
        raise NotAVertex(f"{format_address(v)} is not a vertex of {D.to_text()}")
    di = sorted(D.internal, key=_infix_key)
    ri = sorted(R.internal, key=_infix_key)
    return ri[di.index(v)]


def rotation_as_pair(s: RotationSymbol) -> TreePair:
    def vine(x: Address) -> BinaryTree:
        return BinaryTree(x[:i] for i in range(len(x) + 1))

    p = TreePair(vine(s.u + "0"), vine(s.u + "1"))
    return invert(p) if s.inverse else p


def word_to_pair(w: Word) -> TreePair:
    out = IDENTITY
    for s in w:
        out = reduce(multiply(out, rotation_as_pair(s)))
    return out


def path_steps(T: BinaryTree, w: Word) -> Iterator[Step]:
    """The rotation steps of the edge path starting at T, one per symbol:
    the next tree and where each internal vertex of the last one goes."""
    for i, s in enumerate(w):
        try:
            T, moves = rotation_step(T, s.u, s.inverse)
        except PivotMissing as e:
            raise PivotMissing(f"symbol {i} ({s}): {e}") from None
        yield T, moves


def path_evaluate(T: BinaryTree, w: Word) -> list[BinaryTree]:
    """Visited vertex sequence of the edge path starting at T."""
    return [T] + [t for t, _ in path_steps(T, w)]


def classify_multiplication(p: TreePair, s: RotationSymbol) -> str:
    """How multiplying p by a rotation affects tree size.

    Returns "NonIncreasing", "MinimallyIncreasing" or "Increasing" based on
    how much of the pivot vine is missing from p's range tree.
    """
    x = s.pivots[1]
    need = {x[:i] for i in range(len(x) + 1)}
    missing = need - p.r.internal
    if not missing:
        return "NonIncreasing"
    if len(missing) == 1:
        return "MinimallyIncreasing"
    return "Increasing"


def is_positive(p: TreePair) -> bool:
    return p.r == right_vine(p.r.carets)


def is_prime_positive(p: TreePair) -> bool:
    if not is_positive(p) or p.d.carets < 2:
        return False
    return subtree_at(p.d, "1") == TRIVIAL


def leaf_depths(T: BinaryTree) -> list[int]:
    return [len(v) for v in leaves(T)]


def parity_condition(p: TreePair) -> bool:
    """True iff matching leaf depths agree mod 2 (a rigid coloring exists)."""
    return all(
        (a - b) % 2 == 0 for a, b in zip(leaf_depths(p.d), leaf_depths(p.r))
    )


def deferment(p: TreePair, host: BinaryTree, leaf: Address) -> TreePair:
    """Attach both trees of p to host at one of its leaves."""
    if leaf not in leaves(host):
        raise NotALeaf(f"{format_address(leaf)} is not a leaf of {host.to_text()}")
    return TreePair(
        BinaryTree(set(host.internal) | {leaf + x for x in p.d.internal}),
        BinaryTree(set(host.internal) | {leaf + x for x in p.r.internal}),
    )


def all_pairs(n: int) -> Iterable[TreePair]:
    """All reduced tree pairs with exactly n carets on each side, from
    Catalan(n)^2 candidates; n is held to ALL_PAIRS_MAX_CARETS on the call."""
    from .trees import all_trees

    if n > ALL_PAIRS_MAX_CARETS:
        raise TooLarge(f"pairs limited to {ALL_PAIRS_MAX_CARETS} carets, got {n}")
    ts = all_trees(n)
    pairs = (TreePair(d, r) for d in ts for r in ts)
    return (p for p in pairs if reduce(p) == p)
