"""Colors in Z2 x Z2, color vectors, induced edge colorings, sign assignments,
acceptability and rigidity classification, and pattern machinery.

Colors are coded 0..3 with XOR as addition (so 1+2=3 and every color is its
own inverse).  A color vector assigns one color per leaf in left-right order;
it induces a unique edge coloring with zero-sum at every caret.
"""

from __future__ import annotations

from functools import reduce as _reduce
from typing import Callable, Iterable, Sequence

from .errors import (
    ImproperColoring,
    LengthMismatch,
    TooShort,
    ZeroEntry,
    ZeroRoot,
)
from .trees import Address, BinaryTree, join, leaves, left_vine, right_vine
from .thompson import TreePair

Color = int
ColorVector = tuple[Color, ...]

_POSITIVE = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
_SUCC = {1: 2, 2: 3, 3: 1}


def parse_vector(s: str) -> ColorVector:
    if not all(ch in "0123" for ch in s):
        raise ZeroEntry(f"bad color vector {s!r}")
    return tuple(int(ch) for ch in s)


def format_vector(c: Sequence[Color]) -> str:
    return "".join(str(x) for x in c)


def vector_sum(c: Sequence[Color]) -> Color:
    return _reduce(lambda a, b: a ^ b, c, 0)


def edge_coloring_from_vector(T: BinaryTree, c: Sequence[Color]) -> dict[Address, Color]:
    """Color of the edge above every vertex; the empty address holds the root color."""
    lv = leaves(T)
    if len(c) != len(lv):
        raise LengthMismatch(f"vector length {len(c)} != leaf count {len(lv)}")
    e = dict(zip(lv, c))

    def fill(v: Address) -> Color:
        if v in e:
            return e[v]
        col = fill(v + "0") ^ fill(v + "1")
        e[v] = col
        return col

    fill("")
    return e


def is_valid(T: BinaryTree, c: Sequence[Color]) -> bool:
    return 0 not in edge_coloring_from_vector(T, c).values()


def sign_assignment_from_coloring(T: BinaryTree, e: dict[Address, Color]) -> dict[Address, bool]:
    """True = positive sign, from the cyclic order (up, left, right)."""
    out = {}
    for v in T.internal:
        triple = (e[v], e[v + "0"], e[v + "1"])
        if 0 in triple:
            raise ImproperColoring(f"zero edge color at {v or 'e'}")
        out[v] = triple in _POSITIVE
    return out


def coloring_from_sign(
    T: BinaryTree, s: dict[Address, bool], root: Color = 1
) -> dict[Address, Color]:
    """The unique proper edge coloring with the given signs and root color."""
    if root == 0:
        raise ZeroRoot("root color must be nonzero")
    e = {"": root}

    def fill(v: Address) -> None:
        if v not in T.internal:
            return
        a = e[v]
        if s[v]:
            e[v + "0"], e[v + "1"] = _SUCC[a], _SUCC[_SUCC[a]]
        else:
            e[v + "0"], e[v + "1"] = _SUCC[_SUCC[a]], _SUCC[a]
        fill(v + "0")
        fill(v + "1")

    fill("")
    return e


def vector_from_edge_coloring(T: BinaryTree, e: dict[Address, Color]) -> ColorVector:
    return tuple(e[v] for v in leaves(T))


def signs_of(T: BinaryTree, c: Sequence[Color]) -> dict[Address, bool]:
    return sign_assignment_from_coloring(T, edge_coloring_from_vector(T, c))


# ---------- Acceptability ----------


def _check_entries(c: Sequence[Color]) -> None:
    if any(x not in (1, 2, 3) for x in c):
        raise ZeroEntry("entries must lie in {1,2,3}")


def is_acceptable(c: Sequence[Color]) -> bool:
    """True iff some tree makes the vector valid: non-constant with nonzero sum."""
    _check_entries(c)
    if len(c) < 2:
        raise TooShort("vector must have length at least 2")
    return len(set(c)) > 1 and vector_sum(c) != 0


def acceptable_witness(c: Sequence[Color]) -> BinaryTree | None:
    """A tree for which the vector is valid, or None if unacceptable."""
    if not is_acceptable(c):
        return None
    return _witness(tuple(c))


def _witness(c: ColorVector) -> BinaryTree:
    n = len(c)
    if n == 2:
        return BinaryTree({""})
    x = c[0]
    if all(v == x for v in c[:-1]):
        return right_vine(n - 1)
    if all(v == c[1] for v in c[1:]):
        return left_vine(n - 1)
    total = vector_sum(c)
    if total != x:
        # strip the first entry onto a caret above the witness for the rest
        A = _witness(c[1:])
        return BinaryTree({""} | {"1" + v for v in A.internal})
    if c[-1] != x:
        A = _witness(c[:-1])
        return BinaryTree({""} | {"0" + v for v in A.internal})
    # sum and last entry both equal the leading run's color: split in two
    i = 1
    while c[i] == x:
        i += 1
    return join(_witness(c[: i + 1]), _witness(c[i + 1:]))


# ---------- Trichotomy ----------

POSITIVE_RIGID = "PositiveRigid"
NEGATIVE_RIGID = "NegativeRigid"
FLEXIBLE = "Flexible"
UNACCEPTABLE = "Unacceptable"


def classify_vector(c: Sequence[Color]) -> str:
    """Class of the vector, uniform over every tree for which it is valid."""
    _check_entries(c)
    if len(set(c)) <= 1 or vector_sum(c) == 0:
        return UNACCEPTABLE
    total = vector_sum(c)
    if total == 2:
        perm = {1: 3, 3: 2, 2: 1}
    elif total == 3:
        perm = {1: 2, 2: 3, 3: 1}
    else:
        perm = {1: 1, 2: 2, 3: 3}
    d = [perm[x] for x in c]
    acc = 0
    prefix_sums = set()
    for x in d[:-1]:
        acc ^= x
        prefix_sums.add(acc)
    if 3 not in prefix_sums:
        return POSITIVE_RIGID
    if 2 not in prefix_sums:
        return NEGATIVE_RIGID
    return FLEXIBLE


def is_rigid(c: Sequence[Color]) -> bool:
    return classify_vector(c) in (POSITIVE_RIGID, NEGATIVE_RIGID)


# ---------- Enumeration of colorings ----------


def sign_order(T: BinaryTree) -> list[Address]:
    """Internal vertices in sign-bit order: the non-root ones sorted, then the root.

    A sign assignment is an int whose bit i is set iff vertex i of this order
    is negative.  The root is the last bit, so the normalized assignments
    (positive topmost sign) are the ints below 2^(n-1).
    """
    return sorted(T.internal, key=lambda v: (v == "", v))


def vectors_from_sign_bits(T: BinaryTree, assignments: Iterable[int]) -> list[ColorVector]:
    """The root-color-1 vector of each sign assignment, as bits over sign_order(T)."""
    order = sign_order(T)
    lv = leaves(T)
    out = []
    for bits in assignments:
        e = coloring_from_sign(T, {v: not bits >> i & 1 for i, v in enumerate(order)}, 1)
        out.append(tuple(e[v] for v in lv))
    return out


def normalized_colorings(T: BinaryTree) -> list[ColorVector]:
    """The 2^(n-1) vectors with root color 1 and positive topmost sign."""
    if not T.internal:
        return [(1,)]
    out = vectors_from_sign_bits(T, range(1 << (T.carets - 1)))
    out.sort()
    return out


def colorings_of_pair(p: TreePair) -> list[ColorVector]:
    """Normalized vectors valid for both trees of the pair."""
    return [c for c in normalized_colorings(p.d) if is_valid(p.r, c)]


# ---------- Patterns ----------

Pattern = Callable[[Address], bool]


def pattern_rigid(v: Address) -> bool:
    """Sign alternating with depth; positive at even depth."""
    return len(v) % 2 == 0


def pattern_positive(v: Address) -> bool:
    return True


def shift_pattern(P: Pattern, u: Address) -> Pattern:
    return lambda v: P(u + v)


def pattern_eval(P: Pattern, v: Address) -> bool:
    return P(v)


def pattern_coloring(P: Pattern, T: BinaryTree) -> ColorVector:
    s = {v: P(v) for v in T.internal}
    e = coloring_from_sign(T, s, 1)
    return vector_from_edge_coloring(T, e)


def is_pattern_compatible(p: TreePair, P: Pattern) -> bool:
    return pattern_coloring(P, p.d) == pattern_coloring(P, p.r)


# ---------- Interval machinery shared with the zero-set analyses ----------


def zero_intervals(c: Sequence[Color]) -> set[tuple[int, int]]:
    """1-based intervals of length >= 2 whose entries XOR to zero."""
    n = len(c)
    pre = [0]
    for x in c:
        pre.append(pre[-1] ^ x)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if pre[j] ^ pre[i - 1] == 0
    }


def valid_trees(c: Sequence[Color], trees: Iterable[BinaryTree]) -> list[BinaryTree]:
    """Filter trees by validity using shadow patterns against zero intervals."""
    from .trees import shadow_pattern

    _check_entries(c)
    if vector_sum(c) == 0:
        return []
    bad = zero_intervals(c)
    out = []
    for T in trees:
        if T.leaf_count < 2:
            out.append(T)
            continue
        if not (shadow_pattern(T) & bad):
            out.append(T)
    return out
