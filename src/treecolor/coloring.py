"""Colors in Z2 x Z2, color vectors, induced edge colorings, sign assignments,
acceptability and rigidity classification, and pattern machinery.

Colors are coded 0..3 with XOR as addition (so 1+2=3 and every color is its
own inverse).  A color vector assigns one color per leaf in left-right order;
it induces a unique edge coloring with zero-sum at every caret.

The codes 1, 2, 3 are also 1, w, w^2 in GF(4), whose additive group is
Z2 x Z2.  A code is a pair of bits (h, l) = (code >> 1, code & 1), and the
successor map 1 -> 2 -> 3 -> 1 is multiplication by w, which is linear over
GF(2): (h, l) -> (h ^ l, h); multiplication by w^2 is (h, l) -> (l, h ^ l).
So all 2^(n-1) normalized colorings of an n-caret tree are computed at once
as bit planes: one pair of 2^(n-1)-bit ints (h, l) per edge, whose bit s
belongs to sign assignment s (see sign_order).
"""

from __future__ import annotations

from functools import lru_cache, reduce as _reduce
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import (
    ImproperColoring,
    LengthMismatch,
    OutOfRange,
    TooLarge,
    TooShort,
    ZeroEntry,
    ZeroRoot,
)
from .trees import PLANE_MAX_CARETS, Address, BinaryTree, _spans, leaves

if TYPE_CHECKING:
    from .thompson import TreePair

Color = int
ColorVector = tuple[Color, ...]

_SUCC = {1: 2, 2: 3, 3: 1}
_POSITIVE = {(a, _SUCC[a], _SUCC[_SUCC[a]]) for a in _SUCC}


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
    # postorder ("2" sorts after both bits), so the keys keep their order:
    # leaves left to right, then each caret after its subtree
    for v in sorted(T.internal, key=lambda v: v + "2"):
        e[v] = e[v + "0"] ^ e[v + "1"]
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
    for v in sorted(T.internal):  # v before both children
        a = e[v]
        if s[v]:
            e[v + "0"], e[v + "1"] = _SUCC[a], _SUCC[_SUCC[a]]
        else:
            e[v + "0"], e[v + "1"] = _SUCC[_SUCC[a]], _SUCC[a]
    return e


def vector_from_edge_coloring(T: BinaryTree, e: dict[Address, Color]) -> ColorVector:
    return tuple(e[v] for v in leaves(T))


def signs_of(T: BinaryTree, c: Sequence[Color]) -> dict[Address, bool]:
    return sign_assignment_from_coloring(T, edge_coloring_from_vector(T, c))


# ---------- Acceptability ----------


def _check_entries(c: Sequence[Color]) -> None:
    if any(x not in (1, 2, 3) for x in c):
        raise ZeroEntry("entries must lie in {1,2,3}")


def _acceptable_sum(c: Sequence[Color]) -> Color:
    """The sum of c if some tree makes c valid, else 0: the sum (the root's
    interval) must be nonzero, a constant c sums to zero under any caret
    over two leaves, and every other c has a witness tree (_witness)."""
    total = vector_sum(c)
    return total if total and len(set(c)) > 1 else 0


def is_acceptable(c: Sequence[Color]) -> bool:
    """True iff some tree makes the vector valid: non-constant with nonzero sum."""
    _check_entries(c)
    if len(c) < 2:
        raise TooShort("vector must have length at least 2")
    return _acceptable_sum(c) != 0


def acceptable_witness(c: Sequence[Color]) -> BinaryTree | None:
    """A tree for which the vector is valid, or None if unacceptable."""
    if not is_acceptable(c):
        return None
    return _witness(tuple(c))


def _witness(c: ColorVector) -> BinaryTree:
    """Each task places the witness for an acceptable subvector below an address."""
    internal: list[Address] = []
    todo = [(c, "")]
    while todo:
        c, addr = todo.pop()
        n = len(c)
        x = c[0]
        if all(v == x for v in c[:-1]):
            internal.extend(addr + "1" * i for i in range(n - 1))  # right vine
        elif all(v == c[1] for v in c[1:]):
            internal.extend(addr + "0" * i for i in range(n - 1))  # left vine
        else:
            internal.append(addr)
            if vector_sum(c) != x:
                # the first entry hangs off this caret beside the witness for the rest
                todo.append((c[1:], addr + "1"))
            elif c[-1] != x:
                todo.append((c[:-1], addr + "0"))
            else:
                # sum and last entry both equal the leading run's color: split in two
                i = 1
                while c[i] == x:
                    i += 1
                todo += ((c[i + 1:], addr + "1"), (c[: i + 1], addr + "0"))
    return BinaryTree(internal)


# ---------- Trichotomy ----------

POSITIVE_RIGID = "PositiveRigid"
NEGATIVE_RIGID = "NegativeRigid"
FLEXIBLE = "Flexible"
UNACCEPTABLE = "Unacceptable"


def classify_vector(c: Sequence[Color]) -> str:
    """Class of the vector, uniform over every tree for which it is valid."""
    _check_entries(c)
    total = _acceptable_sum(c)
    if not total:
        return UNACCEPTABLE
    # scaling c to sum 1 divides each prefix sum by total, so seek w^2*total, w*total
    acc = 0
    prefix_sums = set()
    for x in c[:-1]:
        acc ^= x
        prefix_sums.add(acc)
    if _SUCC[_SUCC[total]] not in prefix_sums:
        return POSITIVE_RIGID
    if _SUCC[total] not in prefix_sums:
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


@lru_cache(maxsize=None)
def _sign_masks(k: int) -> tuple[int, ...]:
    """Mask i has bit s set iff bit i of s is set, for s below 2^k."""
    out = []
    for i in range(k):
        width = 2 << i
        m = ((1 << (1 << i)) - 1) << (1 << i)  # 2^i clear bits, then 2^i set
        while width < 1 << k:
            m |= m << width
            width *= 2
        out.append(m)
    return tuple(out)


def check_plane_size(T: BinaryTree) -> None:
    """Refuse the 2^(n-1) normalized colorings of a tree over PLANE_MAX_CARETS."""
    if T.carets > PLANE_MAX_CARETS:
        raise TooLarge(f"colorings limited to {PLANE_MAX_CARETS} carets, got {T.carets}")


def leaf_planes(T: BinaryTree) -> list[tuple[int, int]]:
    """Every normalized coloring of T at once: (h, l) per leaf, left to right.

    Bit s of h and of l are the high and low bit of the leaf's color under
    sign assignment s, an int below 2^(n-1) over sign_order(T).  The root
    edge has color 1; below each caret the left edge gets w times the color
    above it if the caret is positive and w^2 times it if negative, and the
    right edge gets the sum of the two.
    """
    check_plane_size(T)
    k = max(T.carets - 1, 0)
    order = sorted(T.internal)  # v before both children
    # sign_order(T) is order[1:] and then the root, which stays positive
    negative = dict(zip(order[1:], _sign_masks(k)))
    planes = {"": (0, (1 << (1 << k)) - 1)}
    for v in order:
        h, l = planes.pop(v)
        m = negative.get(v, 0)
        # w*(h, l) = (h ^ l, h), and w*a ^ w^2*a = a, so masking a by m
        # turns w into w^2 exactly where v is negative
        h0, l0 = h ^ l ^ (h & m), h ^ (l & m)
        planes[v + "0"] = (h0, l0)
        planes[v + "1"] = (h ^ h0, l ^ l0)
    return [planes[v] for v in sorted(planes)]  # only the leaves are left


def _read_vectors(planes: list[tuple[int, int]], assignments: Iterable[int]) -> list[ColorVector]:
    """The vector of each sign assignment, read off the leaf planes."""
    return [tuple((h >> s & 1) << 1 | l >> s & 1 for h, l in planes) for s in assignments]


def vectors_from_sign_bits(T: BinaryTree, assignments: Iterable[int]) -> list[ColorVector]:
    """The root-color-1 vector of each normalized sign assignment, as bits
    over sign_order(T): ints below 2^(n-1), so the root is positive."""
    assignments = list(assignments)
    if not assignments:
        return []  # nothing to read, so no planes
    if not 0 <= min(assignments) <= max(assignments) < 1 << max(T.carets - 1, 0):
        raise OutOfRange("sign assignment with a negative root or out of range")
    return _read_vectors(leaf_planes(T), assignments)


def normalized_colorings(T: BinaryTree) -> list[ColorVector]:
    """The 2^(n-1) vectors with root color 1 and positive topmost sign."""
    out = _read_vectors(leaf_planes(T), range(1 << max(T.carets - 1, 0)))
    out.sort()
    return out


def prefix_planes(planes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """P[j] = sum of leaves 1..j, so interval (lo, hi) sums to P[hi] ^ P[lo-1]."""
    out = [(0, 0)]
    for h, l in planes:
        ph, pl = out[-1]
        out.append((ph ^ h, pl ^ l))
    return out


def nonzero_mask(pre: list[tuple[int, int]], lo: int, hi: int) -> int:
    """The assignments on which leaves lo..hi sum to a nonzero color."""
    (ah, al), (bh, bl) = pre[lo - 1], pre[hi]
    return (ah ^ bh) | (al ^ bl)


def colorings_of_pair(p: TreePair) -> list[ColorVector]:
    """Normalized vectors of p.d valid for p.r, in increasing order.

    A vector is valid for R iff every shadow interval of R sums to a nonzero
    color; the interval of R's root sums to the root color 1 and a leaf to
    its own color, so only R's other carets can fail.
    """
    planes = leaf_planes(p.d)
    pre = prefix_planes(planes)
    ok = pre[-1][1]  # the leaves sum to the root color 1, (0, every assignment)
    spans = _spans(p.r)
    for v in p.r.internal:
        if v:
            ok &= nonzero_mask(pre, *spans[v])
    survivors = []
    while ok:
        low = ok & -ok
        survivors.append(low.bit_length() - 1)
        ok ^= low
    out = _read_vectors(planes, survivors)
    out.sort()
    return out


# ---------- Patterns ----------

Pattern = Callable[[Address], bool]


def pattern_rigid(v: Address) -> bool:
    """Sign alternating with depth; positive at even depth."""
    return len(v) % 2 == 0


def pattern_positive(v: Address) -> bool:
    return True


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
