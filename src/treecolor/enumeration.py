"""Counting machinery: linear recurrences with constant term, the acceptable /
rigid / flexible vector counts, extremal coloring-count searches over prime
pairs, and zero-set size extremes."""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from .errors import BoundExceeded, OutOfRange, TooSmall
from .coloring import (
    UNACCEPTABLE,
    classify_vector,
    is_rigid,
    leaf_planes,
    nonzero_mask,
    prefix_planes,
    zero_intervals,
)
from .thompson import TreePair
from .trees import skeleton

# 3^n vectors of length n+1: the brute counts at n = 12 took 2.5-3.6 s on 2 cores
VECTORS_MAX_N = 12
# Catalan(carets)^2 pairs: max_coloring_search(11), over 9 carets, took 8.3-11.7 s on 2 cores
PAIR_COUNTS_MAX_CARETS = 9


class RecurrenceSpec(NamedTuple):
    p: int
    q: int
    k: int
    a: int  # t(0)
    b: int  # t(1)


ACCEPTABLE = RecurrenceSpec(2, 3, 1, 0, 1)  # c(n), counts mod color symmetry
RIGID_SHIFTED = RecurrenceSpec(1, 2, 1, 1, 2)  # t(n) = r(n+1)


def recurrence(spec: RecurrenceSpec, n: int) -> int:
    if n < 0:
        raise TooSmall("index must be >= 0")
    if n == 0:
        return spec.a
    prev, cur = spec.a, spec.b
    for _ in range(n - 1):
        prev, cur = cur, spec.p * cur + spec.q * prev + spec.k
    return cur


def jacobsthal(n: int) -> int:
    if n < 0:
        raise TooSmall("index must be >= 0")
    return (2**n - (-1) ** n) // 3


def count_acceptable(n: int) -> int:
    """Acceptable vectors of length n+1, modulo renaming the three colors."""
    return recurrence(ACCEPTABLE, n)


def count_rigid(n: int) -> int:
    if n < 1:
        raise TooSmall("index must be >= 1")
    return recurrence(RIGID_SHIFTED, n - 1)


def count_flexible(n: int) -> int:
    return count_acceptable(n) - count_rigid(n)


# ---------- Brute-force companions ----------


def _vectors(n: int) -> Iterator[tuple[int, ...]]:
    """Every length-(n+1) vector with leading color 1; n is held to
    VECTORS_MAX_N on the call, before any vector is built."""
    if n > VECTORS_MAX_N:
        raise BoundExceeded(f"n={n} exceeds bound {VECTORS_MAX_N}")
    return ((1,) + rest for rest in product((1, 2, 3), repeat=n))


def _brute_count(n: int, keep) -> int:
    """Length-(n+1) vectors passing keep, counted up to renaming colors.

    Fixing the leading color to 1 kills the 3-cycles; the leftover swap of
    the other two colors is quotiented directly.
    """
    seen = set()
    swap = {1: 1, 2: 3, 3: 2}
    for c in _vectors(n):
        if keep(c):
            seen.add(min(c, tuple(swap[x] for x in c)))
    return len(seen)


def brute_acceptable(n: int) -> int:
    """Acceptable length-(n+1) vectors counted up to renaming colors."""
    return _brute_count(n, lambda c: classify_vector(c) != UNACCEPTABLE)


def brute_rigid(n: int) -> int:
    """Rigid length-(n+1) vectors counted up to renaming colors."""
    return _brute_count(n, is_rigid)


# ---------- Extremal coloring counts over prime pairs ----------


class CountReport(NamedTuple):
    n: int  # vertex count of the dual triangulation
    entries: tuple  # ((count, witness TreePair), ...) decreasing, top 4


def pair_coloring_counts(carets: int):
    """(pair, normalized coloring count) for every prime pair of this size.

    Per tree D, every interval (lo, hi) gets the mask of D's normalized
    colorings on which it sums to a nonzero color; the count for R is the
    popcount of the AND of those masks over R's shadow intervals.  The size
    is held to PAIR_COUNTS_MAX_CARETS at the first next(), before any work:
    this stays a generator function, so a tracer can count what it yields.
    """
    if carets > PAIR_COUNTS_MAX_CARETS:
        raise BoundExceeded(f"carets={carets} exceeds bound {PAIR_COUNTS_MAX_CARETS}")
    sk = skeleton(carets)
    L = carets + 1
    # each tree's shadow intervals as positions in the interval_mask encoding
    shadows = [[b for b in range(L * L) if m >> b & 1] for m in sk.masks]
    for d, shadow_d in zip(sk.trees, sk.masks):
        pre = prefix_planes(leaf_planes(d))
        full = pre[-1][1]  # the leaves sum to the root color 1, (0, every assignment)
        nonzero = {
            (lo - 1) * L + hi - 1: nonzero_mask(pre, lo, hi)
            for lo in range(1, L + 1)
            for hi in range(lo + 1, L + 1)
        }
        for r, shadow_r, bits in zip(sk.trees, sk.masks, shadows):
            if shadow_d & shadow_r:
                continue  # not prime
            ok = full
            for b in bits:
                ok &= nonzero[b]
            yield TreePair(d, r), ok.bit_count()


def max_coloring_search(n: int, bound: int = 8) -> CountReport:
    """Largest distinct coloring counts over n-vertex dual triangulations.

    Sweeps every prime pair with n-2 carets; the dual of such a pair is a
    simple triangulation of the sphere on n vertices.  No bound lifts n
    past PAIR_COUNTS_MAX_CARETS + 2.
    """
    bound = min(bound, PAIR_COUNTS_MAX_CARETS + 2)
    if not 2 <= n <= bound:
        raise BoundExceeded(f"n={n} outside [2, {bound}]")
    best: dict[int, TreePair] = {}
    for p, count in pair_coloring_counts(n - 2):
        if count not in best:
            best[count] = p
    ranked = sorted(best.items(), reverse=True)[:4]
    return CountReport(n, tuple(ranked))


def conjectured_m(i: int, n: int) -> int:
    """Predicted formulas for the four largest counts; the first holds from
    n=5, the rest from n=7.  The third rank is defined as the top count one
    size down (its witness attaches a vertex to the smaller extremal map)."""
    def parity(e, o):
        return e if n % 2 == 0 else o

    if i == 1:
        if n < 5:
            raise OutOfRange("m1 estimated from n=5")
        return jacobsthal(n - 3) + parity(1, 0)
    if n < 7:
        raise OutOfRange("m2..m4 estimated from n=7")
    if i == 2:
        return jacobsthal(n - 4) + parity(7, 5)
    if i == 3:
        return conjectured_m(1, n - 1)
    if i == 4:
        return jacobsthal(n - 4) - parity(1, 2)
    raise OutOfRange("rank must be 1..4")


# ---------- Zero-set extremes ----------


def zero_set_extremes(n: int):
    """(max |Z|, min |Z|, max witness, min witness) over acceptable vectors
    of length n+1."""
    hi = lo = None
    hi_w = lo_w = None
    for c in _vectors(n):
        if classify_vector(c) == UNACCEPTABLE:
            continue
        z = len(zero_intervals(c))
        if hi is None or z > hi:
            hi, hi_w = z, c
        if lo is None or z < lo:
            lo, lo_w = z, c
    return hi, lo, hi_w, lo_w
