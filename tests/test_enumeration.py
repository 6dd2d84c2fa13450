"""Tests for the counting layer: recurrences, Jacobsthal numbers, brute-force
companions, extremal coloring searches and zero-set size extremes."""

from __future__ import annotations

import time

import pytest

from treecolor.coloring import zero_intervals
from treecolor.enumeration import (
    ACCEPTABLE,
    PAIR_COUNTS_MAX_CARETS,
    RIGID_SHIFTED,
    VECTORS_MAX_N,
    RecurrenceSpec,
    brute_acceptable,
    brute_rigid,
    conjectured_m,
    count_acceptable,
    count_flexible,
    count_rigid,
    jacobsthal,
    max_coloring_search,
    pair_coloring_counts,
    recurrence,
    zero_set_extremes,
)
from treecolor.errors import BoundExceeded, OutOfRange, TooSmall
from treecolor.maps import is_prime

JACOBSTHAL = RecurrenceSpec(1, 2, 0, 0, 1)


# ---------- recurrences ----------


def test_jacobsthal_sequence():
    assert [jacobsthal(n) for n in range(9)] == [0, 1, 1, 3, 5, 11, 21, 43, 85]


def test_jacobsthal_matches_recurrence():
    for n in range(15):
        assert recurrence(JACOBSTHAL, n) == jacobsthal(n)


def test_recurrence_guard():
    with pytest.raises(TooSmall):
        recurrence(JACOBSTHAL, -1)
    for n in (-1, -2, -7):  # the closed form would give 0.0, 1.0, ...
        with pytest.raises(TooSmall, match="index must be >= 0"):
            jacobsthal(n)
    with pytest.raises(TooSmall):
        count_rigid(0)


def test_acceptable_counts():
    # first values of the class count and its split into rigid + flexible
    assert [count_acceptable(n) for n in range(1, 7)] == [1, 3, 10, 30, 91, 273]
    assert [count_rigid(n) for n in range(1, 7)] == [1, 2, 5, 10, 21, 42]
    for n in range(1, 10):
        assert count_acceptable(n) == count_rigid(n) + count_flexible(n)


def test_counts_match_brute_force():
    for n in range(1, 8):
        assert count_acceptable(n) == brute_acceptable(n)
        assert count_rigid(n) == brute_rigid(n)


def test_rigid_is_jacobsthal_partial_sum():
    total = 0
    for n in range(1, 13):
        total += jacobsthal(n)
        assert count_rigid(n) == total


def test_recurrence_spec_shapes():
    assert ACCEPTABLE.k == 1  # affine term present
    assert RIGID_SHIFTED.a == 1 and RIGID_SHIFTED.b == 2


# ---------- extremal searches ----------


def test_pair_coloring_counts_only_prime_pairs():
    for p, count in pair_coloring_counts(3):
        assert is_prime(p)
        assert count >= 0


def test_max_coloring_search_small():
    assert [c for c, _ in max_coloring_search(5).entries] == [1]
    assert [c for c, _ in max_coloring_search(6).entries] == [4, 1]
    assert [c for c, _ in max_coloring_search(7).entries] == [5, 4, 1]


def test_max_coloring_search_witnesses():
    rep = max_coloring_search(6)
    count, witness = rep.entries[0]
    hits = sum(
        1 for p, c in pair_coloring_counts(4) if c == count and p == witness
    )
    assert hits == 1


def test_max_coloring_search_bound():
    with pytest.raises(BoundExceeded):
        max_coloring_search(9)  # default bound is 8
    with pytest.raises(BoundExceeded):
        max_coloring_search(1)


# ---------- budgets ----------

OVER_BUDGET = {
    "brute_acceptable": lambda: brute_acceptable(VECTORS_MAX_N + 1),
    "brute_rigid": lambda: brute_rigid(VECTORS_MAX_N + 1),
    "zero_set_extremes": lambda: zero_set_extremes(VECTORS_MAX_N + 1),
    "pair_coloring_counts": lambda: next(pair_coloring_counts(PAIR_COUNTS_MAX_CARETS + 1)),
    # a bound above the cap does not lift it
    "max_coloring_search": lambda: max_coloring_search(
        PAIR_COUNTS_MAX_CARETS + 3, bound=PAIR_COUNTS_MAX_CARETS + 3
    ),
}


@pytest.mark.parametrize("name", OVER_BUDGET)
def test_budget_plus_one_raises_at_once(name):
    t0 = time.perf_counter()
    with pytest.raises(BoundExceeded):
        OVER_BUDGET[name]()
    assert time.perf_counter() - t0 < 0.1


# ---------- conjectured extreme counts ----------


def test_conjectured_m_values():
    assert conjectured_m(1, 5) == 1
    assert conjectured_m(1, 6) == 4
    assert conjectured_m(1, 7) == 5
    assert conjectured_m(1, 8) == 12
    assert conjectured_m(3, 8) == conjectured_m(1, 7)
    assert conjectured_m(4, 9) == jacobsthal(5) - 2


def test_conjectured_m_guards():
    with pytest.raises(OutOfRange):
        conjectured_m(1, 4)
    with pytest.raises(OutOfRange):
        conjectured_m(2, 6)
    with pytest.raises(OutOfRange):
        conjectured_m(5, 9)


# ---------- zero-set extremes ----------


def test_zero_set_extremes_small():
    hi, lo, hi_w, lo_w = zero_set_extremes(4)
    assert hi == len(zero_intervals(hi_w))
    assert lo == len(zero_intervals(lo_w))
    assert (hi, lo) == (4, 2)  # max is floor(16/4)


def test_zero_set_extremes_bound():
    with pytest.raises(BoundExceeded):
        zero_set_extremes(13)
