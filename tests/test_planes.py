"""Tests for the GF(4) bit-plane colourings: normalized colourings and pair
colourings are compared with per-vector references that build one edge
colouring dict per sign assignment, and the caret limit is checked before
any plane is built."""

from __future__ import annotations

import random

import pytest

from treecolor import coloring
from treecolor.coloring import (
    PLANE_MAX_CARETS,
    coloring_from_sign,
    colorings_of_pair,
    is_valid,
    normalized_colorings,
    sign_order,
    vectors_from_sign_bits,
)
from treecolor.errors import LengthMismatch, OutOfRange, TooLarge
from treecolor.thompson import TreePair
from treecolor.trees import all_trees, leaves, right_vine

# ---------- the references: one edge-colouring dict per sign assignment ----------


def ref_vectors_from_sign_bits(T, assignments):
    order = sign_order(T)
    lv = leaves(T)
    out = []
    for bits in assignments:
        e = coloring_from_sign(T, {v: not bits >> i & 1 for i, v in enumerate(order)}, 1)
        out.append(tuple(e[v] for v in lv))
    return out


def ref_colorings_of_pair(p):
    return [c for c in normalized_colorings(p.d) if is_valid(p.r, c)]


# ---------- normalized colourings ----------


@pytest.mark.parametrize("carets", range(0, 8))
def test_normalized_colorings_match_reference(carets):
    for T in all_trees(carets):
        every = range(1 << max(carets - 1, 0))
        assert normalized_colorings(T) == sorted(ref_vectors_from_sign_bits(T, every))


def test_vectors_from_sign_bits_match_reference():
    rng = random.Random(3)
    for carets in range(0, 8):
        for T in all_trees(carets):
            bits = [rng.randrange(1 << max(carets - 1, 0)) for _ in range(5)]
            assert vectors_from_sign_bits(T, bits) == ref_vectors_from_sign_bits(T, bits)


def test_vectors_from_sign_bits_rejects_a_negative_root():
    T = right_vine(3)
    assert vectors_from_sign_bits(T, [3]) == ref_vectors_from_sign_bits(T, [3])
    assert vectors_from_sign_bits(T, []) == []
    for bad in ([4], [0, 5], [-1]):  # bit 2 is the root's
        with pytest.raises(OutOfRange):
            vectors_from_sign_bits(T, bad)


# ---------- pair colourings ----------


def test_colorings_of_pair_match_reference_through_five_carets():
    for carets in range(0, 6):
        ts = all_trees(carets)
        for d in ts:
            for r in ts:
                p = TreePair(d, r)
                assert colorings_of_pair(p) == ref_colorings_of_pair(p), p


def test_colorings_of_pair_match_reference_on_a_sample_of_six_to_eight_carets():
    rng = random.Random(17)
    for carets in (6, 7, 8):
        ts = all_trees(carets)
        for _ in range(300):
            d = rng.choice(ts)
            # one pair in ten repeats its tree, so that every colouring survives
            r = d if rng.random() < 0.1 else rng.choice(ts)
            p = TreePair(d, r)
            assert colorings_of_pair(p) == ref_colorings_of_pair(p), p


def test_colorings_of_pair_length_mismatch_as_reference():
    # a pair with unequal leaf counts is refused when it is built, directly or
    # from JSON, so colorings_of_pair never sees one
    for a in range(0, 4):
        for b in range(0, 4):
            if a == b:
                continue
            message = rf"^leaf counts differ: {a + 1} != {b + 1}$"
            for d in all_trees(a):
                for r in all_trees(b):
                    with pytest.raises(LengthMismatch, match=message):
                        TreePair(d, r)
                    with pytest.raises(LengthMismatch, match=message):
                        TreePair.from_json({"d": d.to_json(), "r": r.to_json()})


# ---------- the caret limit ----------


def test_plane_limit_is_checked_before_any_plane(monkeypatch):
    def boom(k):
        raise AssertionError("plane masks built before the caret check")

    monkeypatch.setattr(coloring, "_sign_masks", boom)
    big = right_vine(PLANE_MAX_CARETS + 1)
    for call in (
        lambda: normalized_colorings(big),
        lambda: vectors_from_sign_bits(big, [0]),
        lambda: colorings_of_pair(TreePair(big, big)),
    ):
        with pytest.raises(TooLarge, match=f"limited to {PLANE_MAX_CARETS} carets"):
            call()
