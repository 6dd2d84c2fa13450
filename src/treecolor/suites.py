"""Named verification suites: each runs an exhaustive sweep of one of the
package's structural claims and raises AssertionError on any violation.
Shared between the test suite and the ``verify`` CLI command."""

from __future__ import annotations

import random
from itertools import product
from typing import Callable

from . import assoc, coloring, enumeration, maps, paths, thompson, trees

# the rotation symbols the sampled-word suites draw from: pivots of <= 2 bits
_SYMBOLS = [thompson.RotationSymbol(a, i) for a in ("", "0", "1", "00", "01", "10", "11")
            for i in (False, True)]


def suite_catalan() -> str:
    want = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for n, count in enumerate(want):
        got = len(trees.all_trees(n))
        assert got == count, f"tree count at {n}: {got} != {count}"
    return "tree counts match through n=10"


def suite_acceptability() -> str:
    checked = 0
    for L in range(2, 8):
        ts = trees.all_trees(L - 1)
        for c in product((1, 2, 3), repeat=L):
            acc = coloring.is_acceptable(c)
            brute = any(coloring.is_valid(T, c) for T in ts)
            assert acc == brute, f"acceptability mismatch at {c}"
            w = coloring.acceptable_witness(c)
            if acc:
                assert w is not None and coloring.is_valid(w, c), f"bad witness for {c}"
            else:
                assert w is None
            checked += 1
    return f"{checked} vectors checked to length 7"


def suite_trichotomy() -> str:
    checked = 0
    for L in range(2, 8):
        for c in product((1, 2, 3), repeat=L):
            g = assoc.color_graph(c)
            cls = coloring.classify_vector(c)
            if cls == coloring.UNACCEPTABLE:
                assert not g.vertices, c
                continue
            assert g.vertices, c
            assert assoc.is_connected_or_edgeless(g), c
            if cls in (coloring.POSITIVE_RIGID, coloring.NEGATIVE_RIGID):
                assert not g.edges, (c, cls)
            # uniformity: the per-tree sign behavior matches the class
            for T in g.vertices[:4]:
                signs = coloring.signs_of(T, c)
                rigid_here = _is_alternating(T, signs)
                assert rigid_here == (cls != coloring.FLEXIBLE), (c, T.to_text())
            checked += 1
    return f"{checked} acceptable vectors classified to length 7"


def _is_alternating(T: trees.BinaryTree, signs: dict) -> bool:
    return all(
        signs[v] != signs[v + b]
        for v in T.internal
        for b in "01"
        if v + b in T.internal
    )


def suite_balance() -> str:
    """Balance of the sign structure matches brute-force sign existence and
    the compatible-coloring count is 2^(p-1), on sampled words."""
    rng = random.Random(7)
    pool = [T for n in range(1, 6) for T in trees.all_trees(n)]
    checked = 0
    for _ in range(400):
        w = tuple(rng.choice(_SYMBOLS) for _ in range(rng.randint(1, 4)))
        ss = paths.sign_structure(w)
        # w walks from T iff T contains its support
        start = next((T for T in pool if ss.support.internal <= T.internal), None)
        if start is None:
            continue
        bal, p = paths.is_balanced(ss)
        got = len(paths.compatible_colorings(w, start))
        want = 2 ** (p - 1) if bal else 0
        assert got == want, (thompson.format_word(w), got, want)
        checked += 1
    return f"{checked} sampled words verified"


def suite_primality() -> str:
    checked = 0
    for n in range(1, 6):
        for d in trees.all_trees(n):
            for r in trees.all_trees(n):
                p = thompson.TreePair(d, r)
                interval_test = maps.is_prime(p)
                oracle = not maps.has_parallel_edges(maps.pair_to_dual(p))
                assert interval_test == oracle, p
                checked += 1
    return f"{checked} pairs cross-checked"


def suite_factor_law() -> str:
    checked = 0
    for n in range(2, 6):
        for d in trees.all_trees(n):
            for r in trees.all_trees(n):
                p = thompson.reduce(thompson.TreePair(d, r))
                if p.d.carets != n:
                    continue
                fac = maps.prime_factorization(p)
                prod = 1
                for f in fac:
                    prod *= len(coloring.colorings_of_pair(f))
                law = 2 ** (len(fac) - 1) * prod
                direct = len(coloring.colorings_of_pair(p))
                assert law == direct, (p, law, direct)
                checked += 1
    return f"{checked} reduced pairs obey the factor count law"


def suite_counts() -> str:
    for n in range(1, 9):
        assert enumeration.count_acceptable(n) == enumeration.brute_acceptable(n), n
        assert enumeration.count_rigid(n) == enumeration.brute_rigid(n), n
    s = 0
    for n in range(1, 13):
        s += enumeration.jacobsthal(n)
        assert enumeration.count_rigid(n) == s, n
    return "recurrences match brute force to n=8"


def suite_chromatic() -> str:
    for fam, lo in [("W", 6), ("Theta", 6), ("Xi", 7), ("Y", 6), ("Nabla", 8)]:
        for n in range(lo, 11):
            got = maps.count_vertex_colorings(maps.family(fam, n), 4)
            assert got == 24 * maps.closed_form(fam, n), (fam, n)
    return "five families verified to n=10"


def suite_prime_sigma() -> str:
    """If the path from the support tree ends at a prime pair, the sign
    structure is connected."""
    rng = random.Random(11)
    checked = 0
    for _ in range(600):
        w = tuple(rng.choice(_SYMBOLS) for _ in range(rng.randint(2, 5)))
        ss = paths.sign_structure(w)
        T = ss.support
        end = thompson.path_evaluate(T, w)[-1]  # every word walks from its support
        if not maps.is_prime(thompson.TreePair(T, end)):
            continue
        assert paths.is_balanced(ss)[1] == 1, thompson.format_word(w)  # one component
        checked += 1
    return f"{checked} prime-endpoint words have connected structures"


def suite_zero_sets() -> str:
    checked = 0
    for L in range(2, 8):
        for c in product((1, 2, 3), repeat=L):
            z = coloring.zero_intervals(c)
            for a, b in z:
                assert (a, b + 1) not in z, c
                for b2 in range(b + 2, L + 1):
                    if (b + 1, b2) in z:
                        assert (a, b2) in z, c
            checked += 1
    return f"closure rules hold for {checked} vectors"


SUITES: dict[str, Callable[[], str]] = {
    "catalan": suite_catalan,
    "acceptability": suite_acceptability,
    "trichotomy": suite_trichotomy,
    "balance": suite_balance,
    "primality": suite_primality,
    "factor-law": suite_factor_law,
    "counts": suite_counts,
    "chromatic": suite_chromatic,
    "prime-sigma": suite_prime_sigma,
    "zero-sets": suite_zero_sets,
}
