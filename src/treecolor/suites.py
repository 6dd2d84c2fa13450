"""Named verification suites: each runs an exhaustive sweep of one of the
package's structural claims and raises AssertionError on any violation.
Shared between the test suite and the ``verify`` CLI command."""

from __future__ import annotations

from itertools import product
from typing import Callable

from . import assoc, coloring, enumeration, maps, paths, thompson, trees


def suite_catalan(max_n: int = 10) -> str:
    want = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for n in range(min(max_n, 10) + 1):
        got = len(trees.all_trees(n))
        assert got == want[n], f"tree count at {n}: {got} != {want[n]}"
    return f"tree counts match through n={min(max_n, 10)}"


def suite_acceptability(max_len: int = 7) -> str:
    cache = {n: trees.all_trees(n) for n in range(1, max_len)}
    checked = 0
    for L in range(2, max_len + 1):
        for c in product((1, 2, 3), repeat=L):
            acc = coloring.is_acceptable(c)
            brute = any(coloring.is_valid(T, c) for T in cache.setdefault(L - 1, trees.all_trees(L - 1)))
            assert acc == brute, f"acceptability mismatch at {c}"
            w = coloring.acceptable_witness(c)
            if acc:
                assert w is not None and coloring.is_valid(w, c), f"bad witness for {c}"
            else:
                assert w is None
            checked += 1
    return f"{checked} vectors checked to length {max_len}"


def suite_trichotomy(max_len: int = 7) -> str:
    checked = 0
    for L in range(2, max_len + 1):
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
    return f"{checked} acceptable vectors classified to length {max_len}"


def _is_alternating(T: trees.BinaryTree, signs: dict) -> bool:
    return all(
        signs[v] != signs[v + b]
        for v in T.internal
        for b in "01"
        if v + b in T.internal
    )


def suite_balance(max_symbols: int = 4, max_addr: int = 2, sample: int = 400) -> str:
    """Balance of the sign structure matches brute-force sign existence and
    the compatible-coloring count is 2^(p-1), on sampled words."""
    import random

    rng = random.Random(7)
    addrs = [""] + ["".join(bits) for L in range(1, max_addr + 1) for bits in product("01", repeat=L)]
    syms = [thompson.RotationSymbol(a, i) for a in addrs for i in (False, True)]
    pool = [T for n in range(1, 6) for T in trees.all_trees(n)]
    checked = 0
    for _ in range(sample):
        w = tuple(rng.choice(syms) for _ in range(rng.randint(1, max_symbols)))
        start = None
        for T in pool:
            try:
                thompson.path_evaluate(T, w)
            except Exception:
                continue
            start = T
            break
        if start is None:
            continue
        bal, p = paths.is_balanced(paths.sign_structure(w))
        got = len(paths.compatible_colorings(w, start))
        want = 2 ** (p - 1) if bal else 0
        assert got == want, (thompson.format_word(w), got, want)
        checked += 1
    return f"{checked} sampled words verified"


def suite_primality(max_carets: int = 5) -> str:
    checked = 0
    for n in range(1, max_carets + 1):
        for d in trees.all_trees(n):
            for r in trees.all_trees(n):
                p = thompson.TreePair(d, r)
                interval_test = maps.is_prime(p)
                oracle = not maps.has_parallel_edges(maps.pair_to_dual(p))
                assert interval_test == oracle, p
                checked += 1
    return f"{checked} pairs cross-checked"


def suite_factor_law(max_carets: int = 5) -> str:
    checked = 0
    for n in range(2, max_carets + 1):
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


def suite_counts(max_n: int = 8) -> str:
    for n in range(1, max_n + 1):
        assert enumeration.count_acceptable(n) == enumeration.brute_acceptable(n), n
        assert enumeration.count_rigid(n) == enumeration.brute_rigid(n), n
    s = 0
    for n in range(1, 13):
        s += enumeration.jacobsthal(n)
        assert enumeration.count_rigid(n) == s, n
    return f"recurrences match brute force to n={max_n}"


def suite_chromatic(max_n: int = 10) -> str:
    for fam, lo in [("W", 6), ("Theta", 6), ("Xi", 7), ("Y", 6), ("Nabla", 8)]:
        for n in range(lo, max_n + 1):
            got = maps.count_vertex_colorings(maps.family(fam, n), 4)
            assert got == 24 * maps.closed_form(fam, n), (fam, n)
    return f"five families verified to n={max_n}"


def suite_prime_sigma(max_symbols: int = 5, sample: int = 600) -> str:
    """If the path from the support tree ends at a prime pair, the sign
    structure is connected."""
    import random

    import networkx as nx

    from .errors import PivotMissing

    rng = random.Random(11)
    addrs = ["", "0", "1", "00", "01", "10", "11"]
    syms = [thompson.RotationSymbol(a, i) for a in addrs for i in (False, True)]
    checked = 0
    for _ in range(sample):
        w = tuple(rng.choice(syms) for _ in range(rng.randint(2, max_symbols)))
        ss = paths.sign_structure(w)
        T = ss.support
        if T.carets < 2:
            continue
        try:
            end = thompson.path_evaluate(T, w)[-1]
        except PivotMissing:
            continue
        if not maps.is_prime(thompson.TreePair(T, end)):
            continue
        g = nx.Graph()
        g.add_nodes_from(T.internal)
        g.add_edges_from((a, b) for a, b, _ in ss.edges)
        assert nx.is_connected(g), thompson.format_word(w)
        checked += 1
    return f"{checked} prime-endpoint words have connected structures"


def suite_zero_sets(max_len: int = 7) -> str:
    checked = 0
    for L in range(2, max_len + 1):
        for c in product((1, 2, 3), repeat=L):
            z = coloring.zero_intervals(c)
            for a, b in z:
                assert (a, b + 1) not in z, c
                for b2 in range(b + 2, L + 1):
                    if (b + 1, b2) in z:
                        assert (a, b2) in z, c
            checked += 1
    return f"closure rules hold for {checked} vectors"


SUITES: dict[str, Callable[..., str]] = {
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
