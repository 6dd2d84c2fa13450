"""The bridge to maps on surfaces: duals of tree pairs, primality and prime
factorization, the five named triangulation families with their 4-coloring
counts, leaf-permuted triples, and edge-numbering balance."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import OutOfRange, TooLarge, TooSmall
from .coloring import ColorVector, is_valid, normalized_colorings
from .thompson import TreePair
from .trees import (
    Address,
    BinaryTree,
    leaves,
    shadow_interval,
    shadow_pattern,
    subtree_at,
)

if TYPE_CHECKING:
    import networkx as nx

# networkx is imported inside the functions that build graphs, so importing the
# package (and the CLI commands that draw no graph) does not pay for it.


class Triangulation(NamedTuple):
    name: str
    graph: nx.Graph  # MultiGraph for duals of non-prime pairs

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()


class SphereMap(NamedTuple):
    graph: nx.MultiGraph  # cubic, from the pair glued leaf-to-leaf
    dual: Triangulation

    @property
    def face_count(self) -> int:
        return self.dual.n


class VTriple(NamedTuple):
    d: BinaryTree
    labels: tuple  # label carried by each leaf of r, left to right
    r: BinaryTree


# ---------- Duals and primality ----------


def pair_to_dual(p: TreePair) -> Triangulation:
    """Two triangulated polygons glued along the equator of the sphere."""
    L = p.d.leaf_count
    if L < 2 or p.r.leaf_count != L:
        raise TooSmall("pair must have at least 2 leaves on each side")
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(range(L + 1))
    for i in range(1, L + 1):
        g.add_edge(i - 1, i)
    g.add_edge(L, 0)
    for T in (p.d, p.r):
        for a, b in shadow_pattern(T):
            g.add_edge(a - 1, b)
    return Triangulation("dual", g)


def pair_to_map(p: TreePair) -> SphereMap:
    """The cubic map: both trees rooted on a common edge, leaves glued in order."""
    L = p.d.leaf_count
    if L < 2 or p.r.leaf_count != L:
        raise TooSmall("pair must have at least 2 leaves on each side")
    import networkx as nx

    g = nx.MultiGraph()
    for side, T in (("d", p.d), ("r", p.r)):
        for v in T.internal:
            g.add_node((side, v))
            if v:
                g.add_edge((side, v[:-1]), (side, v))
    g.add_edge(("d", ""), ("r", ""))
    dl, rl = leaves(p.d), leaves(p.r)
    for a, b in zip(dl, rl):
        g.add_edge(("d", a[:-1]), ("r", b[:-1]))
    return SphereMap(g, pair_to_dual(p))


def common_intervals(p: TreePair) -> set[tuple[int, int]]:
    if p.d.leaf_count < 2:
        return set()
    return set(shadow_pattern(p.d) & shadow_pattern(p.r))


def is_prime(p: TreePair) -> bool:
    """True iff the trees share no proper shadow interval (dual has no
    parallel edges)."""
    return not common_intervals(p)


def has_parallel_edges(t: Triangulation) -> bool:
    g = t.graph
    if not g.is_multigraph():
        return False
    return any(k > 0 for _, _, k in g.edges(keys=True))


def _vertex_with_shadow(T: BinaryTree, interval: tuple[int, int]) -> Address:
    for v in T.internal:
        if v and shadow_interval(T, v) == interval:
            return v
    raise OutOfRange(f"no vertex with shadow {interval}")


def prime_factorization(p: TreePair) -> list[TreePair]:
    """Split at common shadow intervals, innermost first, into prime factors.

    Matching exposed carets show up as width-one common intervals, so an
    unreduced pair simply contributes extra one-caret factors; the coloring
    count law holds either way.
    """
    common = common_intervals(p)
    if not common:
        return [p]
    a, b = min(common, key=lambda iv: (iv[1] - iv[0], iv[0]))
    u = _vertex_with_shadow(p.d, (a, b))
    v = _vertex_with_shadow(p.r, (a, b))
    inner = TreePair(subtree_at(p.d, u), subtree_at(p.r, v))
    outer = TreePair(
        BinaryTree(w for w in p.d.internal if not (w != u and w.startswith(u))),
        BinaryTree(w for w in p.r.internal if not (w != v and w.startswith(v))),
    )
    # the cut vertex itself becomes a leaf of the outer pair
    outer = TreePair(
        BinaryTree(w for w in outer.d.internal if w != u),
        BinaryTree(w for w in outer.r.internal if w != v),
    )
    return prime_factorization(inner) + prime_factorization(outer)


# ---------- The five triangulation families ----------


def biwheel(n: int) -> Triangulation:
    """Suspension of an (n-2)-cycle: two apexes joined to every cycle vertex."""
    if n < 5:
        raise TooSmall("biwheel needs at least 5 vertices")
    import networkx as nx

    g = nx.Graph()
    cyc = list(range(2, n))
    g.add_edges_from((cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
    for apex in (0, 1):
        g.add_edges_from((apex, c) for c in cyc)
    return Triangulation("W", g)


def _split_cycle_vertex(base: nx.Graph, n_base: int, parts: int) -> nx.Graph:
    """Replace cycle vertex 2 of a biwheel with a fan of new vertices, each
    joined to both cycle neighbors; the apexes attach at the fan's ends."""
    g = base.copy()
    a, b = 0, 1
    d = 2
    c, e = n_base - 1, 3  # cycle neighbors of d
    g.remove_node(d)
    new = list(range(n_base, n_base + parts))
    for x in new:
        g.add_edge(x, c)
        g.add_edge(x, e)
    for x, y in zip(new, new[1:]):
        g.add_edge(x, y)
    g.add_edge(a, new[0])
    g.add_edge(b, new[-1])
    return g


def theta(n: int) -> Triangulation:
    if n < 6:
        raise TooSmall("theta needs at least 6 vertices")
    base = biwheel(n - 1)
    return Triangulation("Theta", _split_cycle_vertex(base.graph, n - 1, 2))


def xi(n: int) -> Triangulation:
    if n < 7:
        raise TooSmall("xi needs at least 7 vertices")
    base = biwheel(n - 2)
    return Triangulation("Xi", _split_cycle_vertex(base.graph, n - 2, 3))


def y_family(n: int) -> Triangulation:
    """Biwheel with one triangle subdivided by a degree-3 vertex."""
    if n < 6:
        raise TooSmall("y needs at least 6 vertices")
    g = biwheel(n - 1).graph.copy()
    new = n - 1
    for corner in (0, 2, 3):
        g.add_edge(new, corner)
    return Triangulation("Y", g)


def nabla(n: int) -> Triangulation:
    """Biwheel with a nested triangle inside one face."""
    if n < 8:
        raise TooSmall("nabla needs at least 8 vertices")
    g = biwheel(n - 3).graph.copy()
    a, c, e = 0, 2, 3  # corners of a face of the base
    p, q, r = n - 3, n - 2, n - 1
    g.add_edges_from([(p, q), (q, r), (r, p)])
    g.add_edges_from([(c, p), (p, e), (e, q), (q, a), (a, r), (r, c)])
    return Triangulation("Nabla", g)


FAMILIES = {
    "W": (biwheel, 5),
    "Theta": (theta, 6),
    "Xi": (xi, 7),
    "Y": (y_family, 6),
    "Nabla": (nabla, 8),
}


def family(name: str, n: int) -> Triangulation:
    if name not in FAMILIES:
        raise OutOfRange(f"unknown family {name!r}")
    return FAMILIES[name][0](n)


# ---------- Chromatic counting ----------


def count_vertex_colorings(g, k: int) -> int:
    """Exact number of proper vertex k-colorings (backtracking)."""
    if isinstance(g, Triangulation):
        g = g.graph
    import networkx as nx

    simple = nx.Graph(g)
    nodes = list(simple.nodes)
    if len(nodes) > 16:
        raise TooLarge("exact counter limited to 16 vertices")
    total = 1
    for comp in nx.connected_components(simple):
        total *= _count_component(simple.subgraph(comp), k)
    return total


def _count_component(g: nx.Graph, k: int) -> int:
    order = []
    remaining = set(g.nodes)
    # keep each new vertex adjacent to as many placed vertices as possible
    while remaining:
        best = max(
            remaining,
            key=lambda v: (sum(1 for u in g[v] if u in set(order)), g.degree(v), str(v)),
        )
        order.append(best)
        remaining.discard(best)
    back = [[order.index(u) for u in g[v] if order.index(u) < i] for i, v in enumerate(order)]
    colors = [0] * len(order)

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        used = {colors[j] for j in back[i]}
        total = 0
        for c in range(k):
            if c not in used:
                colors[i] = c
                total += rec(i + 1)
        return total

    return rec(0)


def closed_form(fam: str, n: int) -> int:
    """Predicted P(g,4)/24 for each named family."""
    s = (-1) ** n
    if fam == "W":
        if n < 5:
            raise OutOfRange("W formula holds from n=5")
        val = (2 ** (n - 3) + s) // 3 + (1 + s) // 2
    elif fam == "Theta":
        if n < 6:
            raise OutOfRange("Theta formula holds from n=6")
        val = (2 ** (n - 5) + s) // 3 + (4 + 4 * -s) // 2
    elif fam == "Xi":
        if n < 7:
            raise OutOfRange("Xi formula holds from n=7")
        val = (2 ** (n - 4) - s) // 3 + (5 + 9 * s) // 2
    elif fam == "Y":
        if n < 6:
            raise OutOfRange("Y formula holds from n=6")
        val = closed_form("W", n - 1)
    elif fam == "Nabla":
        if n < 8:
            raise OutOfRange("Nabla formula holds from n=8")
        val = (2 ** (n - 4) - s) // 3 + (4 + 6 * -s) // 2
    else:
        raise OutOfRange(f"unknown family {fam!r}")
    return val


def face_four_coloring_count(m: SphereMap) -> int:
    """Proper 4-colorings of the map's faces, via the dual."""
    return count_vertex_colorings(m.dual, 4)


# ---------- Leaf-permuted triples ----------


def v_triple_colorings(t: VTriple) -> list[ColorVector]:
    """Vectors valid for both trees after relabeling leaves through the triple."""
    if t.d.leaf_count != t.r.leaf_count or len(t.labels) != t.d.leaf_count:
        raise TooSmall("triple shapes disagree")
    out = []
    for c in all_valid_vectors(t.d):
        re = tuple(c[lab - 1] for lab in t.labels)
        if is_valid(t.r, re):
            out.append(c)
    return out


def all_valid_vectors(T: BinaryTree):
    """Every vector in {1,2,3}^leaves valid for T (not just normalized)."""
    from itertools import permutations

    seen = set()
    for c in normalized_colorings(T):
        for perm in permutations((1, 2, 3)):
            m = {1: perm[0], 2: perm[1], 3: perm[2]}
            seen.add(tuple(m[x] for x in c))
    return sorted(seen)


def torus_k7() -> VTriple:
    """Two depth-3 trees glued on the torus; the second tree's leaves are
    re-numbered out of left-right order."""
    full3 = BinaryTree({"", "0", "1", "00", "01", "10", "11"})
    return VTriple(full3, (3, 5, 2, 7, 1, 6, 4, 8), full3)


def no_color_v() -> VTriple:
    """A six-leaf triple with no common coloring under its leaf matching."""
    d = BinaryTree({"", "0", "1", "00", "11"})
    r = BinaryTree({"", "0", "1", "00", "01"})
    return VTriple(d, (1, 4, 3, 6, 2, 5), r)


def petersen_graph() -> nx.Graph:
    import networkx as nx

    return nx.petersen_graph()


def edge_three_coloring_count(g: nx.Graph) -> int:
    """Proper edge 3-colorings, counted exactly (line-graph vertex coloring)."""
    import networkx as nx

    lg = nx.line_graph(g)
    if lg.number_of_nodes() > 16:
        raise TooLarge("edge coloring counter limited to 16 edges")
    return count_vertex_colorings(Triangulation("L", lg), 3)


# ---------- Edge-numbering balance ----------


def edge_numbering_signs(g: nx.Graph, order: Sequence) -> list[bool]:
    """Sign of each edge when placed in the given order: positive iff its
    endpoint degrees among the earlier edges have equal parity."""
    deg = {v: 0 for v in g.nodes}
    signs = []
    for a, b in order:
        signs.append(deg[a] % 2 == deg[b] % 2)
        deg[a] += 1
        deg[b] += 1
    return signs


def edge_numbering_balance(g: nx.Graph, order: Sequence) -> bool:
    signs = edge_numbering_signs(g, order)
    parent = {v: v for v in g.nodes}
    parity = {v: 0 for v in g.nodes}

    def find(v):
        if parent[v] == v:
            return v, 0
        root, par = find(parent[v])
        parent[v] = root
        parity[v] ^= par
        return root, parity[v]

    for (a, b), positive in zip(order, signs):
        need = 0 if positive else 1
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            if pa ^ pb != need:
                return False
        else:
            parent[ra] = rb
            parity[ra] = pa ^ pb ^ need
    return True


def balance_classification(g: nx.Graph) -> str:
    """"always", "never" or "mixed" over every ordering of the edges."""
    from itertools import permutations

    edges = list(g.edges)
    if len(edges) > 8:
        raise TooLarge("exhaustive classifier limited to 8 edges")
    verdicts = {edge_numbering_balance(g, order) for order in permutations(edges)}
    if verdicts == {True}:
        return "always"
    if verdicts == {False}:
        return "never"
    return "mixed"
