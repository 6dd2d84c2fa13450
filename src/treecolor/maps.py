"""The bridge to maps on surfaces: duals of tree pairs, primality and prime
factorization, the five named triangulation families with their 4-coloring
counts, leaf-permuted triples, and edge-numbering balance."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import OutOfRange, TooLarge, TooSmall
from .coloring import ColorVector, is_valid, normalized_colorings
from .thompson import TreePair
from .trees import (
    BinaryTree,
    _spans,
    leaves,
    shadow_pattern,
    subtree_at,
)

if TYPE_CHECKING:
    import networkx as nx

# Maps are vertex and edge tuples, so duals, primality, the families and the
# chromatic counts never load networkx; the graph properties and the
# fixtures that take networkx graphs import it when they are used.


def _to_networkx(vertices: tuple, edges: tuple, multigraph: bool):
    import networkx as nx

    g = nx.MultiGraph() if multigraph else nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return g


class Triangulation(NamedTuple):
    name: str
    vertices: tuple
    edges: tuple  # of (a, b); a parallel edge is repeated
    multigraph: bool = False  # duals of tree pairs may have parallel edges

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def graph(self) -> nx.Graph:
        """A networkx Graph (MultiGraph for duals), built on each access."""
        return _to_networkx(self.vertices, self.edges, self.multigraph)


class SphereMap(NamedTuple):
    vertices: tuple
    edges: tuple  # cubic, from the pair glued leaf-to-leaf
    dual: Triangulation

    @property
    def face_count(self) -> int:
        return self.dual.n

    @property
    def graph(self) -> nx.MultiGraph:
        """The cubic map as a networkx MultiGraph, built on each access."""
        return _to_networkx(self.vertices, self.edges, True)


class VTriple(NamedTuple):
    d: BinaryTree
    labels: tuple  # label carried by each leaf of r, left to right
    r: BinaryTree


# ---------- Duals and primality ----------


def pair_to_dual(p: TreePair) -> Triangulation:
    """Two triangulated polygons glued along the equator of the sphere."""
    L = p.d.leaf_count
    if L < 2:
        raise TooSmall("pair must have at least 2 leaves on each side")
    edges = [(i - 1, i) for i in range(1, L + 1)]
    edges.append((L, 0))
    for T in (p.d, p.r):
        edges.extend((a - 1, b) for a, b in shadow_pattern(T))
    return Triangulation("dual", tuple(range(L + 1)), tuple(edges), multigraph=True)


def pair_to_map(p: TreePair) -> SphereMap:
    """The cubic map: both trees rooted on a common edge, leaves glued in order."""
    dual = pair_to_dual(p)
    vertices, edges = [], []
    for side, T in (("d", p.d), ("r", p.r)):
        for v in sorted(T.internal):
            vertices.append((side, v))
            if v:
                edges.append(((side, v[:-1]), (side, v)))
    edges.append((("d", ""), ("r", "")))
    for a, b in zip(leaves(p.d), leaves(p.r)):
        edges.append((("d", a[:-1]), ("r", b[:-1])))
    return SphereMap(tuple(vertices), tuple(edges), dual)


def common_intervals(p: TreePair) -> set[tuple[int, int]]:
    if p.d.leaf_count < 2:
        return set()
    return set(shadow_pattern(p.d) & shadow_pattern(p.r))


def is_prime(p: TreePair) -> bool:
    """True iff the trees share no proper shadow interval (dual has no
    parallel edges)."""
    return not common_intervals(p)


def has_parallel_edges(t: Triangulation) -> bool:
    """True iff some unordered pair of vertices is joined more than once."""
    pairs = [frozenset(e) for e in t.edges]
    return len(set(pairs)) < len(pairs)


def prime_factorization(p: TreePair) -> list[TreePair]:
    """Split at common shadow intervals, innermost first, into prime factors.

    The narrowest common interval contains no other one, so the factor cut
    off below it is prime; the rest is split again.  Matching exposed carets
    show up as width-one common intervals, so an unreduced pair simply
    contributes extra one-caret factors; the coloring count law holds either
    way.
    """
    factors = []
    while True:
        # every internal vertex but the topmost, keyed by its shadow interval
        dv, rv = ({span: v for v, span in _spans(T).items() if v and v in T.internal} for T in p)
        if not (common := dv.keys() & rv.keys()):
            break
        iv = min(common, key=lambda iv: (iv[1] - iv[0], iv[0]))
        u, v = dv[iv], rv[iv]
        factors.append(TreePair(subtree_at(p.d, u), subtree_at(p.r, v)))
        # the cut vertex itself becomes a leaf of the rest
        p = TreePair(
            BinaryTree(w for w in p.d.internal if not w.startswith(u)),
            BinaryTree(w for w in p.r.internal if not w.startswith(v)),
        )
    factors.append(p)
    return factors


# ---------- The five triangulation families ----------


def biwheel(n: int) -> Triangulation:
    """Suspension of an (n-2)-cycle: two apexes joined to every cycle vertex."""
    if n < 5:
        raise TooSmall("biwheel needs at least 5 vertices")
    cyc = list(range(2, n))
    edges = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    for apex in (0, 1):
        edges.extend((apex, c) for c in cyc)
    return Triangulation("W", (*cyc, 0, 1), tuple(edges))


def _split_cycle_vertex(name: str, base: Triangulation, parts: int) -> Triangulation:
    """Replace cycle vertex 2 of a biwheel with a fan of new vertices, each
    joined to both cycle neighbors; the apexes attach at the fan's ends."""
    a, b = 0, 1
    d = 2
    c, e = base.n - 1, 3  # cycle neighbors of d
    new = list(range(base.n, base.n + parts))
    edges = [(x, y) for x, y in base.edges if d not in (x, y)]
    for x in new:
        edges += ((x, c), (x, e))
    edges.extend(zip(new, new[1:]))
    edges += ((a, new[0]), (b, new[-1]))
    vertices = tuple(v for v in base.vertices if v != d) + tuple(new)
    return Triangulation(name, vertices, tuple(edges))


def theta(n: int) -> Triangulation:
    if n < 6:
        raise TooSmall("theta needs at least 6 vertices")
    return _split_cycle_vertex("Theta", biwheel(n - 1), 2)


def xi(n: int) -> Triangulation:
    if n < 7:
        raise TooSmall("xi needs at least 7 vertices")
    return _split_cycle_vertex("Xi", biwheel(n - 2), 3)


def y_family(n: int) -> Triangulation:
    """Biwheel with one triangle subdivided by a degree-3 vertex."""
    if n < 6:
        raise TooSmall("y needs at least 6 vertices")
    base = biwheel(n - 1)
    new = n - 1
    edges = base.edges + tuple((new, corner) for corner in (0, 2, 3))
    return Triangulation("Y", base.vertices + (new,), edges)


def nabla(n: int) -> Triangulation:
    """Biwheel with a nested triangle inside one face."""
    if n < 8:
        raise TooSmall("nabla needs at least 8 vertices")
    base = biwheel(n - 3)
    a, c, e = 0, 2, 3  # corners of a face of the base
    p, q, r = n - 3, n - 2, n - 1
    edges = base.edges + ((p, q), (q, r), (r, p))
    edges += ((c, p), (p, e), (e, q), (q, a), (a, r), (r, c))
    return Triangulation("Nabla", base.vertices + (p, q, r), edges)


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


# the exact counters backtrack over every vertex, so they take small graphs only
COUNT_MAX_VERTICES = 16


def check_count_size(n: int) -> None:
    """Refuse an exact vertex-coloring count on more than COUNT_MAX_VERTICES."""
    if n > COUNT_MAX_VERTICES:
        raise TooLarge(f"exact counter limited to {COUNT_MAX_VERTICES} vertices")


def count_vertex_colorings(g, k: int) -> int:
    """Exact number of proper vertex k-colorings (backtracking up to
    renaming the colors).

    g is a Triangulation or a networkx graph; parallel edges and loops add
    no constraint.
    """
    if isinstance(g, Triangulation):
        nodes, edges = g.vertices, g.edges
    else:
        nodes, edges = list(g.nodes), g.edges()  # (u, v) pairs, also in a MultiGraph
    check_count_size(len(nodes))
    adj: dict = {v: set() for v in nodes}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    total = 1
    seen: set = set()
    for v in nodes:  # one breadth-first search per component
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        for u in comp:
            for x in adj[u]:
                if x not in seen:
                    seen.add(x)
                    comp.append(x)
        total *= _count_component(comp, adj, k)
    return total


def _count_component(comp: list, adj: dict, k: int) -> int:
    order: list = []
    remaining = set(comp)
    # keep each new vertex adjacent to as many placed vertices as possible
    while remaining:
        placed = set(order)
        best = max(
            remaining,
            key=lambda v: (len(adj[v] & placed), len(adj[v]), str(v)),
        )
        order.append(best)
        remaining.discard(best)
    pos = {v: i for i, v in enumerate(order)}
    back = [[pos[u] for u in adj[v] if pos[u] < i] for i, v in enumerate(order)]
    colors = [0] * len(order)

    # Colors are placed in order of first use: with m colors used so far, a
    # vertex takes one of them or color m, which stands for each of the k - m
    # unused colors, so one leaf with m colors counts k(k-1)...(k-m+1) colorings.
    def rec(i: int, m: int) -> int:
        if i == len(order):
            return 1
        used = {colors[j] for j in back[i]}
        total = 0
        for c in range(m):
            if c not in used:
                colors[i] = c
                total += rec(i + 1, m)
        if m < k:
            colors[i] = m
            total += (k - m) * rec(i + 1, m + 1)
        return total

    return rec(0, 0)


def closed_form(fam: str, n: int) -> int:
    """Predicted P(g,4)/24 for each named family, from its least size in FAMILIES."""
    if fam not in FAMILIES:
        raise OutOfRange(f"unknown family {fam!r}")
    least = FAMILIES[fam][1]
    if n < least:
        raise OutOfRange(f"{fam} formula holds from n={least}")
    s = (-1) ** n
    if fam == "W":
        return (2 ** (n - 3) + s) // 3 + (1 + s) // 2
    if fam == "Theta":
        return (2 ** (n - 5) + s) // 3 + (4 + 4 * -s) // 2
    if fam == "Xi":
        return (2 ** (n - 4) - s) // 3 + (5 + 9 * s) // 2
    if fam == "Y":
        return closed_form("W", n - 1)
    return (2 ** (n - 4) - s) // 3 + (4 + 6 * -s) // 2  # Nabla


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

    # the line graph has one vertex per edge, so refuse before building it
    if g.number_of_edges() > 16:
        raise TooLarge("edge coloring counter limited to 16 edges")
    return count_vertex_colorings(nx.line_graph(g), 3)


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
    from .paths import signed_balance

    signs = edge_numbering_signs(g, order)
    edges = [(a, b, positive) for (a, b), positive in zip(order, signs)]
    return signed_balance(g.nodes, edges)[0]


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
