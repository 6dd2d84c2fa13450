"""Color graphs and zero sets inside the rotation 1-skeleton: connectivity,
diameters, vine words for long-path vectors, face-removal separation tests,
and positive neighborhoods."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from .errors import (
    DimensionTooLarge,
    Disconnected,
    NotAVineColoring,
    TooSmall,
)
from .coloring import (
    Color,
    ColorVector,
    _acceptable_sum,
    _check_entries,
    edge_coloring_from_vector,
    format_vector,
    pattern_coloring,
    pattern_positive,
    signs_of,
    zero_intervals,
)
from .trees import BinaryTree, Skeleton, interval_mask, is_vine, skeleton

MAX_DIMENSION = 9  # a vector of dimension 9 has 11 entries; its graph scans 16,796 trees


def _check_dimension(d: int) -> None:
    if d > MAX_DIMENSION:
        raise DimensionTooLarge(f"dimension {d} exceeds bound {MAX_DIMENSION}")


class ColorGraph(NamedTuple):
    vector: ColorVector
    vertices: tuple  # of BinaryTree, canonical order
    edges: tuple  # of (index, index) with index_a < index_b

    def to_networkx(self):
        """The graph as a networkx.Graph on the vertex indices, for export."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(len(self.vertices)))
        g.add_edges_from(self.edges)
        return g


class ZeroSet(NamedTuple):
    vector: ColorVector
    intervals: frozenset  # of (lo, hi), 1-based, length >= 2
    vertices: tuple  # trees excluded from the color graph


def _check_vector(c: Sequence[Color]) -> int:
    _check_entries(c)
    if len(c) < 2:
        raise TooSmall("vector must have length at least 2")
    d = len(c) - 2
    _check_dimension(d)
    return d


def _induced(sk: Skeleton, bad: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Skeleton indices of the trees whose shadow misses the mask bad, and the
    sorted edges between them, numbered by position in that list."""
    kept = [i for i, m in enumerate(sk.masks) if not m & bad]
    pos = {i: k for k, i in enumerate(kept)}
    edges = []
    for k, i in enumerate(kept):
        for j in sk.left[i]:
            kj = pos.get(j)
            if kj is not None:
                edges.append((k, kj) if k < kj else (kj, k))
    edges.sort()
    return kept, edges


def _adjacency(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _bfs(adj: list[list[int]], start: int) -> list[int]:
    """Distance from start to every vertex; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def color_graph(c: Sequence[Color]) -> ColorGraph:
    """Subgraph of the rotation skeleton spanned by the trees the vector colors.

    A vector of length d+2 colors the trees with d+1 carets whose shadow
    pattern misses its zero intervals.  The selection runs on skeleton(d+1):
    the trees whose shadow mask ANDs to zero with interval_mask of the zero
    intervals are kept, in canonical order, and the edges are the skeleton's
    left rotations between kept trees.  The skeleton of a size is built on
    the first call that needs it (after the vector and dimension checks)
    and reused afterwards.
    """
    c = tuple(c)
    d = _check_vector(c)
    if not _acceptable_sum(c):
        return ColorGraph(c, (), ())
    sk = skeleton(d + 1)
    kept, edges = _induced(sk, interval_mask(zero_intervals(c), d + 2))
    return ColorGraph(c, tuple(sk.trees[i] for i in kept), tuple(edges))


def zero_set(c: Sequence[Color]) -> ZeroSet:
    """Intervals with zero color sum, and the trees they exclude."""
    c = tuple(c)
    d = _check_vector(c)
    bad = zero_intervals(c)
    sk = skeleton(d + 1)
    mask = interval_mask(bad, d + 2)
    verts = [T for T, m in zip(sk.trees, sk.masks) if m & mask]
    return ZeroSet(c, frozenset(bad), tuple(verts))


def is_connected_or_edgeless(g: ColorGraph) -> bool:
    if not g.edges:
        return True
    return -1 not in _bfs(_adjacency(len(g.vertices), g.edges), 0)


def graph_diameter(g: ColorGraph) -> int:
    n = len(g.vertices)
    if n <= 1:
        return 0
    adj = _adjacency(n, g.edges)
    diam = 0
    for v in range(n):
        dist = _bfs(adj, v)
        if -1 in dist:
            raise Disconnected("color graph is not connected")
        diam = max(diam, max(dist))
    return diam


# ---------- Long-path vectors ----------


def vine_word(T: BinaryTree, c: Sequence[Color]) -> str:
    """Caret labels of a vine colored by 1^m 2 1^n, read top to bottom.

    A caret is labeled 'l' when its left edge carries color 1, else 'r'.
    """
    c = tuple(c)
    ones = [i for i, x in enumerate(c) if x != 1]
    if len(ones) != 1 or c[ones[0]] != 2 or not is_vine(T):
        raise NotAVineColoring("expected a vine colored by a 1^m 2 1^n vector")
    e = edge_coloring_from_vector(T, c)
    if 0 in e.values():
        raise NotAVineColoring("vector is not valid for this tree")
    word = []
    v = ""
    while v in T.internal:
        word.append("l" if e[v + "0"] == 1 else "r")
        v = v + ("0" if v + "0" in T.internal else "1")
    return "".join(word)


# ---------- Separation by removed faces ----------


def face_union_separates(
    d: int, intervals: Sequence[tuple[int, int]]
) -> tuple[bool, dict[BinaryTree, int]]:
    """Remove every tree whose shadow pattern meets the interval family and
    report whether the remaining skeleton disconnects."""
    _check_dimension(d)
    n = d + 2
    fam = set()
    for lo, hi in intervals:
        if not (1 <= lo < hi <= n) or (lo, hi) == (1, n):
            raise TooSmall(f"interval [{lo},{hi}] is not proper in [1,{n}]")
        fam.add((lo, hi))
    sk = skeleton(d + 1)
    kept, edges = _induced(sk, interval_mask(fam, n))
    adj = _adjacency(len(kept), edges)
    # a BFS from each least unlabelled index numbers the components by their
    # minimum index
    comp = [-1] * len(kept)
    count = 0
    for s in range(len(kept)):
        if comp[s] < 0:
            for v, dist in enumerate(_bfs(adj, s)):
                if dist >= 0:
                    comp[v] = count
            count += 1
    label = {sk.trees[i]: comp[k] for k, i in enumerate(kept)}
    return count > 1, label


# ---------- Positive neighborhoods ----------


def positive_vector(T: BinaryTree) -> ColorVector:
    """The normalized vector assigning every caret of T a positive sign."""
    if not T.internal:
        raise TooSmall("tree must have at least one caret")
    return pattern_coloring(pattern_positive, T)


def positive_neighborhood(T: BinaryTree) -> tuple[ColorVector, ColorGraph]:
    c = positive_vector(T)
    return c, color_graph(c)


def all_positive_vertices(g: ColorGraph) -> list[BinaryTree]:
    """Trees in the graph whose induced sign assignment is all-positive."""
    out = []
    for T in g.vertices:
        if T.internal and all(signs_of(T, g.vector).values()):
            out.append(T)
    return out


# ---------- Export ----------


def color_graph_dot(g: ColorGraph) -> str:
    lines = [f'graph color_graph {{\n  label="{format_vector(g.vector)}";']
    for i, T in enumerate(g.vertices):
        lines.append(f'  n{i} [label="{T.to_text()}"];')
    for a, b in g.edges:
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines)


def sweep_csv(vectors: Sequence[ColorVector]) -> str:
    """CSV rows (vector, vertices, edges, diameter, zero intervals)."""
    import csv
    import io

    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["vector", "vertices", "edges", "diameter", "zero_intervals"])
    for c in vectors:
        g = color_graph(c)
        try:
            diam = graph_diameter(g)
        except Disconnected:
            diam = ""
        wr.writerow(
            [format_vector(c), len(g.vertices), len(g.edges), diam, len(zero_intervals(c))]
        )
    return buf.getvalue()
