"""Color graphs and zero sets inside the rotation 1-skeleton: connectivity,
diameters, vine words for long-path vectors, face-removal separation tests,
and positive neighborhoods."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    DimensionTooLarge,
    Disconnected,
    NotAVineColoring,
    TooSmall,
    ZeroEntry,
)
from .coloring import (
    Color,
    ColorVector,
    format_vector,
    signs_of,
    vector_sum,
    zero_intervals,
)
from .trees import (
    BinaryTree,
    all_trees,
    is_vine,
    leaves,
    shadow_pattern,
)

if TYPE_CHECKING:
    import networkx as nx

DEFAULT_MAX_D = 9


def max_dimension() -> int:
    raw = os.environ.get("ASSOC_COLOR_MAX_D")
    if raw is None:
        return DEFAULT_MAX_D
    return int(raw)


def _check_dimension(d: int) -> None:
    if d > max_dimension():
        raise DimensionTooLarge(
            f"dimension {d} exceeds bound {max_dimension()} "
            "(raise ASSOC_COLOR_MAX_D to override)"
        )


class ColorGraph(NamedTuple):
    vector: ColorVector
    vertices: tuple  # of BinaryTree, canonical order
    edges: tuple  # of (index, index) with index_a < index_b

    def to_networkx(self) -> nx.Graph:
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
    if any(x not in (1, 2, 3) for x in c):
        raise ZeroEntry("entries must lie in {1,2,3}")
    if len(c) < 2:
        raise TooSmall("vector must have length at least 2")
    d = len(c) - 2
    _check_dimension(d)
    return d


def _colored_vertices(c: Sequence[Color]) -> list[BinaryTree]:
    d = _check_vector(c)
    if vector_sum(c) == 0 or len(set(c)) <= 1:
        return []
    bad = zero_intervals(c)
    return [T for T in all_trees(d + 1) if not (shadow_pattern(T) & bad)]


def color_graph(c: Sequence[Color]) -> ColorGraph:
    """Subgraph of the rotation skeleton spanned by the trees the vector colors."""
    c = tuple(c)
    verts = _colored_vertices(c)
    index = {T: i for i, T in enumerate(verts)}
    edges = set()
    from .trees import rotate

    for T, i in index.items():
        for u in sorted(T.internal):
            if u + "0" in T.internal:
                S = rotate(T, u)
                j = index.get(S)
                if j is not None:
                    edges.add((min(i, j), max(i, j)))
    return ColorGraph(c, tuple(verts), tuple(sorted(edges)))


def zero_set(c: Sequence[Color]) -> ZeroSet:
    """Intervals with zero color sum, and the trees they exclude."""
    c = tuple(c)
    d = _check_vector(c)
    bad = zero_intervals(c)
    verts = [T for T in all_trees(d + 1) if shadow_pattern(T) & bad]
    return ZeroSet(c, frozenset(bad), tuple(verts))


def is_connected_or_edgeless(g: ColorGraph) -> bool:
    import networkx as nx

    if not g.edges:
        return True
    return nx.is_connected(g.to_networkx())


def graph_diameter(g: ColorGraph) -> int:
    import networkx as nx

    if len(g.vertices) <= 1:
        return 0
    nxg = g.to_networkx()
    if not nx.is_connected(nxg):
        raise Disconnected("color graph is not connected")
    return nx.diameter(nxg)


# ---------- Long-path vectors ----------


def vine_word(T: BinaryTree, c: Sequence[Color]) -> str:
    """Caret labels of a vine colored by 1^m 2 1^n, read top to bottom.

    A caret is labeled 'l' when its left edge carries color 1, else 'r'.
    """
    c = tuple(c)
    ones = [i for i, x in enumerate(c) if x != 1]
    if len(ones) != 1 or c[ones[0]] != 2 or not is_vine(T):
        raise NotAVineColoring("expected a vine colored by a 1^m 2 1^n vector")
    from .coloring import edge_coloring_from_vector

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
    keep = [T for T in all_trees(d + 1) if not (shadow_pattern(T) & fam)]
    index = {T: i for i, T in enumerate(keep)}
    import networkx as nx

    from .trees import rotate

    g = nx.Graph()
    g.add_nodes_from(range(len(keep)))

    for T, i in index.items():
        for u in sorted(T.internal):
            if u + "0" in T.internal:
                j = index.get(rotate(T, u))
                if j is not None:
                    g.add_edge(i, j)
    comps = list(nx.connected_components(g)) if keep else []
    label = {}
    for k, comp in enumerate(sorted(comps, key=min)):
        for i in comp:
            label[keep[i]] = k
    return len(comps) > 1, label


# ---------- Positive neighborhoods ----------


def positive_vector(T: BinaryTree) -> ColorVector:
    """The normalized vector assigning every caret of T a positive sign."""
    from .coloring import pattern_coloring, pattern_positive

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
