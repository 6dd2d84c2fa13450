"""Per-layer tracing from outside the library.

Wrappers are installed around the public functions of each treecolor module
listed in ``TRACED``.  A function is replaced in every loaded treecolor module
namespace that holds it, including the ones that ``from``-imported it
(``paths.rotate``, ``assoc.shadow_pattern``, ``thompson.leaves``, ...), so the
calls made between modules are counted as well as the ones made by the
benchmark.

Each wrapper counts calls and measures self time: the wall time of the call
minus the time spent in nested traced calls.  Calls to the hot functions are
only aggregated; every other call also leaves a span (id, parent, function,
item, start, end), up to a fixed number of spans, for the trace file.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import operator
import sys
import time

TRACED = {
    "trees": ["all_trees", "leaves", "shadow_pattern", "rotate", "rotation_action", "subtree_at"],
    "thompson": ["multiply", "reduce", "apply_element", "rotation_as_pair", "path_evaluate", "word_to_pair"],
    "coloring": [
        "normalized_colorings",
        "signs_of",
        "edge_coloring_from_vector",
        "is_valid",
        "colorings_of_pair",
        "zero_intervals",
        "classify_vector",
    ],
    "paths": ["sign_structure", "is_balanced", "compatible_colorings", "apply_signed_rotation"],
    "assoc": ["color_graph", "is_connected_or_edgeless", "graph_diameter"],
    "maps": ["is_prime", "pair_to_dual", "has_parallel_edges", "prime_factorization", "count_vertex_colorings"],
    "enumeration": ["pair_coloring_counts", "max_coloring_search"],
    "cli": ["main"],
}

# called millions of times per run: aggregated, never kept as spans
HOT = {"trees.leaves", "trees.rotation_action", "trees.rotate", "coloring.edge_coloring_from_vector"}

# ratio metrics: numerator and denominator counters fed by the hooks below
RATIOS = {
    "paths.compatible_colorings.yield": ("colorings_found", "colorings_tested"),
    "assoc.color_graph.kept_ratio": ("trees_kept", "trees_enumerated"),
    "enumeration.pair_coloring_counts.prime_ratio": ("prime_pairs", "pairs_enumerated"),
}

SPAN_CAP = 20_000


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for mod, fns in TRACED.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count"))
            out.append((f"{mod}.{fn}.self_s", "s"))
        if mod != "cli":
            out.append((f"{mod}.self_s", "s"))
    out.append(("trees.all_trees.hit_ratio", "ratio"))
    out.extend((name, "ratio") for name in RATIOS)
    out.append(("cli.import_s", "s"))
    out.append(("cli.networkx_import_s", "s"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {key: 0 for pair in RATIOS.values() for key in pair}
        self.stack: list[list] = []  # [child_s, span_id] per open call
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.item = -1
        self._next_id = 0
        self._installed: list[tuple] = []  # (module, attr, original)
        self._hooks = {
            "paths.compatible_colorings": self._hook_compatible,
            "assoc.color_graph": self._hook_color_graph,
            "enumeration.pair_coloring_counts": self._hook_pair_counts,
        }
        self.t_base = time.perf_counter()

    # ---------- hooks for the ratio metrics ----------

    def _hook_compatible(self, args, kwargs, result):
        D = args[1] if len(args) > 1 else kwargs["D"]
        self.counters["colorings_found"] += len(result)
        self.counters["colorings_tested"] += 2 ** (D.carets - 1) if D.carets else 1

    def _hook_color_graph(self, args, kwargs, result):
        c = tuple(args[0] if args else kwargs["c"])
        self.counters["trees_kept"] += len(result.vertices)
        # color_graph enumerates the trees only for acceptable vectors
        if functools.reduce(operator.xor, c, 0) != 0 and len(set(c)) > 1:
            self.counters["trees_enumerated"] += catalan(len(c) - 1)

    def _hook_pair_counts(self, args, kwargs, yielded):
        # the generator yields only the prime pairs among all trees squared
        carets = args[0] if args else kwargs["carets"]
        self.counters["prime_pairs"] += yielded
        self.counters["pairs_enumerated"] += catalan(carets) ** 2

    # ---------- wrappers ----------

    def _open(self, hot: bool) -> None:
        span_id = -1
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        self.stack.append([0.0, span_id])

    def _close(self, st: list, name: str, t0: float, calls: int) -> None:
        dt = time.perf_counter() - t0
        child, span_id = self.stack.pop()
        st[0] += calls
        st[1] += dt
        st[2] += dt - child
        if self.stack:
            self.stack[-1][0] += dt
        if span_id >= 0:
            if len(self.spans) < SPAN_CAP:
                parent = next((s[1] for s in reversed(self.stack) if s[1] >= 0), -1)
                self.spans.append((span_id, parent, name, self.item, t0 - self.t_base, t0 + dt - self.t_base))
            else:
                self.dropped_spans += 1

    def wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        hot = name in HOT
        hook = self._hooks.get(name)
        open_, close = self._open, self._close
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one call; each resumption of the generator adds to its self time
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                calls, yielded = 1, 0
                while True:
                    open_(hot)
                    t0 = clock()
                    try:
                        x = next(gen)
                    except StopIteration:
                        break
                    finally:
                        close(st, name, t0, calls)
                        calls = 0
                    yielded += 1
                    yield x
                if hook is not None:
                    hook(args, kwargs, yielded)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_(hot)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(st, name, t0, 1)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each traced function in every treecolor namespace holding it."""
        import importlib

        modules = {mod: importlib.import_module(f"treecolor.{mod}") for mod in TRACED}
        namespaces = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "treecolor" or key.startswith("treecolor."))
        ]
        for mod, fns in TRACED.items():
            module = modules[mod]
            for fn in fns:
                original = getattr(module, fn)
                wrapped = self.wrap(f"{mod}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
                            self._installed.append((ns, attr, original))
        # a namespace still holding an original would undercount silently
        originals = {id(o) for _, _, o in self._installed}
        for ns in namespaces:
            for attr, value in vars(ns).items():
                if id(value) in originals:
                    raise RuntimeError(f"{ns.__name__}.{attr} escaped tracing")

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    # ---------- results ----------

    def metrics(self) -> dict:
        out = {}
        module_self = {mod: 0.0 for mod in TRACED if mod != "cli"}
        for mod, fns in TRACED.items():
            for fn in fns:
                calls, _, self_s = self.stats.get(f"{mod}.{fn}", (0, 0.0, 0.0))
                out[f"{mod}.{fn}.calls"] = calls
                out[f"{mod}.{fn}.self_s"] = self_s
                if mod in module_self:
                    module_self[mod] += self_s
        for mod, s in module_self.items():
            out[f"{mod}.self_s"] = s
        for name, (num, den) in RATIOS.items():
            d = self.counters[den]
            out[name] = self.counters[num] / d if d else 0.0
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["functions"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.stats.items())
        }
        doc["counters"] = self.counters
        doc["span_fields"] = ["id", "parent", "function", "item", "start", "end"]
        doc["spans"] = self.spans
        doc["dropped_spans"] = self.dropped_spans
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
