"""Command-line front end.

Every command is deterministic: identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 check/verification failure, 2 usage error.

Each handler imports the modules it runs, so a query loads only those.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .errors import TooLarge, TreeColorError

if TYPE_CHECKING:
    from .trees import BinaryTree

# the counts budget, checked before any work; trees.all_trees checks its own
COUNTS_MAX_N = 4000  # the values stay below Python's 4300-digit int-to-str limit


def _tree(arg: str) -> BinaryTree:
    from .trees import BinaryTree

    return BinaryTree.from_text(arg)


def _out(args, data, text: str) -> None:
    if getattr(args, "json", False):
        import json

        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


# ---------- command handlers ----------


def cmd_trees(args) -> int:
    from . import trees

    if args.inspect:
        T = _tree(args.inspect)
        info = {
            "text": T.to_text(),
            "carets": T.carets,
            "leaves": [trees.format_address(v) for v in trees.leaves(T)],
            "vine": trees.is_vine(T),
        }
        if T.leaf_count >= 2:
            info["shadow"] = sorted(trees.shadow_pattern(T))
        _out(args, info, "\n".join(f"{k}: {v}" for k, v in info.items()))
        return 0
    texts = [t.to_text() for t in trees.all_trees(args.n)]
    _out(args, {"n": args.n, "count": len(texts), "trees": texts}, "\n".join(texts))
    return 0


def cmd_color(args) -> int:
    from . import coloring

    c = coloring.parse_vector(args.vector)
    if args.tree:
        T = _tree(args.tree)
        ok = coloring.is_valid(T, c)
        _out(args, {"valid": ok}, "valid" if ok else "invalid")
        return 0 if ok else 1
    if args.pair:
        from .thompson import TreePair

        d, r = (_tree(s) for s in args.pair)
        found = coloring.colorings_of_pair(TreePair(d, r))
        _out(
            args,
            {"colorings": [coloring.format_vector(x) for x in found]},
            "\n".join(coloring.format_vector(x) for x in found) or "(none)",
        )
        return 0 if found else 1
    cls = coloring.classify_vector(c)
    w = coloring.acceptable_witness(c) if cls != coloring.UNACCEPTABLE else None
    _out(
        args,
        {"class": cls, "witness": w.to_text() if w else None},
        f"{cls}" + (f" witness {w.to_text()}" if w else ""),
    )
    return 0


def cmd_path(args) -> int:
    from . import thompson

    if args.find:
        from . import paths

        D, R = (_tree(s) for s in args.find)
        w = paths.find_sign_consistent_path(D, R)
        if w is None:
            _out(args, {"path": None}, "no sign-consistent path")
            return 1
        _out(args, {"path": thompson.format_word(w)}, thompson.format_word(w) or "(empty)")
        return 0
    w = thompson.parse_word(args.word)
    if args.square is not None or args.pentagon is not None:
        from . import paths

        if args.square is not None:  # square first when both are given
            w2 = paths.square_move(w, args.square)
        else:
            w2 = paths.pentagon_move(w, args.pentagon)
        _out(args, {"word": thompson.format_word(w2)}, thompson.format_word(w2))
        return 0
    if args.start:
        seq = thompson.path_evaluate(_tree(args.start), w)
        _out(
            args,
            {"trees": [t.to_text() for t in seq]},
            "\n".join(t.to_text() for t in seq),
        )
        return 0
    p = thompson.word_to_pair(w)
    _out(args, {"pair": [p.d.to_text(), p.r.to_text()]}, str(p))
    return 0


def cmd_sigma(args) -> int:
    from . import paths, thompson, trees

    w = thompson.parse_word(args.word)
    ss = paths.sign_structure(w)
    bal, p = paths.is_balanced(ss)
    if args.dot:
        print(paths.sign_structure_dot(ss))
        return 0
    data = {
        "edges": [
            [trees.format_address(a), trees.format_address(b), "+" if s else "-"]
            for a, b, s in ss.edges
        ],
        "balanced": bal,
        "components": p,
    }
    verdict = "balanced" if bal else "unbalanced"
    _out(args, data, f"{verdict} (p={p})\n{ss}")
    return 0 if bal else 1


def cmd_graph(args) -> int:
    from . import assoc, coloring

    c = coloring.parse_vector(args.vector)
    g = assoc.color_graph(c)
    if args.dot:
        print(assoc.color_graph_dot(g))
        return 0
    if args.zero_set:
        z = assoc.zero_set(c)
        data = {
            "intervals": sorted(list(i) for i in z.intervals),
            "excluded": len(z.vertices),
        }
        _out(args, data, f"intervals: {data['intervals']}\nexcluded trees: {data['excluded']}")
        return 0
    try:
        diam = assoc.graph_diameter(g)
    except TreeColorError:
        diam = None
    data = {"vertices": len(g.vertices), "edges": len(g.edges), "diameter": diam}
    _out(args, data, f"vertices {data['vertices']} edges {data['edges']} diameter {diam}")
    return 0


def cmd_map(args) -> int:
    from . import maps

    if args.chromatic:
        fam, n = args.chromatic
        try:
            size = int(n)
        except ValueError:
            args.usage(f"--chromatic N must be an integer, got {n!r}")
        maps.check_count_size(size)  # every family member has n vertices
        t = maps.family(fam, size)
        got = maps.count_vertex_colorings(t, 4)
        _out(
            args,
            {"family": fam, "n": size, "colorings": got, "per_s4": got // 24},
            f"{fam}_{n}: {got} four-colorings ({got // 24} mod color symmetry)",
        )
        return 0
    if len(args.pair) != 2:
        args.usage("expected exactly two trees D R, or --chromatic FAMILY N")
    from .thompson import TreePair

    d, r = (_tree(s) for s in args.pair)
    p = TreePair(d, r)
    if args.factor:
        fac = maps.prime_factorization(p)
        _out(
            args,
            {"factors": [[f.d.to_text(), f.r.to_text()] for f in fac]},
            "\n".join(str(f) for f in fac),
        )
        return 0
    prime = maps.is_prime(p)
    _out(args, {"prime": prime}, "prime" if prime else "not prime")
    return 0 if prime else 1


def cmd_counts(args) -> int:
    from . import enumeration

    if args.n > COUNTS_MAX_N:
        raise TooLarge(f"counts limited to n <= {COUNTS_MAX_N}, got {args.n}")
    fns = {
        "acceptable": enumeration.count_acceptable,
        "rigid": enumeration.count_rigid,
        "flexible": enumeration.count_flexible,
        "jacobsthal": enumeration.jacobsthal,
    }
    val = fns[args.kind](args.n)
    _out(args, {"kind": args.kind, "n": args.n, "value": val}, str(val))
    return 0


def cmd_mi_search(args) -> int:
    from . import enumeration

    rep = enumeration.max_coloring_search(args.n)
    rows = [
        (rep.n, i + 1, count, w.d.to_text(), w.r.to_text())
        for i, (count, w) in enumerate(rep.entries)
    ]
    if args.csv:
        print("n,rank,count,witness_d,witness_r")
        for row in rows:
            print(",".join(str(x) for x in row))
        return 0
    _out(
        args,
        {"n": rep.n, "ranks": [list(r) for r in rows]},
        "\n".join(f"rank {r[1]}: {r[2]} colorings  {r[3]} | {r[4]}" for r in rows),
    )
    return 0


def cmd_verify(args) -> int:
    from . import suites

    names = [args.suite] if args.suite else sorted(suites.SUITES)
    failed = False
    for name in names:
        if name not in suites.SUITES:
            print(f"unknown suite {name!r}", file=sys.stderr)
            return 2
        try:
            detail = suites.SUITES[name]()
            print(f"{name}: ok ({detail})")
        except AssertionError as e:
            print(f"{name}: FAIL ({e})")
            failed = True
        except Exception as e:  # a suite that crashes fails; the others still run
            print(f"{name}: FAIL ({type(e).__name__}: {e})")
            failed = True
    return 1 if failed else 0


# ---------- wiring ----------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treecolor")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trees", help="enumerate or inspect trees")
    p.add_argument("n", type=int, nargs="?", default=3)
    p.add_argument("--inspect", metavar="TREE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_trees)

    p = sub.add_parser("color", help="classify vectors, test validity, list pair colorings")
    p.add_argument("vector")
    p.add_argument("--tree")
    p.add_argument("--pair", nargs=2, metavar=("D", "R"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("path", help="evaluate words, search paths, apply moves")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--start", metavar="TREE")
    p.add_argument("--find", nargs=2, metavar=("D", "R"))
    p.add_argument("--square", type=int, metavar="I")
    p.add_argument("--pentagon", type=int, metavar="I")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("sigma", help="sign structure and balance of a word")
    p.add_argument("word")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("graph", help="color graph / zero set of a vector")
    p.add_argument("vector")
    p.add_argument("--zero-set", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("map", help="primality, factorization, chromatic counts")
    p.add_argument("pair", nargs="*", metavar="TREE")
    p.add_argument("--factor", action="store_true")
    p.add_argument("--chromatic", nargs=2, metavar=("FAMILY", "N"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_map, usage=p.error)

    p = sub.add_parser("counts", help="counting formulas")
    p.add_argument("--kind", choices=["acceptable", "rigid", "flexible", "jacobsthal"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_counts)

    p = sub.add_parser("mi-search", help="largest coloring counts over prime pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_mi_search)

    p = sub.add_parser("verify", help="run named invariant suites")
    p.add_argument("--suite")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TreeColorError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
