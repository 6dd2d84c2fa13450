"""The package's public names, each resolving to its home module's object, and
its import structure."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import treecolor
from treecolor import maps, trees

# the 20 public names and the module each lives in
HOME = {
    "TreeColorError": "errors",
    "BinaryTree": "trees",
    "all_trees": "trees",
    "join": "trees",
    "rotate": "trees",
    "TreePair": "thompson",
    "parse_word": "thompson",
    "word_to_pair": "thompson",
    "classify_vector": "coloring",
    "colorings_of_pair": "coloring",
    "is_acceptable": "coloring",
    "is_valid": "coloring",
    "is_balanced": "paths",
    "sign_structure": "paths",
    "color_graph": "assoc",
    "zero_set": "assoc",
    "is_prime": "maps",
    "prime_factorization": "maps",
    "jacobsthal": "enumeration",
    "max_coloring_search": "enumeration",
}


def test_all_lists_the_public_names():
    assert sorted(treecolor.__all__) == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"treecolor.{HOME[name]}")
    assert getattr(treecolor, name) is getattr(home, name)
    assert name in dir(treecolor)


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from treecolor import *", ns)
    assert {k for k in ns if not k.startswith("__")} == set(HOME)
    from treecolor import max_coloring_search, rotate

    assert rotate is trees.rotate
    assert max_coloring_search.__module__ == "treecolor.enumeration"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'treecolor' has no attribute 'nope'"):
        treecolor.nope  # noqa: B018
    assert not hasattr(treecolor, "nope")
    with pytest.raises(ImportError):
        exec("from treecolor import nope", {})


def test_names_are_looked_up_on_each_access(monkeypatch):
    # nothing is cached in the package, so rebinding the home module's
    # function (as the benchmark's tracer does) is seen through the package
    assert "all_trees" not in vars(treecolor)
    marker = object()
    monkeypatch.setattr(trees, "all_trees", marker)
    assert treecolor.all_trees is marker


def test_benchmark_tracer_finds_every_traced_name():
    # the benchmark's traced run wraps the functions named in bench/tracer.py;
    # install() raises on a name that is missing or that escapes tracing
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rotate, shadow_pattern = trees.rotate, maps.shadow_pattern
    t = tracer.Tracer()
    try:
        t.install()
        assert trees.rotate is not rotate
    finally:
        t.uninstall()
    assert trees.rotate is rotate
    assert maps.shadow_pattern is shadow_pattern


def _sibling_imports(node: ast.AST) -> set[str]:
    """The treecolor modules one import statement reads from."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return {node.module} if node.module else {a.name for a in node.names}
    return set()


def test_no_function_reimports_a_top_level_sibling():
    # a function may import a sibling lazily (the CLI handlers, maps -> paths),
    # but not one its module already imports unconditionally at the top
    src = Path(treecolor.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set().union(*(_sibling_imports(n) for n in tree.body))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    for mod in _sibling_imports(node) & top:
                        found.append(f"{path.name}:{node.lineno} {fn.name} re-imports .{mod}")
    assert found == []
