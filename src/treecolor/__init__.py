"""Binary-tree rotations, tree-pair group arithmetic, Z2xZ2 edge colorings,
signed-path balance, and 4-coloring counts of the associated sphere maps.

The public names load their home module on first access (PEP 562), so
``import treecolor`` loads no submodule.  The names are looked up on every
access rather than cached here, so rebinding a function in its home module
is seen through the package too.
"""

from importlib import import_module

# public name -> home module
_HOME = {
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

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
