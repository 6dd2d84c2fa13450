"""End-to-end tests of the command-line interface: output shape, exit codes
and determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import treecolor
from treecolor.cli import COUNTS_MAX_N, main
from treecolor.paths import PATH_MAX_CARETS
from treecolor.trees import TREES_MAX_CARETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


# ---------- trees ----------


def test_trees_listing(capsys):
    code, out = run(capsys, "trees", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines == sorted(lines)


def test_trees_json(capsys):
    code, out = run(capsys, "trees", "2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 2
    assert data["trees"] == ["((..).)", "(.(..))"]


def test_trees_inspect(capsys):
    code, out = run(capsys, "trees", "--inspect", "(.(..))", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["carets"] == 2
    assert data["vine"] is True
    assert data["leaves"] == ["0", "10", "11"]


# ---------- color ----------


def test_color_classify(capsys):
    code, out = run(capsys, "color", "11322133", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["class"] == "Flexible"
    assert data["witness"]


def test_color_validity_exit_codes(capsys):
    assert run(capsys, "color", "23", "--tree", "(..)")[0] == 0
    assert run(capsys, "color", "22", "--tree", "(..)")[0] == 1


def test_color_pair(capsys):
    code, out = run(capsys, "color", "1", "--pair", "(.(..))", "(.(..))", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data["colorings"]) == 2


# ---------- path ----------


def test_path_word_to_pair(capsys):
    code, out = run(capsys, "path", "0 e", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["pair"] == ["(((..).).)", "(.((..).))"]


def test_path_evaluate(capsys):
    code, out = run(capsys, "path", "e", "--start", "((..).)")
    assert code == 0
    assert out.strip().splitlines() == ["((..).)", "(.(..))"]


def test_path_find(capsys):
    code, out = run(capsys, "path", "--find", "((..).)", "(.(..))", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["path"] == "e"


def test_path_moves(capsys):
    assert run(capsys, "path", "0 11", "--square", "0") == (0, "11 0\n")
    assert run(capsys, "path", "0 e 1", "--pentagon", "0") == (0, "e e\n")
    # square wins when both moves are given
    assert run(capsys, "path", "0 11", "--square", "0", "--pentagon", "0") == (0, "11 0\n")


# ---------- sigma ----------


def test_sigma_balanced(capsys):
    code, out = run(capsys, "sigma", "0 e", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["balanced"] is True and data["components"] == 1


def test_sigma_unbalanced_exit(capsys):
    code, out = run(capsys, "sigma", "0 e 1")
    assert code == 1
    assert out.startswith("unbalanced")


def test_sigma_dot(capsys):
    code, out = run(capsys, "sigma", "0 e", "--dot")
    assert code == 0
    assert out.startswith("graph")


# ---------- graph ----------


def test_graph_summary(capsys):
    code, out = run(capsys, "graph", "11211", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["diameter"] == 4  # 1^2 2 1^2 spans a diameter-4 graph


def test_graph_zero_set(capsys):
    code, out = run(capsys, "graph", "1231", "--zero-set", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["intervals"] == [[1, 3], [2, 4]]


def test_graph_dot(capsys):
    code, out = run(capsys, "graph", "1121", "--dot")
    assert code == 0
    assert out.startswith("graph")


# ---------- map ----------


def test_map_primality_exit(capsys):
    assert run(capsys, "map", "((..).)", "(.(..))")[0] == 0
    assert run(capsys, "map", "(.(..))", "(.(..))")[0] == 1


def test_map_factor(capsys):
    code, out = run(capsys, "map", "((..).)", "(.(..))", "--factor", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["factors"] == [["((..).)", "(.(..))"]]


def test_map_chromatic(capsys):
    code, out = run(capsys, "map", "--chromatic", "W", "8", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["colorings"] == 288 and data["per_s4"] == 12


# ---------- counts and searches ----------


def test_counts(capsys):
    code, out = run(capsys, "counts", "--kind", "jacobsthal", "--n", "6")
    assert (code, out) == (0, "21\n")
    code, out = run(capsys, "counts", "--kind", "rigid", "--n", "5", "--json")
    assert json.loads(out)["value"] == 21


def test_mi_search_csv(capsys):
    code, out = run(capsys, "mi-search", "--n", "6", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,rank,count,witness_d,witness_r"
    assert lines[1].startswith("6,1,4,")


def test_verify_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "catalan")
    assert code == 0
    assert out.startswith("catalan: ok")


def test_verify_unknown_suite(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2


def test_verify_reports_a_crashing_suite(capsys, monkeypatch):
    from treecolor import suites

    def crash():
        raise RuntimeError("no such tree")

    monkeypatch.setattr(suites, "SUITES", {"a": crash, "b": lambda: "fine"})
    assert run(capsys, "verify") == (1, "a: FAIL (RuntimeError: no such tree)\nb: ok (fine)\n")
    assert run(capsys, "verify", "--suite", "a") == (1, "a: FAIL (RuntimeError: no such tree)\n")


# ---------- errors and determinism ----------


def test_domain_error_exit(capsys):
    assert run(capsys, "trees", "--inspect", "((..)")[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["map", "(..)"], "expected exactly two trees"),
        (["map", "(..)", "(..)", "(..)"], "expected exactly two trees"),
        (["mi-search", "--n", "11"], "n=11 outside [2, 8]"),
        (["trees", "2", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
        # refused before the 10^8-vertex biwheel is built
        (["map", "--chromatic", "W", "100000000"], "exact counter limited to 16 vertices"),
        (["map", "(..)", "(((..).).)"], "leaf counts differ: 2 != 4"),
        (["map", "--factor", "(..)", "(((..).).)"], "leaf counts differ: 2 != 4"),
        (["map", "--chromatic", "W", "abc"], "--chromatic N must be an integer, got 'abc'"),
        # size budgets: 16 carets would list 35M trees, and a count this large
        # would pass Python's 4300-digit int-to-str limit
        (["trees", "13"], f"trees limited to {TREES_MAX_CARETS} carets, got 13"),
        (["counts", "--kind", "rigid", "--n", "100000"], f"counts limited to n <= {COUNTS_MAX_N}"),
        (["counts", "--kind", "jacobsthal", "--n", "-1"], "index must be >= 0"),
        # a 16-caret search ran past 20 s
        (
            [
                "path", "x", "--find",
                "(((.((..)(..)))((.(((..)(..))(..)))((..).)))(..))",
                "(.(((((.(..)).)(..))(.(..)))(((.(..))(..))(..))))",
            ],
            f"path search limited to {PATH_MAX_CARETS} carets, got 16",
        ),
        (["color", "12", "--pair", "(..)", "((..).)"], "leaf counts differ: 2 != 3"),
    ],
)
def test_usage_errors_exit_2(argv, message):
    # a fresh process, so that a traceback would reach stderr instead of pytest
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "treecolor.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert message in out.stderr
    assert "Traceback" not in out.stderr


def test_deterministic_output(capsys):
    a = run(capsys, "graph", "112131")
    b = run(capsys, "graph", "112131")
    assert a == b


# ---------- start-up ----------


@pytest.mark.parametrize("module", ["treecolor", "treecolor.cli"])
def test_import_leaves_networkx_unloaded(module):
    # networkx is loaded by the commands that build graphs, not by import
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, {module}; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["map", "--chromatic", "W", "8"],
        ["map", "((..).)", "(.(..))", "--factor"],
        ["color", "1", "--pair", "((..).)", "(.(..))"],
        ["mi-search", "--n", "8"],
    ],
)
def test_commands_leave_networkx_unloaded(argv):
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import contextlib, io, sys\n"
        "from treecolor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"



# ---------- modules loaded per command ----------

ALL_MODULES = {
    name.removesuffix(".py")
    for name in os.listdir(os.path.dirname(treecolor.__file__))
    if name.endswith(".py") and name != "__init__.py"
}
# the treecolor modules each command runs, besides cli and errors
MODULES_RUN = {
    "trees": {"trees"},
    "color": {"coloring", "trees"},
    "path": {"thompson", "trees"},
    "sigma": {"paths", "coloring", "thompson", "trees"},
    "graph": {"assoc", "coloring", "trees"},
    "map": {"maps", "coloring", "thompson", "trees"},
    "mi-search": {"enumeration", "coloring", "thompson", "trees"},
    "counts": {"enumeration", "coloring", "thompson", "trees"},
    "verify": ALL_MODULES,
}


def _pinned_commands() -> list[dict]:
    """The commands of the benchmark's cli-mix workload, each with its argv,
    exit code and stdout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "cli_expected.json"), encoding="utf-8") as f:
        return json.load(f)["commands"]


def _pinned_argv() -> list[list[str]]:
    return [c["argv"] for c in _pinned_commands()]


@pytest.mark.parametrize("cmd", _pinned_commands(), ids=lambda c: " ".join(c["argv"]))
def test_pinned_commands_reproduce_their_output(capsys, cmd):
    assert run(capsys, *cmd["argv"]) == (cmd["exit"], cmd["stdout"])


def _loaded_modules(code: str) -> set[str]:
    """The treecolor submodules, and json, loaded after running code in a
    fresh interpreter."""
    src = os.path.dirname(os.path.dirname(treecolor.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code += (
        "\nimport sys\n"
        "print(*(m for m in sys.modules if m.startswith('treecolor.') or m == 'json'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return {m.removeprefix("treecolor.") for m in out.stdout.split()}


def test_import_loads_no_submodule():
    assert _loaded_modules("import treecolor") == set()
    assert _loaded_modules("import treecolor.cli") == {"cli", "errors"}


@pytest.mark.parametrize("argv", _pinned_argv(), ids=" ".join)
def test_commands_load_only_the_modules_they_run(argv):
    code = (
        "import contextlib, io\n"
        "from treecolor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({argv!r})\n"
    )
    json_module = {"json"} if "--json" in argv else set()
    assert _loaded_modules(code) == MODULES_RUN[argv[0]] | {"cli", "errors"} | json_module


# ---------- fuzzing the command line ----------

# small arguments only, so that every drawn command runs in milliseconds
ints_st = st.integers(-2, 6).map(str)
trees_st = st.sampled_from(
    [".", "(..)", "((..).)", "(.(..))", "((..)(..))", "(((..).).)", "(.((..).))", "(..", "x", ""]
)
words_st = st.lists(
    st.sampled_from(["e", "~e", "0", "~0", "1", "~1", "00", "~01", "11", "2", "~"]), max_size=4
).map(" ".join)
vectors_st = st.text(alphabet="01234", max_size=7)
families_st = st.sampled_from(["W", "Theta", "Xi", "Y", "Nabla", "Q"])
json_st = st.sampled_from([[], ["--json"]])


def _command(name, *parts):
    """argv for one command: its name, then each drawn part's tokens."""
    return st.tuples(*parts).map(lambda t: [name] + [x for part in t for x in part])


def _one(x):
    return [x]


def _flag(flag, values):
    return values.map(lambda v: [flag, *v] if isinstance(v, tuple) else [flag, v])


FLAGS = ["--json", "--n", "--kind", "--start", "--tree", "--pair", "--factor", "--square", "--dot"]
nothing = st.just([])
tree_pair_st = st.tuples(trees_st, trees_st)

argv_st = st.one_of(
    _command(
        "trees",
        st.one_of(nothing, ints_st.map(_one)),
        st.one_of(nothing, _flag("--inspect", trees_st)),
        json_st,
    ),
    _command(
        "color",
        vectors_st.map(_one),
        st.one_of(nothing, _flag("--tree", trees_st), _flag("--pair", tree_pair_st)),
        json_st,
    ),
    _command(
        "path",
        words_st.map(_one),
        st.one_of(
            nothing,
            _flag("--start", trees_st),
            _flag("--find", tree_pair_st),
            _flag("--square", ints_st),
            _flag("--pentagon", ints_st),
        ),
        json_st,
    ),
    _command("sigma", words_st.map(_one), st.sampled_from([[], ["--dot"], ["--json"]])),
    _command(
        "graph",
        vectors_st.map(_one),
        st.sampled_from([[], ["--zero-set"], ["--dot"], ["--json"], ["--zero-set", "--json"]]),
    ),
    _command(
        "map",
        st.lists(trees_st, max_size=3),
        st.sampled_from([[], ["--factor"]]),
        st.one_of(nothing, _flag("--chromatic", st.tuples(families_st, ints_st | st.just("abc")))),
        json_st,
    ),
    _command(
        "counts",
        _flag("--kind", st.sampled_from(["acceptable", "rigid", "flexible", "jacobsthal", "other"])),
        _flag("--n", ints_st),
        json_st,
    ),
    _command("mi-search", _flag("--n", ints_st), st.sampled_from([[], ["--csv"], ["--json"]])),
    _command("verify", st.sampled_from([["--suite", "nope"], ["--suite"], ["extra"]])),
    # argument soup: any mix of the flags and values above after a name
    st.tuples(
        st.sampled_from(["trees", "color", "path", "sigma", "graph", "map", "counts", "mi-search", "x"]),
        st.lists(ints_st | trees_st | words_st | vectors_st | st.sampled_from(FLAGS), max_size=5),
    ).map(lambda t: [t[0], *t[1]]),
)


@settings(max_examples=250, deadline=None)
@given(argv_st)
def test_cli_fuzz_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the command line
            assert e.code == 2, (argv, err.getvalue())
            return
    assert code in (0, 1, 2), argv
    if code == 2:  # a usage error says why
        assert err.getvalue(), argv
