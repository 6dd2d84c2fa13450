"""End-to-end tests of the command-line interface: output shape, exit codes
and determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import treecolor
from treecolor.cli import main


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


# ---------- errors and determinism ----------


def test_domain_error_exit(capsys):
    assert run(capsys, "trees", "--inspect", "((..)")[0] == 2


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
