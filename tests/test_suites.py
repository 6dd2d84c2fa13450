"""The named verification suites must all hold; they are also reachable
through the ``verify`` CLI command."""

from __future__ import annotations

import pytest

from treecolor import suites
from treecolor.suites import SUITES


# each suite's detail line, which `treecolor verify` prints
EXPECTED = {
    "acceptability": "3276 vectors checked to length 7",
    "balance": "203 sampled words verified",
    "catalan": "tree counts match through n=10",
    "chromatic": "five families verified to n=10",
    "counts": "recurrences match brute force to n=8",
    "factor-law": "1054 reduced pairs obey the factor count law",
    "primality": "1990 pairs cross-checked",
    "prime-sigma": "15 prime-endpoint words have connected structures",
    "trichotomy": "2448 acceptable vectors classified to length 7",
    "zero-sets": "closure rules hold for 3276 vectors",
}


def test_registry_names():
    assert set(SUITES) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suite_passes(name):
    assert SUITES[name]() == EXPECTED[name]


def test_balance_suite_propagates_unexpected_errors(monkeypatch):
    # the suite catches nothing: a fault in the sign structure is a failure
    def broken(w):
        raise RuntimeError("broken sign_structure")

    monkeypatch.setattr(suites.paths, "sign_structure", broken)
    with pytest.raises(RuntimeError, match="broken sign_structure"):
        suites.suite_balance()
