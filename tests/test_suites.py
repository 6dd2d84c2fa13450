"""The named verification suites must all hold; they are also reachable
through the ``verify`` CLI command."""

from __future__ import annotations

import pytest

from treecolor import suites
from treecolor.suites import SUITES


EXPECTED = {
    "acceptability",
    "balance",
    "catalan",
    "chromatic",
    "counts",
    "factor-law",
    "primality",
    "prime-sigma",
    "trichotomy",
    "zero-sets",
}


def test_registry_names():
    assert set(SUITES) == EXPECTED


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_suite_passes(name):
    detail = SUITES[name]()
    assert isinstance(detail, str) and detail


def test_balance_suite_propagates_unexpected_errors(monkeypatch):
    # only a missing pivot disqualifies a start tree; anything else is a fault
    def broken(T, w):
        raise RuntimeError("broken path_evaluate")

    monkeypatch.setattr(suites.thompson, "path_evaluate", broken)
    with pytest.raises(RuntimeError, match="broken path_evaluate"):
        suites.suite_balance()
