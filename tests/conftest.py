"""Shared test fixtures."""

import os
from pathlib import Path

import pytest

import olala.lattice as lattice


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    """pyproject's pythonpath setting reaches only the pytest process; the CLI
    subprocesses that tests start import olala through PYTHONPATH, so put the
    checkout's src first there too."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def _clear_enumeration_memo(monkeypatch):
    """Start each test with an empty lattice enumeration memo, so tests that
    count enumerations see the same counts in any order or selection."""
    monkeypatch.setattr(lattice, "_memo", None)
