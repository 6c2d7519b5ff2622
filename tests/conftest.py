"""Shared test fixtures."""

import pytest

import olala.lattice as lattice


@pytest.fixture(autouse=True)
def _clear_enumeration_memo(monkeypatch):
    """Start each test with an empty lattice enumeration memo, so tests that
    count fresh enumerations see the same counts in any order or selection."""
    monkeypatch.setattr(lattice, "_memo", None)
