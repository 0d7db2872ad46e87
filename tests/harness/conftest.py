"""Shared fixtures for the harness tests."""

import pytest

from repro.harness import grid


@pytest.fixture(autouse=True)
def empty_cell_memo():
    """Every test starts and ends with an empty cell memo, so no test is
    served cells that an earlier test simulated."""
    grid._CELL_MEMO.clear()
    yield
    grid._CELL_MEMO.clear()
