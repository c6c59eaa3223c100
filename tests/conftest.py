"""Fixtures shared by the test files."""

import pytest

from queercrystals import tableaux


@pytest.fixture
def fresh_shape_crystals():
    """An empty ``crystal_of_shape`` memo before and after the test, so a
    test that patches code a B(lam) build runs neither reads a crystal
    built before the patch nor leaves one built under it."""
    tableaux._crystal_of_shape.cache_clear()
    yield
    tableaux._crystal_of_shape.cache_clear()
