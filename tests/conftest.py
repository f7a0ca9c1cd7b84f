"""Fixtures shared by the test modules."""

import pytest

from sgblow.invariants import ring


@pytest.fixture
def fresh_rings():
    """An empty ring cache before and after the test: a planted ring or pair
    must not outlive its test, nor an honest one leak into it."""
    ring.cache_clear()
    yield
    ring.cache_clear()
