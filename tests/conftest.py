"""Fixtures shared by the test modules."""

import pytest

from test_golden import ROWS, GoldenWorld, build_world


@pytest.fixture(scope="session", params=sorted(ROWS))
def golden_world(request) -> GoldenWorld:
    """Each golden world, built and run under every strategy once per session."""
    return build_world(request.param)
