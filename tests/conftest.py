"""Fixtures shared by the test modules."""

import pytest

from convexsums import expsum


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each thread pool that expsum starts during the test."""
    made = []
    real = expsum.ThreadPoolExecutor

    def spy(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(expsum, "ThreadPoolExecutor", spy)
    return made
