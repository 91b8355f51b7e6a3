"""Shared fixtures."""

from __future__ import annotations

import pytest

from rothe import oracle


@pytest.fixture
def in_process_pool(monkeypatch) -> list[int]:
    """Replace the sweeps' process pool with one that maps in this process.

    Returns the list to which each pool started appends its worker count.
    """
    started: list[int] = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(oracle.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return started
