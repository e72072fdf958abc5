import concurrent.futures

import pytest


@pytest.fixture()
def recording_pool(monkeypatch):
    """Replace the worker pool: record each pool's size and run its tasks in-process.

    Returns the list of recorded sizes, one entry per pool started.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    # stats._collect_rows imports the pool class from here when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
