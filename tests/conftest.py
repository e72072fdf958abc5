import concurrent.futures
import contextlib
from unittest import mock

import numpy as np
import pytest

from uwachan import propagation


@contextlib.contextmanager
def unit_losses():
    """Every path gain is 1 while the block runs: no spreading, absorption or
    bottom loss, so the channel's powers are its class weights alone.

    ``propagation.path_gain`` is looked up at call time by the channel and
    the statistics, so patching the module attribute reaches every caller.
    """

    def unit_gain(kind, distance_m, freq_hz, *args, **kwargs):
        ones = np.ones(np.broadcast(np.asarray(distance_m), np.asarray(freq_hz, dtype=float)).shape)
        return propagation.LossBreakdown(spreading=ones, absorption=ones, bottom=1.0)

    with mock.patch.object(propagation, "path_gain", unit_gain):
        yield


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
