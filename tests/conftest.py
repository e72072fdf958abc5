import contextlib
import os
from unittest import mock

import numpy as np
import pytest

from uwachan import propagation, stats


@contextlib.contextmanager
def unit_losses():
    """Every path gain is 1 while the block runs: no spreading, absorption or
    bottom loss, so the channel's powers are its class weights alone.

    ``propagation.path_gain`` is looked up at call time by the channel and
    the statistics, so patching the module attribute reaches every caller.
    """

    def unit_gain(kind, distance_m, freq_hz, *args, **kwargs):
        return np.ones(np.broadcast(np.asarray(distance_m), np.asarray(freq_hz, dtype=float)).shape)

    with mock.patch.object(propagation, "path_gain", unit_gain):
        yield


@pytest.fixture()
def recording_pool(monkeypatch):
    """Record how many workers each ``stats._collect_rows`` call forks.

    The workers really fork: a spy wraps ``os.fork`` and counts the children
    the parent starts. Returns the list of counts, one entry per call that
    forked at all.
    """
    sizes = []
    real_fork, real_collect = os.fork, stats._collect_rows
    forks = 0

    def counting_fork():
        nonlocal forks
        pid = real_fork()
        if pid:
            forks += 1
        return pid

    def recording_collect(worker, arglist, jobs):
        nonlocal forks
        forks = 0
        try:
            return real_collect(worker, arglist, jobs)
        finally:
            if forks:
                sizes.append(forks)

    monkeypatch.setattr(os, "fork", counting_fork)
    # the callers look _collect_rows up in the module when they run
    monkeypatch.setattr(stats, "_collect_rows", recording_collect)
    return sizes
