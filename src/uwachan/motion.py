"""The three motion processes: intentional, random drift, surface oscillation.

Intentional motion is pure geometry and lives in :mod:`uwachan.geometry`;
this module realizes the two random processes as deterministic functions of
time given their random draws.
"""
from __future__ import annotations

import math
import reprlib

import numpy as np

from .scenario import TAU, DriftConfig, SurfaceMotionConfig

__all__ = ["drift_displacement", "surface_displacement"]


def drift_displacement(drift: DriftConfig, rng: np.random.Generator, t) -> tuple[np.ndarray, np.ndarray]:
    """A platform's drift displacement (dx, dz) in m at time(s) t >= 0: x
    along the Tx->Rx axis and z up, as in the geometry, each an array shaped
    like t.

    The drift velocity is piecewise constant: ceil(max(t) / interval)
    intervals of interval = 1 / change_freq seconds from t = 0, at least
    one, each drawing its (speed, bearing) pair from ``rng`` in turn, speed
    ~ U[v_min, v_max] and bearing ~ U[0, 2*pi). So a later instant extends
    the same path. The displacement is the path's exact integral, zero at
    t = 0. A still drift (``v_max`` 0) draws nothing. A path of more
    intervals than a numpy array can hold, or than memory can allocate, is
    a ValueError naming ``drift.change_freq``.
    """
    tt = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(tt) & (tt >= 0.0))
    if bad.any():
        raise ValueError(f"drift displacement needs finite instants >= 0 s, got {float(tt[bad][0])!r}")
    if drift.v_max == 0.0:
        return np.zeros_like(tt), np.zeros_like(tt)
    interval = 1.0 / drift.change_freq
    reach = float(tt.max(initial=0.0))
    count = reach / interval  # the intervals the path must cover
    try:
        n = max(1, math.ceil(count))
        speed, bearing = rng.uniform((drift.v_min, 0.0), (drift.v_max, TAU), (n, 2)).T.copy()
    except (OverflowError, ValueError, MemoryError) as exc:  # a count past any float, array size or memory
        shown = reprlib.repr(math.ceil(count) if math.isfinite(count) else count)
        why = "a path that cannot be allocated" if isinstance(exc, MemoryError) else "more than a numpy array can hold"
        raise ValueError(
            f"drift.change_freq={drift.change_freq!r} Hz needs {shown} velocity intervals "
            f"to reach t={reach!r} s, {why}"
        ) from exc
    # An instant on an interval boundary belongs to the interval it ends, so
    # a path drawn to reach t never reads the interval starting at t.
    k = np.clip(np.ceil(tt / interval).astype(int) - 1, 0, n - 1)
    local = np.clip(tt - k * interval, 0.0, interval)
    displacement = []
    for velocity in (speed * np.cos(bearing), speed * np.sin(bearing)):
        start = np.concatenate([[0.0], np.cumsum(velocity * interval)])  # at each interval's start
        displacement.append(start[k] + local * velocity[k])
    return tuple(displacement)


def surface_displacement(cfg: SurfaceMotionConfig, theta: float, t):
    """Oscillation amplitude of a surface scatterer at time(s) t, meters.

    Returns amplitude * sin(2*pi*freq*t + theta); the projection onto a ray
    direction is applied by the caller.
    """
    return cfg.amplitude * np.sin(TAU * cfg.freq * np.asarray(t, dtype=float) + theta)
