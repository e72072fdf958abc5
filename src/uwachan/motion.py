"""The three motion processes: intentional, random drift, surface oscillation.

Intentional motion is pure geometry and lives in :mod:`uwachan.geometry`;
this module realizes the two random processes as deterministic functions of
time given their frozen random draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import TAU, DriftConfig, SurfaceMotionConfig

__all__ = ["DriftState", "build_drift", "surface_displacement"]


@dataclass(frozen=True, eq=False)
class DriftState:
    """Piecewise-constant drift velocity and its integrated displacement.

    The velocity is redrawn every ``change_interval`` seconds starting at
    t = 0; the displacement is the exact piecewise-linear integral of the
    velocity path and is zero at t = 0.
    """

    change_interval: float  # s
    speeds: np.ndarray  # (n,) m/s
    bearings: np.ndarray  # (n,) rad in [0, 2*pi)
    velocity: np.ndarray = field(repr=False)  # (n, 2) m/s cartesian
    cumulative: np.ndarray = field(repr=False)  # (n + 1, 2) m at interval starts

    @classmethod
    def from_draws(cls, change_interval: float, speeds, bearings) -> "DriftState":
        speeds = np.asarray(speeds, dtype=float)
        bearings = np.asarray(bearings, dtype=float)
        if speeds.shape != bearings.shape or speeds.ndim != 1 or speeds.size == 0:
            raise ValueError("speeds and bearings must be equal-length 1-D arrays")
        velocity = np.stack([speeds * np.cos(bearings), speeds * np.sin(bearings)], axis=1)
        cumulative = np.vstack([np.zeros((1, 2)), np.cumsum(velocity * change_interval, axis=0)])
        return cls(
            change_interval=float(change_interval),
            speeds=speeds,
            bearings=bearings,
            velocity=velocity,
            cumulative=cumulative,
        )

    @property
    def horizon(self) -> float:
        """Last instant covered by the built intervals."""
        return self.change_interval * len(self.speeds)

    def displacement(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Displacement (dx, dz) in m at time(s) t: x along the Tx->Rx
        axis and z up, as in the geometry. Both are arrays shaped like t
        (0-d for a scalar t).
        """
        tt = np.asarray(t, dtype=float)
        if np.any(tt < -1e-12) or np.any(tt > self.horizon + 1e-9):
            raise ValueError(
                f"drift displacement requested at t outside the built horizon "
                f"[0, {self.horizon}]"
            )
        # An instant on an interval boundary belongs to the interval it ends,
        # so a path built to reach t never reads the interval starting at t.
        k = np.clip(np.ceil(tt / self.change_interval).astype(int) - 1, 0, len(self.speeds) - 1)
        local = np.clip(tt - k * self.change_interval, 0.0, self.change_interval)
        vec = self.cumulative[k] + local[..., np.newaxis] * self.velocity[k]
        return vec[..., 0], vec[..., 1]


def build_drift(cfg: DriftConfig, horizon: float, rng: np.random.Generator) -> DriftState:
    """Draw a drift-velocity path covering [0, horizon].

    Uses ceil(horizon / interval) intervals of exactly interval =
    1 / change_freq seconds, at least one. Each draws its (speed, bearing)
    pair in turn, speed ~ U[v_min, v_max] and bearing ~ U[0, 2*pi), so a
    longer horizon extends the same path. A still drift (``v_max`` 0)
    draws nothing: one all-zero interval spans those intervals, so it
    covers the same time with one entry, and no other stream draws from
    the drift's.
    """
    if not horizon >= 0:
        raise ValueError(f"drift horizon must be >= 0, got {horizon}")
    interval = 1.0 / cfg.change_freq
    n = max(1, math.ceil(horizon / interval))
    if cfg.v_max == 0.0:
        return DriftState.from_draws(interval * n, [0.0], [0.0])
    speeds, bearings = rng.uniform((cfg.v_min, 0.0), (cfg.v_max, TAU), (n, 2)).T.copy()
    return DriftState.from_draws(interval, speeds, bearings)


def surface_displacement(cfg: SurfaceMotionConfig, theta: float, t):
    """Oscillation amplitude of a surface scatterer at time(s) t, meters.

    Returns amplitude * sin(2*pi*freq*t + theta); the projection onto a ray
    direction is applied by the caller.
    """
    return cfg.amplitude * np.sin(TAU * cfg.freq * np.asarray(t, dtype=float) + theta)
