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
        """Magnitude (m) and bearing (rad) of the displacement at time(s) t.

        Both are arrays shaped like t (0-d for a scalar t). The bearing is
        reported as 0 where the magnitude is zero.
        """
        tt = np.asarray(t, dtype=float)
        if np.any(tt < -1e-12) or np.any(tt > self.horizon + 1e-9):
            raise ValueError(
                f"drift displacement requested at t outside the built horizon "
                f"[0, {self.horizon}]"
            )
        k = np.clip((tt / self.change_interval).astype(int), 0, len(self.speeds) - 1)
        local = np.clip(tt - k * self.change_interval, 0.0, self.change_interval)
        vec = self.cumulative[k] + local[..., np.newaxis] * self.velocity[k]
        magnitude = np.hypot(vec[..., 0], vec[..., 1])
        bearing = np.where(magnitude > 0.0, np.arctan2(vec[..., 1], vec[..., 0]) % TAU, 0.0)
        return magnitude, bearing


def build_drift(cfg: DriftConfig, horizon: float, rng: np.random.Generator) -> DriftState:
    """Draw a drift-velocity path covering [0, horizon].

    Uses ceil(horizon * change_freq) intervals of exactly
    1 / change_freq seconds; per-interval speed ~ U[v_min, v_max] and
    bearing ~ U[0, 2*pi). A still drift (``v_max`` 0) draws nothing: one
    all-zero interval spans those intervals, so it covers the same time
    with one entry, and no other stream draws from the drift's.
    """
    if horizon <= 0:
        raise ValueError(f"drift horizon must be > 0, got {horizon}")
    interval = 1.0 / cfg.change_freq
    n = max(1, math.ceil(horizon * cfg.change_freq - 1e-12))
    if cfg.v_max == 0.0:
        return DriftState.from_draws(interval * n, [0.0], [0.0])
    speeds = rng.uniform(cfg.v_min, cfg.v_max, n)
    bearings = rng.uniform(0.0, TAU, n)
    return DriftState.from_draws(interval, speeds, bearings)


def surface_displacement(cfg: SurfaceMotionConfig, theta: float, t):
    """Oscillation amplitude of a surface scatterer at time(s) t, meters.

    Returns amplitude * sin(2*pi*freq*t + theta); the projection onto a ray
    direction is applied by the caller.
    """
    return cfg.amplitude * np.sin(TAU * cfg.freq * np.asarray(t, dtype=float) + theta)
