"""Amplitude loss models: spreading, absorption, bottom reflection.

All functions return arrays shaped like their input (0-d for a scalar): linear
amplitude ratios in (0, 1], or the Thorp attenuation in dB/km. Frequencies
are absolute (carrier + baseband offset); the Thorp attenuation takes kHz,
everything else Hz.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .scenario import BottomConfig

__all__ = [
    "PathKind",
    "thorp_attenuation",
    "absorption_loss",
    "spreading_loss",
    "bottom_reflection",
    "path_gain",
]


class PathKind(Enum):
    """Propagation class of a path: direct, last bounce above, or below."""

    LOS = "los"
    DA = "da"  # downward arrival: final reflection at the surface
    UA = "ua"  # upward arrival: final reflection at the bottom


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first entry of ``values`` flagged in ``bad``, as a plain float."""
    return float(values[bad][0])


def thorp_attenuation(f_khz):
    """Seawater attenuation in dB/km at frequency ``f_khz`` (kHz, > 0)."""
    f = np.asarray(f_khz, dtype=float)
    if (f <= 0).any():
        raise ValueError(f"frequency must be > 0 kHz, got {_first(f, f <= 0)!r}")
    f2 = f * f
    alpha = 0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
    return alpha


def absorption_loss(distance_m, f_khz):
    """Amplitude ratio after absorption over ``distance_m`` meters."""
    d = np.asarray(distance_m, dtype=float)
    if (d < 0).any():
        raise ValueError(f"distance must be >= 0 m, got {_first(d, d < 0)!r}")
    return 10.0 ** (-(d * thorp_attenuation(f_khz)) / 20000.0)


def spreading_loss(distance_m):
    """Spherical spreading amplitude ratio 1/d for a point source."""
    d = np.asarray(distance_m, dtype=float)
    if (d <= 0).any():
        raise ValueError(f"distance must be > 0 m, got {_first(d, d <= 0)!r}")
    return 1.0 / d


def bottom_reflection(incidence, bottom: BottomConfig, water_sound_speed: float):
    """|Rayleigh reflection coefficient| at the bottom.

    ``incidence`` is measured from the bottom normal, in [0, pi/2). Beyond
    the critical angle the radicand goes negative, the root is purely
    imaginary and the magnitude is exactly 1 (total internal reflection).
    """
    phi = np.asarray(incidence, dtype=float)
    outside = (phi < 0) | (phi >= math.pi / 2)
    if outside.any():
        raise ValueError(f"incidence must lie in [0, pi/2), got {_first(phi, outside)!r}")
    m = bottom.density_ratio
    n = water_sound_speed / bottom.sound_speed
    radicand = n * n - np.sin(phi) ** 2
    a = m * np.cos(phi)
    with np.errstate(invalid="ignore"):
        q = np.sqrt(np.maximum(radicand, 0.0))
        sub = np.abs((a - q) / (a + q))
    return np.where(radicand < 0.0, 1.0, sub)


def path_gain(
    kind: PathKind,
    distance_m,
    freq_hz,
    incidence=None,
    bottom_bounces: int = 0,
    bottom: BottomConfig | None = None,
    water_sound_speed: float | None = None,
) -> np.ndarray:
    """Amplitude gain of one path at an absolute frequency.

    The product spreading x absorption x bottom factor, in that order. Every
    diffuse ray of a reflected path carries its path's gain; the bottom
    factor is raised to the path's bottom-contact count.
    """
    f = np.asarray(freq_hz, dtype=float)
    if (f <= 0).any():
        raise ValueError(f"absolute frequency must be > 0 Hz, got {_first(f, f <= 0)!r}")
    spreading = spreading_loss(distance_m)
    absorption = absorption_loss(distance_m, f / 1000.0)
    if kind is PathKind.LOS:
        if incidence is not None or bottom_bounces:
            raise ValueError("a direct path has no bottom incidence or bounces")
        bottom_factor = 1.0
    else:
        if bottom_bounces < 0:
            raise ValueError(f"bottom_bounces must be >= 0, got {bottom_bounces}")
        if bottom_bounces == 0:
            bottom_factor = 1.0
        else:
            if incidence is None or bottom is None or water_sound_speed is None:
                raise ValueError("bottom-interacting paths need incidence, bottom and water_sound_speed")
            bottom_factor = bottom_reflection(incidence, bottom, water_sound_speed) ** bottom_bounces
    return spreading * absorption * bottom_factor
