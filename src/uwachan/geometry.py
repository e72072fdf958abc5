"""Time-varying propagation geometry.

Angle conventions: ray departure/arrival angles are measured
counter-clockwise from the horizontal Tx->Rx axis, in [0, 2*pi); boundary
incidence angles are measured from the boundary normal and lie in (0, pi/2).
With these conventions the mean ray angles at a reflection point are exactly
pi/2 -+ incidence (surface) and 3*pi/2 +- incidence (bottom).

Per-ray random draws (angles, surface phases, mid-leg perturbation) are
frozen when a ray is created. A multi-bounce ray keeps its departure and
arrival angles fixed in absolute terms; a single-bounce ray keeps its
arrival angle, and its departure angle is re-derived from it at each t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .motion import surface_displacement
from .propagation import PathKind
from .scenario import TAU, ClusterConfig, GeometryConfig, IntentionalMotion, SurfaceMotionConfig

__all__ = [
    "GeometryError",
    "Boundary",
    "PathIndex",
    "enumerate_paths",
    "GeometryState",
    "evolve",
    "los_distance",
    "ClusterGeometry",
    "macro_ray",
    "RayDraws",
    "sample_micro_ray_mb",
    "sample_micro_ray_sb",
    "micro_ray_distances",
    "segment_lengths",
]

_MIN_SIN = 1e-12
# Draws of one ray slot before its sampler (or the build's floor check)
# gives up with a GeometryError.
MAX_TRIES = 1000


class GeometryError(ValueError):
    """The requested geometry is outside the model's valid domain."""


class Boundary(Enum):
    SURFACE = "surface"
    BOTTOM = "bottom"


@dataclass(frozen=True)
class PathIndex:
    """One reflected sub-path, identified by its boundary-contact counts."""

    kind: PathKind
    surface_hops: int
    bottom_hops: int

    def __post_init__(self):
        if self.kind is PathKind.DA:
            ok = self.surface_hops >= 1 and self.bottom_hops in (self.surface_hops - 1, self.surface_hops)
        elif self.kind is PathKind.UA:
            ok = self.bottom_hops >= 1 and self.surface_hops in (self.bottom_hops - 1, self.bottom_hops)
        else:
            ok = False
        if not ok:
            raise GeometryError(
                f"invalid path index: kind={self.kind}, surface_hops={self.surface_hops}, "
                f"bottom_hops={self.bottom_hops}"
            )

    @property
    def is_single_bounce(self) -> bool:
        return self.surface_hops + self.bottom_hops == 1

    @property
    def first_boundary(self) -> Boundary:
        if self.kind is PathKind.DA:
            return Boundary.BOTTOM if self.surface_hops == self.bottom_hops else Boundary.SURFACE
        return Boundary.SURFACE if self.surface_hops == self.bottom_hops else Boundary.BOTTOM

    @property
    def last_boundary(self) -> Boundary:
        return Boundary.SURFACE if self.kind is PathKind.DA else Boundary.BOTTOM

    @property
    def label(self) -> str:
        if self.kind is PathKind.DA:
            return f"da_s{self.surface_hops}_b{self.bottom_hops}"
        return f"ua_b{self.bottom_hops}_s{self.surface_hops}"


def enumerate_paths(clusters: ClusterConfig) -> tuple[PathIndex, ...]:
    """All sub-paths of a scenario, surface-final first, in a fixed order."""
    paths = []
    for s in range(1, clusters.max_surface_hops + 1):
        for b in (s - 1, s):
            paths.append(PathIndex(PathKind.DA, s, b))
    for b in range(1, clusters.max_bottom_hops + 1):
        for s in (b - 1, b):
            paths.append(PathIndex(PathKind.UA, s, b))
    return tuple(paths)


@dataclass(frozen=True, eq=False)
class GeometryState:
    """Horizontal range, platform heights, and the direct-path angle at time t.

    ``tx_depth``/``rx_depth`` are heights above the bottom, despite their
    names: the bottom is at 0 and the surface at the water depth, so a
    heading of pi/2 moves a platform up. The direct path departs at
    ``aod_los`` and arrives at ``aod_los + pi``. Fields are arrays shaped
    like t (0-d for a scalar t).
    """

    distance: np.ndarray
    tx_depth: np.ndarray
    rx_depth: np.ndarray
    aod_los: np.ndarray


def _first(tt: np.ndarray, bad: np.ndarray) -> float:
    """The earliest instant of ``tt`` flagged in ``bad``, as a plain float."""
    return float(np.broadcast_to(tt, bad.shape)[bad].min())


def evolve(geometry: GeometryConfig, motion: IntentionalMotion, t) -> GeometryState:
    """Geometry under intentional motion only; drift does not move platforms."""
    tt = np.asarray(t, dtype=float)
    distance = (
        geometry.distance0
        - motion.tx_speed * tt * math.cos(motion.tx_heading)
        + motion.rx_speed * tt * math.cos(motion.rx_heading)
    )
    tx_depth = geometry.tx_depth0 + motion.tx_speed * tt * math.sin(motion.tx_heading)
    rx_depth = geometry.rx_depth0 + motion.rx_speed * tt * math.sin(motion.rx_heading)
    if (distance <= 0).any():
        raise GeometryError(f"Tx-Rx horizontal distance became <= 0 by t={_first(tt, distance <= 0)!r}")
    for name, depth in (("Tx", tx_depth), ("Rx", rx_depth)):
        breach = (depth <= 0) | (depth >= geometry.water_depth)
        if breach.any():
            raise GeometryError(f"{name} breaches the water column by t={_first(tt, breach)!r}")
    aod_los = np.arctan2(rx_depth - tx_depth, distance)
    return GeometryState(distance, tx_depth, rx_depth, aod_los)


def los_distance(state: GeometryState, drift_tx=(0.0, 0.0), drift_rx=(0.0, 0.0)) -> np.ndarray:
    """Direct-path length with first-order drift projections removed.

    ``drift_tx``/``drift_rx`` are (displacement m, bearing rad) pairs; the
    approximation assumes displacements small against the range.
    """
    dd_t, alpha_t = drift_tx
    dd_r, alpha_r = drift_rx
    base = np.hypot(state.distance, state.rx_depth - state.tx_depth)
    return (
        base
        - dd_t * np.cos(np.asarray(alpha_t) - state.aod_los)
        - dd_r * np.cos(state.aod_los + math.pi - np.asarray(alpha_r))
    )


@dataclass(frozen=True, eq=False)
class ClusterGeometry:
    """Specular-reflection geometry of one sub-path at time t.

    ``distance`` is the unfolded image-method path length, ``incidence`` the
    boundary incidence angle, and the three legs split the path at the first
    and last reflection clusters (``leg_mid`` is 0 for single bounces).
    Fields are arrays shaped like the state's.
    """

    path: PathIndex
    distance: np.ndarray
    incidence: np.ndarray
    mean_aod: np.ndarray
    mean_aoa: np.ndarray
    leg_tx: np.ndarray
    leg_rx: np.ndarray
    leg_mid: np.ndarray


def macro_ray(state: GeometryState, water_depth: float, path: PathIndex) -> ClusterGeometry:
    """Image-method distance, incidence angle and leg split of a sub-path."""
    h_t, h_r, dist = state.tx_depth, state.rx_depth, state.distance
    if path.kind is PathKind.DA:
        tx_sign = 1.0 if path.surface_hops == path.bottom_hops else -1.0
        vertical = 2.0 * path.surface_hops * water_depth + tx_sign * h_t - h_r
    else:
        tx_sign = -1.0 if path.surface_hops == path.bottom_hops else 1.0
        vertical = 2.0 * path.surface_hops * water_depth + tx_sign * h_t + h_r
    if (vertical <= 0).any():
        raise GeometryError(f"non-positive unfolded vertical extent for {path.label}")
    distance = np.hypot(dist, vertical)
    incidence = np.arctan2(dist, vertical)  # in (0, pi/2) for positive operands
    cos_inc = np.cos(incidence)
    if path.first_boundary is Boundary.SURFACE:
        mean_aod = math.pi / 2 - incidence
        leg_tx = (water_depth - h_t) / cos_inc
    else:
        mean_aod = 3 * math.pi / 2 + incidence
        leg_tx = h_t / cos_inc
    if path.last_boundary is Boundary.SURFACE:
        mean_aoa = math.pi / 2 + incidence
        leg_rx = (water_depth - h_r) / cos_inc
    else:
        mean_aoa = 3 * math.pi / 2 - incidence
        leg_rx = h_r / cos_inc
    leg_mid = np.zeros_like(distance) if path.is_single_bounce else distance - leg_tx - leg_rx
    return ClusterGeometry(path, distance, incidence, mean_aod, mean_aoa, leg_tx, leg_rx, leg_mid)


class RayDraws(NamedTuple):
    """Frozen random draws of a batch of diffuse rays, one entry per ray.

    Angles are drawn once, at ray birth, and reused across the whole time
    grid; only the deterministic geometry terms evolve afterwards.
    ``theta_first``/``theta_last`` are the surface-oscillation phases of the
    first/last reflection cluster and are 0 when that cluster sits on the
    (static) bottom. Single-bounce rays couple their departure angle to the
    arrival angle through the reflection geometry, so ``aod`` is NaN there
    and is re-derived from ``aoa`` at evaluation time.
    """

    aod: np.ndarray  # (n,) departure angles, rad; NaN for single-bounce rays
    aoa: np.ndarray  # (n,) arrival angles, rad
    theta_first: np.ndarray  # (n,)
    theta_last: np.ndarray  # (n,)
    delta_mid: np.ndarray  # (n,) log-perturbation of the inter-cluster leg; 0 for SB


def _spread_for(boundary: Boundary, spreads: ClusterConfig) -> float:
    return spreads.angle_spread_surface if boundary is Boundary.SURFACE else spreads.angle_spread_bottom


def _angle_domain(boundary: Boundary) -> tuple[float, float]:
    # Half-plane in which the corresponding sin() in the leg formulas stays > 0.
    return (0.0, math.pi) if boundary is Boundary.SURFACE else (math.pi, TAU)


def _draw_in_branch(
    rng: np.random.Generator, mean: float, sigma: float, n: int, valid, failure: str
) -> tuple[np.ndarray, int]:
    """``n`` normal draws, redrawing only the entries ``valid`` rejects.

    Returns (values, resamples), one resample per rejected draw; raises
    GeometryError(``failure``) when an entry is still rejected after
    ``MAX_TRIES`` draws.
    """
    values = rng.normal(mean, sigma, n)
    pending = np.flatnonzero(~valid(values))
    resamples = 0
    for _ in range(MAX_TRIES - 1):
        if not pending.size:
            break
        resamples += pending.size
        values[pending] = rng.normal(mean, sigma, pending.size)
        pending = pending[~valid(values[pending])]
    if pending.size:
        raise GeometryError(failure)
    return values, resamples


def _surface_phases(rng: np.random.Generator, boundary: Boundary, n: int) -> np.ndarray:
    return rng.uniform(0.0, TAU, n) if boundary is Boundary.SURFACE else np.zeros(n)


def sample_micro_ray_mb(
    cluster: ClusterGeometry,
    spreads: ClusterConfig,
    rng: np.random.Generator,
    n: int,
) -> tuple[RayDraws, int]:
    """Draw ``n`` multi-bounce rays around a cluster; returns (rays, resamples).

    Draw order: departure angles, then arrival angles (each with its
    redraws of out-of-branch entries), mid-leg perturbations, and the
    surface phases of whichever clusters sit on the surface.
    """
    path = cluster.path
    if path.is_single_bounce:
        raise GeometryError(f"multi-bounce sampler called on single-bounce path {path.label}")
    failure = f"could not draw an in-branch angle for {path.label} after {MAX_TRIES} tries"
    angles = []
    resamples = 0
    for mean, boundary in ((cluster.mean_aod, path.first_boundary), (cluster.mean_aoa, path.last_boundary)):
        lo, hi = _angle_domain(boundary)
        angle, extra = _draw_in_branch(
            rng, float(mean), _spread_for(boundary, spreads), n, lambda a: (lo < a) & (a < hi), failure
        )
        angles.append(angle)
        resamples += extra
    delta_mid = rng.normal(0.0, spreads.mid_distance_spread, n)
    theta_first = _surface_phases(rng, path.first_boundary, n)
    theta_last = _surface_phases(rng, path.last_boundary, n)
    return RayDraws(angles[0], angles[1], theta_first, theta_last, delta_mid), resamples


def _sb_run(kind: PathKind, aoa, state: GeometryState, water_depth: float) -> np.ndarray:
    """Horizontal run from the single scatterer to the Rx implied by ``aoa``."""
    if kind is PathKind.DA:
        return (water_depth - state.rx_depth) / np.tan(math.pi - aoa)
    return state.rx_depth / np.tan(aoa - math.pi)


def _sb_arrival_valid(path: PathIndex, aoa: np.ndarray, state: GeometryState, water_depth: float) -> np.ndarray:
    # The single scatterer must sit on its boundary strictly between the
    # platforms; otherwise the coupled departure angle leaves its branch.
    if path.kind is PathKind.DA:
        branch = (math.pi / 2 < aoa) & (aoa < math.pi)
    else:
        branch = (math.pi < aoa) & (aoa < 3 * math.pi / 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        run = _sb_run(path.kind, aoa, state, water_depth)
    return branch & (0.0 < run) & (run < state.distance)


def sample_micro_ray_sb(
    cluster: ClusterGeometry,
    state: GeometryState,
    water_depth: float,
    spreads: ClusterConfig,
    rng: np.random.Generator,
    n: int,
) -> tuple[RayDraws, int]:
    """Draw ``n`` single-bounce rays; departure angles are geometry-coupled.

    Draw order: arrival angles with their redraws, then one surface phase
    per ray on surface-reflected paths, shared by both legs.
    """
    path = cluster.path
    if not path.is_single_bounce:
        raise GeometryError(f"single-bounce sampler called on multi-bounce path {path.label}")
    aoa, resamples = _draw_in_branch(
        rng,
        float(cluster.mean_aoa),
        _spread_for(path.last_boundary, spreads),
        n,
        lambda a: _sb_arrival_valid(path, a, state, water_depth),
        f"could not draw an in-branch arrival angle for {path.label} after {MAX_TRIES} tries",
    )
    theta = _surface_phases(rng, path.last_boundary, n)  # one scatterer serves both legs
    return RayDraws(np.full(n, math.nan), aoa, theta, theta, np.zeros(n)), resamples


def sb_departure_angle(kind: PathKind, aoa, state: GeometryState, water_depth: float) -> np.ndarray:
    """Departure angle of a single-bounce ray implied by its arrival angle."""
    run = _sb_run(kind, np.asarray(aoa, dtype=float), state, water_depth)
    if kind is PathKind.DA:
        return np.arctan2(water_depth - state.tx_depth, state.distance - run)
    return TAU - np.arctan2(state.tx_depth, state.distance - run)


def segment_lengths(
    rays: RayDraws,
    cluster: ClusterGeometry,
    aod,
    state: GeometryState,
    water_depth: float,
    drift_tx,
    drift_rx,
    surface: SurfaceMotionConfig,
    t,
):
    """Evaluate the three leg lengths of rays; broadcasts over all inputs.

    ``aod`` is the rays' departure angle (resolved for single bounces);
    the arrival angles, surface phases and mid-leg perturbations come from
    ``rays``, the path and the specular mid leg from ``cluster``. A surface
    phase is ignored where its cluster is on the bottom (no
    surface-oscillation term). ``drift_tx``/``drift_rx`` are
    (magnitude, bearing) pairs of the platform drift displacement at ``t``.

    A side's drift projection is added only where that side has drifted at
    some instant, and the surface terms only for a moving surface
    (``surface.amplitude`` != 0): a skipped term would add a signed zero to
    a positive leg, so the legs are the same bits either way. Their shape
    is then that of the terms present (state, angles, and drift or ``t``
    where those terms enter).
    """
    path = cluster.path
    aoa = rays.aoa
    dd_t, alpha_t = (np.asarray(v, dtype=float) for v in drift_tx)
    dd_r, alpha_r = (np.asarray(v, dtype=float) for v in drift_rx)
    moving = surface.amplitude != 0.0

    if path.first_boundary is Boundary.SURFACE:
        sin_t = np.sin(aod)
        _guard_sin(sin_t, path)
        leg_tx = (water_depth - state.tx_depth) / sin_t
        if moving:
            shift = surface_displacement(surface, rays.theta_first, t)
            leg_tx = shift * np.cos(aod - surface.travel_angle) + leg_tx
    else:
        sin_t = np.sin(TAU - aod)
        _guard_sin(sin_t, path)
        leg_tx = state.tx_depth / sin_t
    if dd_t.any():
        leg_tx = leg_tx - dd_t * np.cos(alpha_t - aod)

    if path.last_boundary is Boundary.SURFACE:
        sin_r = np.sin(math.pi - aoa)
        _guard_sin(sin_r, path)
        leg_rx = (water_depth - state.rx_depth) / sin_r
        if moving:
            shift = surface_displacement(surface, rays.theta_last, t)
            leg_rx = shift * np.cos(aoa - surface.travel_angle) + leg_rx
    else:
        sin_r = np.sin(aoa - math.pi)
        _guard_sin(sin_r, path)
        leg_rx = state.rx_depth / sin_r
    if dd_r.any():
        leg_rx = leg_rx - dd_r * np.cos(alpha_r - aoa)

    if path.is_single_bounce:
        mid = np.zeros(np.broadcast(leg_tx, leg_rx).shape)
    else:
        mid = cluster.leg_mid * np.exp(rays.delta_mid)
    return leg_tx, mid, leg_rx


def _guard_sin(sin_values, path: PathIndex) -> None:
    if (np.abs(sin_values) < _MIN_SIN).any():
        raise GeometryError(f"degenerate grazing angle on {path.label}: |sin| < {_MIN_SIN}")


def micro_ray_distances(
    rays: RayDraws,
    cluster: ClusterGeometry,
    state: GeometryState,
    water_depth: float,
    drift_tx,
    drift_rx,
    surface: SurfaceMotionConfig,
    t,
):
    """Leg lengths (tx->first, first->last, last->rx) of a batch of rays at time t.

    Each returned array has one entry per ray. Single-bounce departure
    angles are re-derived from the arrival angles under ``state``.
    """
    path = cluster.path
    if path.is_single_bounce:
        aod = sb_departure_angle(path.kind, rays.aoa, state, water_depth)
    else:
        aod = rays.aod
    return segment_lengths(rays, cluster, aod, state, water_depth, drift_tx, drift_rx, surface, t)
