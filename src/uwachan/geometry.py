"""Time-varying propagation geometry.

Boundary incidence angles are measured from the boundary normal and lie in
(0, pi/2).

A diffuse ray is the points where it meets its first and its last boundary
(one point for a single bounce). Each point's incidence is drawn once, at
t = 0, so that the point lies strictly between the platforms, and turned
into a frozen fraction of the sub-path's specular horizontal run:
the first point sits at ``first * run_tx(t)`` from the Tx, the last at
``last * run_rx(t)`` from the Rx, so scatterers move with their specular
point. At every t each leg is a straight line between its end points, and
a closed path from Tx to Rx is never shorter than the direct path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .motion import surface_displacement
from .scenario import TAU, ClusterConfig, GeometryConfig, IntentionalMotion, SurfaceMotionConfig

__all__ = [
    "GeometryError",
    "PathKind",
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

# Draws of one ray slot before its sampler gives up with a GeometryError.
MAX_TRIES = 1000


class GeometryError(ValueError):
    """The requested geometry is outside the model's valid domain."""


class PathKind(Enum):
    """Propagation class of a path: direct, last bounce above, or below."""

    LOS = "los"
    DA = "da"  # downward arrival: final reflection at the surface
    UA = "ua"  # upward arrival: final reflection at the bottom


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
    """Horizontal range and platform heights at time t.

    ``tx_depth``/``rx_depth`` are heights above the bottom, despite their
    names: the bottom is at 0 and the surface at the water depth, so a
    heading of pi/2 moves a platform up. Fields are arrays shaped like t
    (0-d for a scalar t).
    """

    distance: np.ndarray
    tx_depth: np.ndarray
    rx_depth: np.ndarray


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
    return GeometryState(distance, tx_depth, rx_depth)


def _platforms(state: GeometryState, drift_tx, drift_rx):
    """The Tx and the Rx as (x, z) points: placed by ``state``, then shifted
    by their (dx, dz) drifts. x runs along the Tx->Rx axis from the Tx's
    undrifted position, z up from the bottom."""
    (dx_tx, dz_tx), (dx_rx, dz_rx) = drift_tx, drift_rx
    return (dx_tx, state.tx_depth + dz_tx), (state.distance + dx_rx, state.rx_depth + dz_rx)


def los_distance(state: GeometryState, drift_tx=(0.0, 0.0), drift_rx=(0.0, 0.0)) -> np.ndarray:
    """Direct-path length: the exact distance between the drifted platforms.

    ``drift_tx``/``drift_rx`` are (dx, dz) displacements in m.
    """
    tx, rx = _platforms(state, drift_tx, drift_rx)
    return np.hypot(rx[0] - tx[0], rx[1] - tx[1])


@dataclass(frozen=True, eq=False)
class ClusterGeometry:
    """Specular-reflection geometry of one sub-path at time t.

    ``distance`` is the unfolded image-method path length and ``incidence``
    the boundary incidence angle. ``run_tx`` is the horizontal run from the
    Tx to the first reflection, ``run_rx`` the one from the last reflection
    to the Rx. Fields are arrays shaped like the state's.
    """

    path: PathIndex
    distance: np.ndarray
    incidence: np.ndarray
    run_tx: np.ndarray
    run_rx: np.ndarray


def macro_ray(state: GeometryState, water_depth: float, path: PathIndex) -> ClusterGeometry:
    """Image-method distance, incidence angle and outer horizontal runs of a sub-path."""
    h_t, h_r, dist = state.tx_depth, state.rx_depth, state.distance
    sign = {Boundary.BOTTOM: 1.0, Boundary.SURFACE: -1.0}  # of a platform's height, by the boundary beside it
    vertical = 2.0 * path.surface_hops * water_depth + sign[path.first_boundary] * h_t + sign[path.last_boundary] * h_r
    if (vertical <= 0).any():
        raise GeometryError(f"non-positive unfolded vertical extent for {path.label}")
    distance = np.hypot(dist, vertical)
    incidence = np.arctan2(dist, vertical)  # in (0, pi/2) for positive operands
    slope = dist / vertical  # horizontal run per meter of depth crossed
    run_tx = (water_depth - h_t if path.first_boundary is Boundary.SURFACE else h_t) * slope
    run_rx = (water_depth - h_r if path.last_boundary is Boundary.SURFACE else h_r) * slope
    return ClusterGeometry(path, distance, incidence, run_tx, run_rx)


class RayDraws(NamedTuple):
    """Frozen random draws of a batch of diffuse rays, one entry per ray.

    ``first`` places each ray's first point at ``first * run_tx`` from the
    Tx, ``last`` its last point at ``last * run_rx`` from the Rx; both are 1
    on the specular path. ``theta_first``/``theta_last`` are the
    surface-oscillation phases of those points and are 0 where the point
    sits on the (static) bottom. A single-bounce ray has one point, placed
    by ``first``; its ``last`` places the same point at t = 0, and its two
    phases are one.
    """

    first: np.ndarray  # (n,) fraction of the specular run from the Tx
    last: np.ndarray  # (n,) fraction of the specular run from the Rx
    theta_first: np.ndarray  # (n,)
    theta_last: np.ndarray  # (n,)


def _draw_fractions(
    rng: np.random.Generator, spreads: ClusterConfig, n: int, path: PathIndex, incidence, boundary: Boundary, limit
) -> tuple[np.ndarray, int]:
    """``n`` fractions of a specular run whose points on ``boundary`` lie
    strictly between the platforms, ``limit`` being the range over that run.

    Draws each point's incidence psi normal about the specular ``incidence``
    theta; the point's horizontal run is the specular one times
    tan(psi) / tan(theta), which is in (0, ``limit``) exactly when psi is in
    (0, atan(limit * tan(theta))). Redraws only the draws outside that
    interval. Returns (fractions, resamples), one resample per rejected
    draw; raises GeometryError when an entry is still outside after
    ``MAX_TRIES`` draws.
    """
    theta = float(incidence)
    sigma = spreads.angle_spread_surface if boundary is Boundary.SURFACE else spreads.angle_spread_bottom
    edge = math.atan(float(limit) * math.tan(theta))
    psi = rng.normal(theta, sigma, n)
    pending = np.flatnonzero(~((0.0 < psi) & (psi < edge)))
    resamples = 0
    for _ in range(MAX_TRIES - 1):
        if not pending.size:
            break
        resamples += pending.size
        redrawn = rng.normal(theta, sigma, pending.size)
        psi[pending] = redrawn
        pending = pending[~((0.0 < redrawn) & (redrawn < edge))]
    if pending.size:
        raise GeometryError(
            f"could not draw a point between the platforms for {path.label} after {MAX_TRIES} tries"
        )
    # tan(psi) / tan(theta), written to be exactly 1 at psi = theta
    return 1.0 + np.sin(psi - theta) / (np.cos(psi) * math.sin(theta)), resamples


def _surface_phases(rng: np.random.Generator, boundary: Boundary, n: int) -> np.ndarray:
    return rng.uniform(0.0, TAU, n) if boundary is Boundary.SURFACE else np.zeros(n)


def sample_micro_ray_mb(
    cluster: ClusterGeometry,
    state: GeometryState,
    spreads: ClusterConfig,
    rng: np.random.Generator,
    n: int,
) -> tuple[RayDraws, int]:
    """Draw ``n`` multi-bounce rays around a cluster; returns (rays, resamples).

    Takes the single-bounce sampler's arguments, so a build calls either
    alike. Draw order: the first points' incidences, then the last points',
    each redrawn until its point lies on its boundary strictly between the
    platforms at t = 0, then the surface phases of whichever points sit on
    the surface.
    """
    path = cluster.path
    if path.is_single_bounce:
        raise GeometryError(f"multi-bounce sampler called on single-bounce path {path.label}")
    first, first_redraws = _draw_fractions(
        rng, spreads, n, path, cluster.incidence, path.first_boundary, state.distance / cluster.run_tx
    )
    last, last_redraws = _draw_fractions(
        rng, spreads, n, path, cluster.incidence, path.last_boundary, state.distance / cluster.run_rx
    )
    theta_first = _surface_phases(rng, path.first_boundary, n)
    theta_last = _surface_phases(rng, path.last_boundary, n)
    return RayDraws(first, last, theta_first, theta_last), first_redraws + last_redraws


def sample_micro_ray_sb(
    cluster: ClusterGeometry,
    state: GeometryState,
    spreads: ClusterConfig,
    rng: np.random.Generator,
    n: int,
) -> tuple[RayDraws, int]:
    """Draw ``n`` single-bounce rays; returns (rays, resamples).

    Draw order: the points' incidences, redrawn until the point lies on its
    boundary strictly between the platforms at t = 0, then one surface phase
    per ray on surface-reflected paths, shared by both legs. The incidence
    places the point by its fraction of the Rx's run; its fraction of the
    Tx's run follows, since the two specular runs add up to the range.
    """
    path = cluster.path
    if not path.is_single_bounce:
        raise GeometryError(f"single-bounce sampler called on multi-bounce path {path.label}")
    last, resamples = _draw_fractions(
        rng, spreads, n, path, cluster.incidence, path.last_boundary, state.distance / cluster.run_rx
    )
    first = 1.0 + (1.0 - last) * (cluster.run_rx / cluster.run_tx)
    theta = _surface_phases(rng, path.last_boundary, n)  # one scatterer serves both legs
    return RayDraws(first, last, theta, theta), resamples


def _length(dx, dz):
    # The root of the summed squares, built in one buffer: several times
    # faster than np.hypot here.
    square = dx * dx
    square += dz * dz
    return np.sqrt(square, out=square)


def segment_lengths(path: PathIndex, water_depth: float, tx, first, last, rx):
    """Leg lengths (tx->first, first->last, last->rx) between a ray's points.

    Each argument after the depth is an (x, z) pair of arrays: the platforms
    and the ray's first and last points, x along the Tx->Rx axis and z the
    height above the bottom. A single bounce's two points are its one point
    and its mid leg is the scalar 0.0. A multi-bounce mid leg is unfolded
    over its intermediate bounces: its vertical extent is one depth per
    crossing plus each surface point's rise above the surface.
    """
    leg_tx = _length(first[0] - tx[0], first[1] - tx[1])
    leg_rx = _length(rx[0] - last[0], rx[1] - last[1])
    if path.is_single_bounce:
        return leg_tx, 0.0, leg_rx
    rise = (path.surface_hops + path.bottom_hops - 1) * water_depth
    for point, boundary in ((first, path.first_boundary), (last, path.last_boundary)):
        if boundary is Boundary.SURFACE:
            rise = rise + (point[1] - water_depth)
    return leg_tx, _length(last[0] - first[0], rise), leg_rx


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

    Places the points on their boundaries at their fractions of the
    specular runs under ``state``, moves surface points by the surface
    displacement along ``surface.travel_angle``, and places the platforms
    as :func:`los_distance` does, ``drift_tx``/``drift_rx`` being their
    (dx, dz) displacements at ``t``; then :func:`segment_lengths` measures
    the legs. Each leg has one entry per ray, broadcast against the state,
    drift and ``t``; a single bounce's mid leg is the scalar 0.0.

    The surface enters only when it moves (``surface.amplitude`` != 0): a
    skipped term would add a signed zero to a coordinate, so the legs are
    the same bits either way.
    """
    path = cluster.path
    moving = surface.amplitude != 0.0

    def on_boundary(boundary: Boundary, x, theta):
        if boundary is Boundary.BOTTOM:
            return x, 0.0
        if not moving:
            return x, water_depth
        shift = surface_displacement(surface, theta, t)
        return x + shift * math.cos(surface.travel_angle), water_depth + shift * math.sin(surface.travel_angle)

    first = on_boundary(path.first_boundary, rays.first * cluster.run_tx, rays.theta_first)
    if path.is_single_bounce:
        last = first
    else:
        last = on_boundary(path.last_boundary, state.distance - rays.last * cluster.run_rx, rays.theta_last)
    tx, rx = _platforms(state, drift_tx, drift_rx)
    return segment_lengths(path, water_depth, tx, first, last, rx)
