"""Quadrature reference for the expectation ACF, a test oracle.

Without drift and with a still surface, the ``expectation`` estimator is a
deterministic integral per sub-path over each scatterer point's incidence
draw. Each point's incidence psi is normal about the specular incidence
theta and kept on the sampler's interval (0, atan(limit * tan theta)),
limit = range / run, as ``geometry._draw_fractions`` draws it. Gauss-Legendre
nodes on that interval, cut to theta +- 10 sigma and weighted by the normal
density, integrate over it: the density is cut at the interval's edge, so
neither Gauss-Hermite nor a plain trapezoid would converge.
"""
import math

import numpy as np

from uwachan import channel
from uwachan import geometry as geo
from uwachan import propagation as prop
from uwachan.geometry import PathKind
from uwachan.scenario import TAU


def fraction_nodes(theta: float, sigma: float, limit: float, order: int):
    """``(fractions, weights)`` of a point's incidence draw: the run
    fractions tan(psi) / tan(theta) at the nodes and their normalised weights."""
    if sigma == 0.0:
        return np.ones(1), np.ones(1)
    lo, hi = max(0.0, theta - 10 * sigma), min(math.atan(limit * math.tan(theta)), theta + 10 * sigma)
    x, w = np.polynomial.legendre.leggauss(order)
    psi = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    w = w * np.exp(-0.5 * ((psi - theta) / sigma) ** 2)
    return 1.0 + np.sin(psi - theta) / (np.cos(psi) * math.sin(theta)), w / w.sum()


def ray_nodes(cfg, path: geo.PathIndex, order: int):
    """``(RayDraws, weights)`` of one sub-path's ray draw: one angle for a single
    bounce, the tensor product of the two points' angles otherwise."""
    state0 = geo.evolve(cfg.geometry, cfg.intentional, 0.0)
    cluster0 = geo.macro_ray(state0, cfg.geometry.water_depth, path)
    theta = float(cluster0.incidence)
    spreads = cfg.clusters

    def nodes(boundary, run):
        sigma = spreads.angle_spread_surface if boundary is geo.Boundary.SURFACE else spreads.angle_spread_bottom
        return fraction_nodes(theta, sigma, float(state0.distance / run), order)

    last, w_last = nodes(path.last_boundary, cluster0.run_rx)
    if path.is_single_bounce:
        first, weights = 1.0 + (1.0 - last) * float(cluster0.run_rx / cluster0.run_tx), w_last
    else:
        first, w_first = nodes(path.first_boundary, cluster0.run_tx)
        first, last = np.repeat(first, last.size), np.tile(last, first.size)
        weights = np.outer(w_first, w_last).ravel()
    zeros = np.zeros(first.size)
    return geo.RayDraws(first, last, zeros, zeros), weights


def subpath_phasors(cfg, path: geo.PathIndex, times, f_abs: float, order: int) -> np.ndarray:
    """E exp(-j 2 pi f (d(t) - d(t0))) of one ray of ``path`` at each of
    ``times``, t0 being the first; d is the ray's delay."""
    rays, weights = ray_nodes(cfg, path, order)
    t = np.asarray(times, dtype=float)[:, np.newaxis]
    state = geo.evolve(cfg.geometry, cfg.intentional, t)
    cluster = geo.macro_ray(state, cfg.geometry.water_depth, path)
    legs = geo.micro_ray_distances(
        rays, cluster, state, cfg.geometry.water_depth, (0.0, 0.0), (0.0, 0.0), cfg.surface, t
    )
    delay = sum(legs) / cfg.geometry.sound_speed
    return (np.exp(-1j * TAU * f_abs * (delay - delay[0])) * weights).sum(axis=-1)


def expectation_acf(cfg, t: float, f: float, lags, order: int = 64) -> np.ndarray:
    """|R(lag)| / |R(0)| of the expectation estimator at each of ``lags``."""
    if cfg.drift.v_max != 0.0 or cfg.surface.amplitude != 0.0:
        raise ValueError("the reference holds without drift and with a flat, still surface")
    times = np.concatenate([[t], t + np.asarray(lags, dtype=float)])
    f_abs = cfg.signal.carrier_freq + f
    state = geo.evolve(cfg.geometry, cfg.intentional, times)
    total = np.zeros(times.size, dtype=complex)
    if cfg.power.rice_k > 0:
        los = geo.los_distance(state)
        a = prop.path_gain(los, f_abs)
        delay = los / cfg.geometry.sound_speed
        total += channel.class_weight(cfg, PathKind.LOS) * a * a[0] * np.exp(-1j * TAU * f_abs * (delay - delay[0]))
    for path in geo.enumerate_paths(cfg.clusters):
        cluster = geo.macro_ray(state, cfg.geometry.water_depth, path)
        a = channel.specular_gain(cfg, path, cluster.distance, cluster.incidence, f_abs)
        total += channel.class_weight(cfg, path.kind) * a * a[0] * subpath_phasors(cfg, path, times, f_abs, order)
    return np.abs(total[1:]) / abs(total[0])
