"""Channel realizations: ray population, time-varying delays, and the CTF.

A realization is fully determined by (master_seed, realization index): ray
points, surface phases and initial phases are drawn from dedicated streams
at build time and frozen, and each platform's drift path is drawn from its
own stream where it is evaluated, as far as the latest instant asked for.
A longer reach extends the same path, so a realization is the same channel
whatever instants it is evaluated at. Delays are computed once per
(ray, time) and reused across frequencies.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import propagation as prop
from .geometry import PathKind
from .motion import drift_displacement
from .scenario import TAU, ClusterConfig, GeometryConfig, IntentionalMotion, ScenarioConfig, stream_for

__all__ = [
    "SubPath",
    "ChannelRealization",
    "CtfFrame",
    "Taps",
    "build_realization",
    "component_table",
    "subpath_gains",
    "specular_gain",
    "class_weight",
    "ray_weight",
    "ctf_values",
    "evaluate_ctf",
    "tap_list",
]


@dataclass(frozen=True, eq=False)
class SubPath:
    """One reflected sub-path: its rays' initial phases and frozen draws."""

    path: geo.PathIndex
    phases: np.ndarray  # (R,) initial ray phases in [0, 2*pi)
    rays: geo.RayDraws  # (R,) per field


@dataclass(eq=False)
class ChannelRealization:
    """The frozen ray draws of one channel draw; its drift is drawn where evaluated."""

    cfg: ScenarioConfig
    index: int
    subpaths: tuple[SubPath, ...]
    resample_count: int


@dataclass(eq=False)
class CtfFrame:
    """Complex transfer-function samples over the scenario's (t, f) grid."""

    times: np.ndarray  # (T,)
    freq_offsets: np.ndarray  # (F,) baseband offsets, Hz
    values: np.ndarray  # (T, F) complex
    realization: int


@dataclass(eq=False)
class Taps:
    """Multipath taps over a (t, f) grid: the direct tap (only when the Rice
    factor is positive), then every ray of each sub-path. ``len()`` counts
    (t, f, tap) entries.
    """

    delays: np.ndarray  # (T, N) s; frequency-independent
    amplitudes: np.ndarray  # (T, F, N) complex weighted gains, phase included
    powers: np.ndarray  # (T, F, N) mean tap powers: class power weight x gain^2
    labels: list[str]  # (N,) "los" or "{sub-path}#{ray}"

    def __len__(self) -> int:
        return self.amplitudes.size


def build_realization(cfg: ScenarioConfig, index: int) -> ChannelRealization:
    """Draw the rays of one channel realization.

    Each sub-path draws its rays as one batch on its own stream, from the
    specular geometry at t = 0; its initial phases come last. Nothing here
    depends on the instants the realization is later evaluated at.
    """
    if index < 0:
        raise ValueError(f"realization index must be >= 0, got {index}")
    state0, specular = _build_constants(cfg.geometry, cfg.intentional, cfg.clusters)
    n_rays = cfg.clusters.rays_per_path
    subpaths = []
    resamples = 0
    for path, purpose, cluster in specular:
        rng = stream_for(cfg.master_seed, index, purpose)
        sampler = geo.sample_micro_ray_sb if path.is_single_bounce else geo.sample_micro_ray_mb
        rays, extra = sampler(cluster, state0, cfg.clusters, rng, n_rays)
        resamples += extra
        subpaths.append(SubPath(path=path, phases=rng.uniform(0.0, TAU, n_rays), rays=rays))
    return ChannelRealization(
        cfg=cfg,
        index=index,
        subpaths=tuple(subpaths),
        resample_count=resamples,
    )


@functools.lru_cache(maxsize=32)
def _build_constants(geometry: GeometryConfig, intentional: IntentionalMotion, clusters: ClusterConfig):
    """What every build of a scenario shares, whatever its index: the
    geometry at t = 0 and, per sub-path, ``(path, stream purpose, specular
    geometry at t = 0)``.

    Keyed on the three sections it reads, not on the whole scenario, whose
    hash would walk its time grid at every build.
    """
    state0 = geo.evolve(geometry, intentional, 0.0)
    return state0, tuple(
        (path, f"path/{path.label}", geo.macro_ray(state0, geometry.water_depth, path))
        for path in geo.enumerate_paths(clusters)
    )


@dataclass(eq=False)
class ComponentTable:
    """Geometry and ray delays of a run of K realizations on a time axis.

    Frequency-independent. The specular geometry is the same for every
    realization of the run; drift makes the direct path and the rays differ.
    """

    times: np.ndarray  # (T,)
    los_length: np.ndarray  # (T, K)
    los_delay: np.ndarray  # (T, K)
    clusters: list[geo.ClusterGeometry]  # fields (T, 1, 1), one per sub-path
    delays: list[np.ndarray]  # (T, K, R) per sub-path


def _displacements(run: list[ChannelRealization], platform: str, tt: np.ndarray):
    """Each realization's drift (dx, dz) of ``platform`` ("tx" or "rx") at ``tt``, stacked to (T, K, 1).

    Each path is drawn from its realization's own stream as far as max(tt).
    """
    cfg = run[0].cfg
    streams = (stream_for(cfg.master_seed, real.index, f"drift/{platform}") for real in run)
    dx, dz = zip(*(drift_displacement(cfg.drift, rng, tt) for rng in streams))
    return np.stack(dx, axis=1)[..., np.newaxis], np.stack(dz, axis=1)[..., np.newaxis]


def component_table(run: list[ChannelRealization], times) -> ComponentTable:
    """Evaluate every component's geometry and ray delays on a time axis.

    ``run`` holds K realizations of one scenario, and every instant must be
    finite and >= 0. The platform geometry is checked at every instant
    before any drift is drawn. The specular geometry sits on a (T, 1, 1)
    time axis and the run's ray draws are stacked to (K, R), so one
    evaluation per sub-path gives the whole run's (T, K, R) ray delays.
    """
    tt = np.atleast_1d(np.asarray(times, dtype=float))
    bad = ~(np.isfinite(tt) & (tt >= 0.0))
    if bad.any():
        raise ValueError(f"instant {float(tt[bad][0])!r} s must be finite and >= 0")
    cfg = run[0].cfg
    depth = cfg.geometry.water_depth
    c = cfg.geometry.sound_speed
    t_col = tt[:, np.newaxis, np.newaxis]
    state = geo.evolve(cfg.geometry, cfg.intentional, t_col)
    drift_tx = _displacements(run, "tx", tt)
    drift_rx = _displacements(run, "rx", tt)
    los_length = geo.los_distance(state, drift_tx, drift_rx)[..., 0]
    clusters = []
    delays = []
    for subpaths in zip(*(real.subpaths for real in run)):
        rays = geo.RayDraws(*(np.stack(field) for field in zip(*(sp.rays for sp in subpaths))))
        cluster = geo.macro_ray(state, depth, subpaths[0].path)
        leg_tx, mid, leg_rx = geo.micro_ray_distances(
            rays, cluster, state, depth, drift_tx, drift_rx, cfg.surface, t_col
        )
        clusters.append(cluster)
        delays.append((leg_tx + mid + leg_rx) / c)
    return ComponentTable(
        times=tt,
        los_length=los_length,
        los_delay=los_length / c,
        clusters=clusters,
        delays=delays,
    )


def subpath_gains(run: list[ChannelRealization], table: ComponentTable, freq_hz: float):
    """Amplitude gains ``(a_los, [a per sub-path])`` of a run at one absolute frequency.

    ``a_los`` is (T, K): drift moves each realization's direct path. Each
    sub-path's gain is (T, 1), evaluated once for the run, because it
    depends on the specular geometry alone; every ray of a sub-path
    shares it.
    """
    cfg = run[0].cfg
    a_los = prop.path_gain(table.los_length, freq_hz)
    a_subs = [
        specular_gain(cfg, sp.path, cluster.distance[..., 0], cluster.incidence[..., 0], freq_hz)
        for sp, cluster in zip(run[0].subpaths, table.clusters)
    ]
    return a_los, a_subs


def specular_gain(cfg: ScenarioConfig, path: geo.PathIndex, distance, incidence, freq_hz):
    """Amplitude gain of a sub-path's specular reflection, given its unfolded
    ``distance`` and boundary ``incidence`` arrays, at an absolute frequency.
    The bottom reflects once per bottom hop; with none the factor is exactly 1."""
    reflection = prop.bottom_reflection(incidence, cfg.bottom, cfg.geometry.sound_speed)
    return prop.path_gain(distance, freq_hz, reflection**path.bottom_hops)


def class_weight(cfg: ScenarioConfig, kind: PathKind) -> float:
    """Power weight of one component: the direct path or one diffuse sub-path.

    The direct path carries ``K / (K + 1)``. A diffuse class (DA or UA) has
    the share ``fraction / (K + 1)``, split evenly over its
    ``2 * max_hops`` sub-paths.
    """
    k = cfg.power.rice_k
    if kind is PathKind.LOS:
        return k / (k + 1.0)
    if kind is PathKind.DA:
        return cfg.power.da_fraction / (2.0 * cfg.clusters.max_surface_hops * (k + 1.0))
    return cfg.power.ua_fraction / (2.0 * cfg.clusters.max_bottom_hops * (k + 1.0))


def ray_weight(cfg: ScenarioConfig, kind: PathKind) -> float:
    """Amplitude weight of one ray of a component: sqrt(power weight / rays),
    where the direct path counts as one ray."""
    return math.sqrt(class_weight(cfg, kind) / (1 if kind is PathKind.LOS else cfg.clusters.rays_per_path))


def ctf_values(real: ChannelRealization, table: ComponentTable, freq_offset: float) -> np.ndarray:
    """Complex CTF along the time axis of ``real``'s own table (a run of one),
    at one baseband offset Hz."""
    cfg = real.cfg
    f_abs = cfg.signal.carrier_freq + float(freq_offset)
    a_los, a_subs = subpath_gains([real], table, f_abs)
    out = ray_weight(cfg, PathKind.LOS) * a_los * np.exp(-1j * TAU * f_abs * table.los_delay)
    for sp, a, delays in zip(real.subpaths, a_subs, table.delays):
        phasors = np.exp(1j * sp.phases - 1j * TAU * f_abs * delays)
        out = out + ray_weight(cfg, sp.path.kind) * a * phasors.sum(axis=-1)
    return out[:, 0]


def evaluate_ctf(real: ChannelRealization, times=None) -> CtfFrame:
    """The CTF over ``times`` (default: the scenario's time grid) x the
    scenario's frequency grid. A table's rows do not depend on the rest of
    its axis, so consecutive chunks of a grid give the grid's own values."""
    cfg = real.cfg
    table = component_table([real], cfg.signal.time_grid if times is None else times)
    freqs = np.asarray(cfg.signal.freq_offsets, dtype=float)
    values = np.empty((table.times.size, freqs.size), dtype=complex)
    for fi, f in enumerate(freqs):
        values[:, fi] = ctf_values(real, table, f)
    return CtfFrame(
        times=table.times,
        freq_offsets=freqs,
        values=values,
        realization=real.index,
    )


def tap_list(real: ChannelRealization, times, freq_offsets) -> Taps:
    """Discrete multipath taps over ``times`` x baseband ``freq_offsets`` Hz.

    At each (t, f) the amplitudes sum to the CTF there. One component table
    serves the whole grid and one gain evaluation each offset.
    """
    cfg = real.cfg
    table = component_table([real], times)
    f_abs = cfg.signal.carrier_freq + np.atleast_1d(np.asarray(freq_offsets, dtype=float))
    n_rays = cfg.clusters.rays_per_path
    shape = (table.times.size, f_abs.size, 1 + n_rays * len(real.subpaths))
    amplitudes, powers = np.empty(shape, dtype=complex), np.empty(shape)
    for fi, f in enumerate(f_abs):
        # The direct path's column, then each sub-path's rays, from that component's own values.
        a_los, a_subs = subpath_gains([real], table, f)
        amplitudes[:, fi, :1] = ray_weight(cfg, PathKind.LOS) * a_los * np.exp(-1j * TAU * f * table.los_delay)
        powers[:, fi, :1] = class_weight(cfg, PathKind.LOS) * a_los**2
        for start, sp, a, d in zip(range(1, shape[2], n_rays), real.subpaths, a_subs, table.delays):
            phasors = np.exp(1j * sp.phases - 1j * TAU * f * d[:, 0])
            amplitudes[:, fi, start : start + n_rays] = ray_weight(cfg, sp.path.kind) * a * phasors
            powers[:, fi, start : start + n_rays] = class_weight(cfg, sp.path.kind) / n_rays * a**2
    keep = slice(0 if cfg.power.rice_k > 0 else 1, None)  # the direct tap is dropped when K = 0
    labels = ["los"] + [f"{sp.path.label}#{n}" for sp in real.subpaths for n in range(n_rays)]
    return Taps(
        delays=np.column_stack([table.los_delay, *(d[:, 0] for d in table.delays)])[:, keep],
        amplitudes=amplitudes[..., keep],
        powers=powers[..., keep],
        labels=labels[keep],
    )
