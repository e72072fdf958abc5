"""Channel realizations: ray population, time-varying delays, and the CTF.

A realization is fully determined by (master_seed, realization index): drift
paths, ray points, surface phases and initial phases are all drawn from
dedicated streams at build time and frozen. Delay and gain evaluation
afterwards is deterministic, and delays are computed once per (ray, time)
and reused across frequencies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import propagation as prop
from .motion import DriftState, build_drift
from .propagation import PathKind
from .scenario import TAU, ScenarioConfig, stream_for

__all__ = [
    "SubPath",
    "ChannelRealization",
    "CtfFrame",
    "Taps",
    "build_realization",
    "component_table",
    "subpath_gains",
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
    """All frozen randomness of one channel draw."""

    cfg: ScenarioConfig
    index: int
    span: float  # s; the drift covers [0, span], and only it can be evaluated
    drift_tx: DriftState
    drift_rx: DriftState
    subpaths: tuple[SubPath, ...]
    resample_count: int


@dataclass(eq=False)
class CtfFrame:
    """Complex transfer-function samples over the scenario's (t, f) grid."""

    times: np.ndarray  # (T,)
    freq_offsets: np.ndarray  # (F,) baseband offsets, Hz
    carrier_freq: float
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


def build_realization(cfg: ScenarioConfig, index: int, horizon: float | None = None) -> ChannelRealization:
    """Draw one complete channel realization.

    The realization covers ``[0, horizon]``, or the scenario's time grid
    when ``horizon`` is None (statistics pass their last anchor+lag
    instant, ``simulate`` the grid). The drift is built over that span and
    nothing else, so a statistic does not depend on a grid it never
    evaluates. Each sub-path draws its rays as one batch on its own stream,
    from the specular geometry at t = 0; its initial phases come last.
    """
    if index < 0:
        raise ValueError(f"realization index must be >= 0, got {index}")
    span = max(max(cfg.signal.time_grid) if horizon is None else horizon, 1e-9)
    # Intentional motion is linear in t, so its geometry is valid on [0, span]
    # when it is valid at both ends: check that before drawing any drift.
    geo.evolve(cfg.geometry, cfg.intentional, np.array([0.0, span]))
    drift_tx = build_drift(cfg.drift, span, stream_for(cfg.master_seed, index, "drift/tx"))
    drift_rx = build_drift(cfg.drift, span, stream_for(cfg.master_seed, index, "drift/rx"))
    state0 = geo.evolve(cfg.geometry, cfg.intentional, 0.0)
    depth = cfg.geometry.water_depth
    n_rays = cfg.clusters.rays_per_path
    subpaths = []
    resamples = 0
    for path in geo.enumerate_paths(cfg.clusters):
        rng = stream_for(cfg.master_seed, index, f"path/{path.label}")
        sampler = geo.sample_micro_ray_sb if path.is_single_bounce else geo.sample_micro_ray_mb
        rays, extra = sampler(geo.macro_ray(state0, depth, path), state0, depth, cfg.clusters, rng, n_rays)
        resamples += extra
        subpaths.append(SubPath(path=path, phases=rng.uniform(0.0, TAU, n_rays), rays=rays))
    return ChannelRealization(
        cfg=cfg,
        index=index,
        span=span,
        drift_tx=drift_tx,
        drift_rx=drift_rx,
        subpaths=tuple(subpaths),
        resample_count=resamples,
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


def _displacements(drifts: list[DriftState], tt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each drift's (magnitude, bearing) at ``tt``, stacked to (T, K, 1)."""
    magnitude, bearing = zip(*(drift.displacement(tt) for drift in drifts))
    return np.stack(magnitude, axis=1)[..., np.newaxis], np.stack(bearing, axis=1)[..., np.newaxis]


def component_table(run: list[ChannelRealization], times) -> ComponentTable:
    """Evaluate every component's geometry and ray delays on a time axis.

    ``run`` holds K realizations of one scenario built over one span, and
    every instant must lie in that span, the only time their drift and
    platform geometry cover. The specular geometry sits on a (T, 1, 1) time
    axis and the run's ray draws are stacked to (K, R), so one evaluation
    per sub-path gives the whole run's (T, K, R) ray delays.
    """
    tt = np.atleast_1d(np.asarray(times, dtype=float))
    span = min(real.span for real in run)
    outside = ~((tt >= 0.0) & (tt <= span))
    if outside.any():
        t = float(tt[outside][0])
        raise ValueError(f"instant {t!r} s is outside the realization's span [0, {span!r}] s")
    cfg = run[0].cfg
    depth = cfg.geometry.water_depth
    c = cfg.geometry.sound_speed
    t_col = tt[:, np.newaxis, np.newaxis]
    state = geo.evolve(cfg.geometry, cfg.intentional, t_col)
    drift_tx = _displacements([real.drift_tx for real in run], tt)
    drift_rx = _displacements([real.drift_rx for real in run], tt)
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
    a_los = prop.path_gain(PathKind.LOS, table.los_length, freq_hz)
    a_subs = []
    for sp, cluster in zip(run[0].subpaths, table.clusters):
        a_subs.append(
            prop.path_gain(
                sp.path.kind,
                cluster.distance[..., 0],
                freq_hz,
                incidence=cluster.incidence[..., 0],
                bottom_bounces=sp.path.bottom_hops,
                bottom=cfg.bottom,
                water_sound_speed=cfg.geometry.sound_speed,
            )
        )
    return a_los, a_subs


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


def _rays_in(cfg: ScenarioConfig, kind: PathKind) -> int:
    """Rays in one component; the direct path counts as one."""
    return 1 if kind is PathKind.LOS else cfg.clusters.rays_per_path


def ray_weight(cfg: ScenarioConfig, kind: PathKind) -> float:
    """Amplitude weight of one ray of a component: sqrt(power weight / rays)."""
    return math.sqrt(class_weight(cfg, kind) / _rays_in(cfg, kind))


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


def evaluate_ctf(real: ChannelRealization) -> CtfFrame:
    """The CTF over the scenario's full (time x frequency) grid."""
    cfg = real.cfg
    table = component_table([real], cfg.signal.time_grid)
    freqs = np.asarray(cfg.signal.freq_offsets, dtype=float)
    values = np.empty((table.times.size, freqs.size), dtype=complex)
    for fi, f in enumerate(freqs):
        values[:, fi] = ctf_values(real, table, f)
    if not np.all(np.isfinite(values.view(float))):
        raise ArithmeticError("CTF evaluation produced non-finite samples")
    return CtfFrame(
        times=table.times,
        freq_offsets=freqs,
        carrier_freq=cfg.signal.carrier_freq,
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
    los_delay = table.los_delay[:, 0]
    delays = [d[:, 0] for d in table.delays]
    f_abs = cfg.signal.carrier_freq + np.atleast_1d(np.asarray(freq_offsets, dtype=float))
    n_rays = cfg.clusters.rays_per_path
    # Columns are evaluated per component (direct, then each sub-path) and
    # repeated out to one per tap; the direct column is dropped when K = 0.
    kinds = [PathKind.LOS] + [sp.path.kind for sp in real.subpaths]
    per_tap = [_rays_in(cfg, kind) for kind in kinds]
    amp_weights = np.repeat([ray_weight(cfg, kind) for kind in kinds], per_tap)
    power_weights = np.repeat([class_weight(cfg, kind) / n for kind, n in zip(kinds, per_tap)], per_tap)
    labels = ["los"] + [f"{sp.path.label}#{n}" for sp in real.subpaths for n in range(n_rays)]
    amplitudes, powers = [], []  # per offset, (T, N)
    for f in f_abs:
        a_los, a_subs = subpath_gains([real], table, f)
        gains = np.repeat(np.column_stack([a_los, *a_subs]), per_tap, axis=1)
        phasors = np.column_stack(
            [np.exp(-1j * TAU * f * los_delay)]
            + [np.exp(1j * sp.phases - 1j * TAU * f * d) for sp, d in zip(real.subpaths, delays)]
        )
        amplitudes.append(amp_weights * gains * phasors)
        powers.append(power_weights * gains**2)
    keep = slice(0 if cfg.power.rice_k > 0 else 1, None)
    return Taps(
        delays=np.column_stack([los_delay, *delays])[:, keep],
        amplitudes=np.stack(amplitudes, axis=1)[..., keep],
        powers=np.stack(powers, axis=1)[..., keep],
        labels=labels[keep],
    )
