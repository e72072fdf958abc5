"""Ensemble statistics: correlation functions, delay profiles, delay moments.

Two correlation estimators are computed side by side from the same ensemble:

* ``expectation`` averages the per-component correlation integrands (initial
  ray phases cancel ray-by-ray, cross-ray terms vanish exactly), which is the
  model's expectation computed by Monte Carlo;
* ``empirical`` averages lag products of fully realized transfer functions,
  phases included.

Agreement of the two is itself a correctness check and is part of the
acceptance suite. All reductions run over per-realization arrays assembled by
realization index, so results do not depend on worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geo
from . import propagation as prop
from .channel import (
    ChannelRealization,
    build_realization,
    class_weight,
    component_table,
    ray_weight,
    subpath_gains,
    tap_list,
)
from .propagation import PathKind
from .scenario import TAU, ScenarioConfig, stream_for

__all__ = [
    "CorrelationResult",
    "CorrelationPlan",
    "acf",
    "acf_plan",
    "check_anchor",
    "tfcf",
    "correlate",
    "PdpResult",
    "pdp",
    "DelayStats",
    "delay_stats",
    "EnsembleDelayStats",
    "ensemble_delay_stats",
]


@dataclass(eq=False)
class CorrelationResult:
    """Correlation values over a lag axis at one (t, f) anchor."""

    anchor_t: float
    anchor_f: float
    lags_t: np.ndarray
    lags_f: np.ndarray
    n_realizations: int
    expectation: np.ndarray  # (L,) complex, raw ensemble values
    empirical: np.ndarray  # (L,) complex
    expectation_zero: complex
    empirical_zero: complex
    expectation_norm: np.ndarray  # |R| / |R(0)|
    empirical_norm: np.ndarray
    expectation_stderr: np.ndarray  # SE of the complex mean, / |R(0)|
    empirical_stderr: np.ndarray
    resamples: list[int]  # ray draws rejected while building each realization


def _corr_realization(args):
    (cfg, index, times, offsets, phase_draws) = args
    real = build_realization(cfg, index, float(times.max()))
    # Row 0 is the anchor that every row pairs against, E{H(row) H*(anchor)};
    # its own product is the zero lag. One table covers every row, and a
    # repeated instant is simply evaluated again.
    table = component_table(real, times)
    fabs = cfg.signal.carrier_freq + offsets
    a_los, a_subs = subpath_gains(real, table, fabs)
    f_col = fabs[:, np.newaxis]

    # One exp of the phase difference keeps the direct term's precision where
    # the phases themselves reach ~1e5 rad.
    los_phase = fabs * table.los_delay
    los = ray_weight(cfg, PathKind.LOS) * a_los * np.exp(-1j * TAU * fabs * table.los_delay)
    exp_row = class_weight(cfg, PathKind.LOS) * a_los * a_los[0] * np.exp(-1j * TAU * (los_phase - los_phase[0]))
    phasors = []  # per sub-path, (rows, R): delay phasors without initial phases
    for sp, a, d in zip(real.subpaths, a_subs, table.delays):
        phasor = np.exp(-1j * TAU * f_col * d)
        # Elementwise products and sums, never BLAS (@, dot, matmul): these
        # blocks are small, and a threaded BLAS burns more CPU than it saves.
        lagged = (phasor * np.conj(phasor[0])).mean(axis=1)
        exp_row = exp_row + class_weight(cfg, sp.path.kind) * a * a[0] * lagged
        phasors.append(phasor)

    # Empirical estimator: fully realized lag products. Extra phase draws
    # stratify the initial-phase dimension, shrinking the cross-ray product
    # noise without touching the geometry ensemble; draw 0 reuses the
    # realization's own phases so phase_draws=1 is the bare product.
    emp = np.zeros(times.size, dtype=complex)
    for p in range(phase_draws):
        h = los.astype(complex)
        for sp, a, phasor in zip(real.subpaths, a_subs, phasors):
            if p == 0:
                phases = sp.phases
            else:
                rng = stream_for(cfg.master_seed, index, f"phase-redraw/{p}/{sp.path.label}")
                phases = rng.uniform(0.0, TAU, sp.phases.size)
            rot = np.exp(1j * phases)[np.newaxis, :]
            h = h + ray_weight(cfg, sp.path.kind) * a * (rot * phasor).sum(axis=1)
        emp += h * np.conj(h[0])
    return exp_row, emp / phase_draws, real.resample_count


def check_anchor(t: float, f: float, lags=()) -> None:
    """Reject a non-finite or negative anchor time and a non-finite offset or lag."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"anchor time must be finite and >= 0 s, got {float(t)!r}")
    if not math.isfinite(f):
        raise ValueError(f"baseband offset must be finite, got {float(f)!r}")
    lags = np.asarray(lags, dtype=float)
    bad = ~np.isfinite(lags)
    if bad.any():
        raise ValueError(f"lags must be finite, got {float(lags[bad][0])!r}")


def _ensemble_size(cfg: ScenarioConfig) -> int:
    """``cfg.realizations``, checked again: ``dataclasses.replace`` skips validation."""
    if cfg.realizations < 1:
        raise ValueError(f"need at least one realization, got {cfg.realizations}")
    return cfg.realizations


def _collect_rows(worker, arglist, jobs):
    # A fork-started pool launches all of its workers at the first submit,
    # so never ask for more workers than there are tasks.
    workers = min(jobs, len(arglist))
    if workers <= 1:
        return [worker(args) for args in arglist]
    # Imported here: multiprocessing costs every command's start-up, and
    # most commands never start a pool.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(arglist) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, arglist, chunksize=chunk))


@dataclass(eq=False)
class CorrelationPlan:
    """One validated correlation curve: its lag axis and one task per realization."""

    anchor_t: float
    anchor_f: float
    lags_t: np.ndarray
    lags_f: np.ndarray
    tasks: list  # _corr_realization arguments, in realization-index order


def _plan(
    cfg: ScenarioConfig,
    anchor_t: float,
    anchor_f: float,
    points_t: np.ndarray,
    points_f: np.ndarray,
    lags_t: np.ndarray,
    lags_f: np.ndarray,
    phase_draws: int,
) -> CorrelationPlan:
    # row 0 is the anchor: every point pairs against it, and it against
    # itself gives the zero lag used for normalization
    times = np.concatenate([[anchor_t], points_t])
    if np.any(times < 0):
        raise ValueError("correlation would evaluate the channel before t=0; reduce the lags")
    geo.evolve(cfg.geometry, cfg.intentional, times)  # name the first instant the platforms cannot reach
    if phase_draws < 1:
        raise ValueError(f"phase_draws must be >= 1, got {phase_draws}")
    offsets = np.concatenate([[anchor_f], points_f])
    tasks = [(cfg, i, times, offsets, phase_draws) for i in range(_ensemble_size(cfg))]
    return CorrelationPlan(anchor_t, anchor_f, lags_t, lags_f, tasks)


def _reduce(plan: CorrelationPlan, rows: list) -> CorrelationResult:
    n = len(rows)
    exp_rows = np.array([r[0] for r in rows])
    emp_rows = np.array([r[1] for r in rows])
    r_exp = exp_rows.mean(axis=0)
    r_emp = emp_rows.mean(axis=0)

    def stderr(block):
        if n < 2:
            return np.zeros(block.shape[1])
        return np.sqrt((block.real.var(axis=0, ddof=1) + block.imag.var(axis=0, ddof=1)) / n)

    se_exp = stderr(exp_rows)
    se_emp = stderr(emp_rows)
    z_exp = abs(r_exp[0])
    z_emp = abs(r_emp[0])
    if z_exp == 0.0 or z_emp == 0.0:
        raise ArithmeticError("zero-lag correlation vanished; cannot normalize")
    return CorrelationResult(
        anchor_t=plan.anchor_t,
        anchor_f=plan.anchor_f,
        lags_t=plan.lags_t,
        lags_f=plan.lags_f,
        n_realizations=n,
        expectation=r_exp[1:],
        empirical=r_emp[1:],
        expectation_zero=complex(r_exp[0]),
        empirical_zero=complex(r_emp[0]),
        expectation_norm=np.abs(r_exp[1:]) / z_exp,
        empirical_norm=np.abs(r_emp[1:]) / z_emp,
        expectation_stderr=se_exp[1:] / z_exp,
        empirical_stderr=se_emp[1:] / z_emp,
        resamples=[r[2] for r in rows],
    )


def correlate(plans: list[CorrelationPlan], jobs: int = 1) -> list[CorrelationResult]:
    """Evaluate every curve in ``plans`` as one ensemble: one worker pool at most.

    Each curve's rows are taken back out in realization-index order, so a
    curve's result does not depend on ``jobs`` or on the other curves.
    """
    rows = _collect_rows(_corr_realization, [task for plan in plans for task in plan.tasks], jobs)
    results, start = [], 0
    for plan in plans:
        stop = start + len(plan.tasks)
        results.append(_reduce(plan, rows[start:stop]))
        start = stop
    return results


def acf_plan(cfg: ScenarioConfig, t: float, f: float, lags, phase_draws: int = 1) -> CorrelationPlan:
    """The :func:`acf` curve at ``(t, f)``, validated, for :func:`correlate`."""
    lags_t = np.asarray(lags, dtype=float)
    check_anchor(t, f, lags_t)
    return _plan(cfg, t, f, t + lags_t, np.full_like(lags_t, float(f)), lags_t, np.zeros_like(lags_t), phase_draws)


def acf(cfg: ScenarioConfig, t: float, f: float, lags, jobs: int = 1, phase_draws: int = 1) -> CorrelationResult:
    """Temporal autocorrelation at instant ``t`` and baseband offset ``f``, over
    ``cfg.realizations`` realizations.

    Lag products pair the channel at ``t + lag`` against ``t``, i.e. the
    value at lag ``dt`` is the time-frequency correlation anchored at
    ``t + dt`` with backward lag ``dt``; this keeps every evaluation at
    nonnegative times so t=0 anchors work. ``phase_draws`` > 1 averages the
    *empirical* estimator over extra initial-phase draws per realization;
    the expectation estimator is unaffected by it.
    """
    return correlate([acf_plan(cfg, t, f, lags, phase_draws)], jobs)[0]


def tfcf(
    cfg: ScenarioConfig,
    t: float,
    f: float,
    lags_t,
    lags_f=0.0,
    jobs: int = 1,
    phase_draws: int = 1,
) -> CorrelationResult:
    """Time-frequency correlation E{H(t,f) H*(t-dt, f-df)} by Monte Carlo.

    Positive time lags look backward from the anchor, so ``t - max(lags_t)``
    must be >= 0; negative lags probe forward of the anchor.
    """
    lags_t = np.asarray(lags_t, dtype=float)
    lags_f = np.broadcast_to(np.asarray(lags_f, dtype=float), lags_t.shape).copy()
    check_anchor(t, f, np.concatenate([lags_t, lags_f]))
    plan = _plan(cfg, t, f, t - lags_t, f - lags_f, lags_t, lags_f, phase_draws)
    # The curve pairs the anchor against each point, the conjugate of the
    # kernel's point-against-anchor product; magnitudes and errors are unchanged.
    r = correlate([plan], jobs)[0]
    return replace(
        r,
        expectation=r.expectation.conj(),
        empirical=r.empirical.conj(),
        expectation_zero=r.expectation_zero.conjugate(),
        empirical_zero=r.empirical_zero.conjugate(),
    )


# ---------------------------------------------------------------------------
# Power delay profile and delay moments


@dataclass(eq=False)
class PdpResult:
    """Impulse-list delay profile at one (t, f), first arrival at delay 0."""

    anchor_t: float
    anchor_f: float
    delays: np.ndarray  # (N,) s, relative to the first arrival
    powers: np.ndarray  # (N,)
    labels: list[str]
    first_arrival: float  # absolute delay of the earliest impulse, s


def pdp(source: ChannelRealization | ScenarioConfig, t: float, f: float) -> PdpResult:
    """Power delay profile at one (t, f) anchor.

    A realization gives the ray profile: every diffuse ray is an impulse. A
    scenario gives the cluster profile: each sub-path reduced to its specular
    reflection, the deterministic per-cluster mean. The direct impulse is
    present only when the Rice factor is positive.
    """
    check_anchor(t, f)
    if isinstance(source, ChannelRealization):
        taps = tap_list(source, [t], [f])
        delays_arr, powers_arr, labels = taps.delays[0], taps.powers[0, 0], taps.labels
    else:
        cfg = source
        f_abs = cfg.signal.carrier_freq + f
        c = cfg.geometry.sound_speed
        delays: list[float] = []
        powers: list[float] = []
        labels = []
        state = geo.evolve(cfg.geometry, cfg.intentional, t)
        if cfg.power.rice_k > 0:
            d_los = geo.los_distance(state)
            a = prop.path_gain(PathKind.LOS, d_los, f_abs)
            delays.append(d_los / c)
            powers.append(class_weight(cfg, PathKind.LOS) * a * a)
            labels.append("los")
        for path in geo.enumerate_paths(cfg.clusters):
            cluster = geo.macro_ray(state, cfg.geometry.water_depth, path)
            a = prop.path_gain(
                path.kind,
                cluster.distance,
                f_abs,
                incidence=cluster.incidence,
                bottom_bounces=path.bottom_hops,
                bottom=cfg.bottom,
                water_sound_speed=cfg.geometry.sound_speed,
            )
            delays.append(cluster.distance / c)
            powers.append(class_weight(cfg, path.kind) * a * a)
            labels.append(path.label)
        delays_arr = np.asarray(delays)
        powers_arr = np.asarray(powers)

    first = float(delays_arr.min())
    order = np.argsort(delays_arr, kind="stable")
    return PdpResult(
        anchor_t=t,
        anchor_f=f,
        delays=delays_arr[order] - first,
        powers=powers_arr[order],
        labels=[labels[i] for i in order],
        first_arrival=first,
    )


@dataclass(frozen=True)
class DelayStats:
    """First moment and centered second moment of a delay profile."""

    average: float  # s, relative to the profile's first arrival
    rms_spread: float  # s


def delay_stats(profile: PdpResult) -> DelayStats:
    """Power-weighted average delay and RMS delay spread of a profile."""
    total = profile.powers.sum()
    if profile.powers.size == 0 or total <= 0.0:
        raise ValueError("delay statistics need at least one impulse with positive power")
    mu = float((profile.delays * profile.powers).sum() / total)
    var = float((((profile.delays - mu) ** 2) * profile.powers).sum() / total)
    return DelayStats(average=mu, rms_spread=math.sqrt(max(var, 0.0)))


@dataclass(eq=False)
class EnsembleDelayStats:
    """Per-realization delay moments and their ensemble summary."""

    average: np.ndarray  # (n,) s
    rms_spread: np.ndarray  # (n,) s
    resamples: list[int]  # ray draws rejected per built realization; none in cluster mode

    @property
    def n(self) -> int:
        return self.average.size

    @property
    def average_mean(self) -> float:
        return float(self.average.mean())

    @property
    def average_std(self) -> float:
        return float(self.average.std(ddof=1)) if self.n > 1 else 0.0

    @property
    def rms_spread_mean(self) -> float:
        return float(self.rms_spread.mean())

    @property
    def rms_spread_std(self) -> float:
        return float(self.rms_spread.std(ddof=1)) if self.n > 1 else 0.0


def _delay_worker(args):
    cfg, index, t, f = args
    real = build_realization(cfg, index, horizon=t)
    stats = delay_stats(pdp(real, t, f))
    return stats.average, stats.rms_spread, real.resample_count


def ensemble_delay_stats(
    cfg: ScenarioConfig,
    t: float = 0.0,
    f: float = 0.0,
    mode: str = "cluster",
    jobs: int = 1,
) -> EnsembleDelayStats:
    """Delay moments of ``cfg.realizations`` realizations, summarized.

    ``mode`` is ``"ray"`` (each realization's ray profile) or ``"cluster"``.
    Cluster-level profiles are deterministic functions of the scenario, so
    that mode evaluates once and replicates.
    """
    if mode not in ("cluster", "ray"):
        raise ValueError(f"unknown delay-stats mode {mode!r}")
    n = _ensemble_size(cfg)
    check_anchor(t, f)
    if mode == "cluster":
        stats = delay_stats(pdp(cfg, t, f))
        return EnsembleDelayStats(
            average=np.full(n, stats.average), rms_spread=np.full(n, stats.rms_spread), resamples=[]
        )
    arglist = [(cfg, i, t, f) for i in range(n)]
    rows = _collect_rows(_delay_worker, arglist, jobs)
    return EnsembleDelayStats(
        average=np.array([r[0] for r in rows]),
        rms_spread=np.array([r[1] for r in rows]),
        resamples=[r[2] for r in rows],
    )
