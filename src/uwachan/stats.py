"""Ensemble statistics: correlation functions, delay profiles, delay moments.

Two correlation estimators are computed side by side from the same ensemble:

* ``expectation`` averages the per-component correlation integrands (initial
  ray phases cancel ray-by-ray, cross-ray terms vanish exactly), which is the
  model's expectation computed by Monte Carlo;
* ``empirical`` averages lag products of fully realized transfer functions,
  phases included.

Agreement of the two is itself a correctness check and is part of the
acceptance suite. All reductions run over per-realization arrays assembled by
realization index, so results do not depend on worker count or on how a
curve's realizations are split into runs.
"""
from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import propagation as prop
from .channel import (
    ChannelRealization,
    SubPath,
    build_realization,
    class_weight,
    component_table,
    ray_weight,
    specular_gain,
    subpath_gains,
    tap_list,
)
from .geometry import PathKind
from .scenario import TAU, ScenarioConfig, stream_for

__all__ = [
    "Estimate",
    "CorrelationResult",
    "CorrelationPlan",
    "acf",
    "acf_plan",
    "check_anchor",
    "correlate",
    "PdpResult",
    "pdp",
    "DelayStats",
    "delay_stats",
    "ensemble_delay_stats",
]


@dataclass(eq=False)
class Estimate:
    """One estimator's ensemble correlation over a lag axis."""

    values: np.ndarray  # (L,) complex, raw ensemble values
    zero: complex  # R(0), the anchor against itself
    norm: np.ndarray  # |R| / |R(0)|
    stderr: np.ndarray  # SE of the complex mean, / |R(0)|


@dataclass(eq=False)
class CorrelationResult:
    """Correlation values over a lag axis at one (t, f) anchor, by both estimators."""

    anchor_t: float
    anchor_f: float
    lags_t: np.ndarray
    n_realizations: int
    expectation: Estimate
    empirical: Estimate
    resamples: list[int]  # ray draws rejected while building each realization


# Bound on the elements (rows x realizations x rays) of one sub-path's phasor
# block: a correlation task evaluates a run of realizations in one block, and
# a 16,384-element complex block is 256 KiB.
_RUN_ELEMENTS = 16_384


def _runs(n: int, per_realization: int) -> list[range]:
    """Realizations 0..n-1 as consecutive runs whose blocks stay within ``_RUN_ELEMENTS``.

    ``per_realization`` is one realization's share of a block (rows x rays).
    The fewest runs that fit split ``n`` as evenly as they can, sizes
    differing by at most one; a realization whose share alone exceeds the
    bound is a run of its own.
    """
    count = -(-n // max(1, _RUN_ELEMENTS // per_realization))
    size, extra = divmod(n, count)
    return [range(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra)) for i in range(count)]


def _corr_realization(args):
    """Correlation rows of a run of consecutive realizations of one curve.

    Returns ``(expectation rows, empirical rows, resamples)``: two (K, rows)
    blocks and one rejection count per realization, in index order.
    """
    (cfg, indices, times, f, phase_draws) = args
    run = [build_realization(cfg, index) for index in indices]
    # Row 0 is the anchor that every row pairs against, E{H(row) H*(anchor)};
    # its own product is the zero lag. One table covers every row of the run,
    # and a repeated instant is simply evaluated again.
    table = component_table(run, times)
    f_abs = cfg.signal.carrier_freq + f
    a_los, a_subs = subpath_gains(run, table, f_abs)

    # One exp of the phase difference keeps the direct term's precision where
    # the phases themselves reach ~1e5 rad.
    los_phase = f_abs * table.los_delay
    los = ray_weight(cfg, PathKind.LOS) * a_los * np.exp(-1j * TAU * f_abs * table.los_delay)
    exp_row = class_weight(cfg, PathKind.LOS) * a_los * a_los[0] * np.exp(-1j * TAU * (los_phase - los_phase[0]))
    # Empirical estimator: fully realized lag products, one transfer function
    # per phase draw. Extra draws stratify the initial-phase dimension,
    # shrinking the cross-ray product noise without touching the geometry
    # ensemble; draw 0 uses the realization's own phases, so phase_draws=1 is
    # the bare product.
    h = [los.astype(complex) for _ in range(phase_draws)]
    for subpaths, a, d in zip(zip(*(real.subpaths for real in run)), a_subs, table.delays):
        kind = subpaths[0].path.kind
        # (rows, K, R) delay phasors without initial phases; each block goes
        # into both estimators before the next sub-path's is built.
        phasor = np.exp(-1j * TAU * f_abs * d)
        # Elementwise products and sums, never BLAS: no module calls it
        # (tests/test_blas.py), so importing uwachan gives OpenBLAS one thread.
        lagged = (phasor * np.conj(phasor[0])).mean(axis=-1)
        exp_row = exp_row + class_weight(cfg, kind) * a * a[0] * lagged
        weight = ray_weight(cfg, kind) * a
        for p in range(phase_draws):
            phases = np.stack([_phases(real, sp, p) for real, sp in zip(run, subpaths)])
            h[p] = h[p] + weight * (np.exp(1j * phases) * phasor).sum(axis=-1)
    emp = np.zeros(exp_row.shape, dtype=complex)
    for hp in h:
        emp += hp * np.conj(hp[0])
    # C-order rows: the ensemble mean then adds realization after realization,
    # the same bits whatever the runs; an F-order block would be summed pairwise.
    return exp_row.T.copy(), (emp / phase_draws).T.copy(), [real.resample_count for real in run]


def _phases(real: ChannelRealization, sp: SubPath, draw: int) -> np.ndarray:
    """Initial ray phases of one of ``real``'s sub-paths in phase draw ``draw``;
    draw 0 is the realization's own."""
    if draw == 0:
        return sp.phases
    rng = stream_for(real.cfg.master_seed, real.index, f"phase-redraw/{draw}/{sp.path.label}")
    return rng.uniform(0.0, TAU, sp.phases.size)


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
    # A task is one realization (delay statistics) or one run of consecutive
    # realizations of a curve (correlations). Each forked worker runs one
    # contiguous share of the tasks, so never fork more workers than there
    # are tasks. A direct fork imports and starts no executor, and `os` and
    # `pickle` are loaded with numpy already, so forking costs no start-up.
    workers = min(jobs, len(arglist))
    if workers <= 1:
        return [worker(args) for args in arglist]
    size, extra = divmod(len(arglist), workers)
    children, stop = [], 0  # (pid, read end of its pipe), in share order
    try:
        for k in range(workers):
            start, stop = stop, stop + size + (k < extra)
            read_fd, write_fd = os.pipe()
            reader = open(read_fd, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(worker, arglist[start:stop], write_fd)  # never returns
            finally:
                os.close(write_fd)
            children.append((pid, reader))
        rows = []
        while children:
            pid, reader = children[0]
            with reader:
                data = reader.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise RuntimeError(
                    f"ensemble worker exited with status {os.waitstatus_to_exitcode(status)} "
                    "without returning its rows"
                )
            error, share_rows = pickle.loads(data)
            if error is not None:
                raise error
            rows.extend(share_rows)
        return rows
    finally:
        # Left only after an error or an interrupt: stop and reap each worker.
        for pid, reader in children:
            reader.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _run_share(worker, share, write_fd):
    """In a forked worker: run ``share``, send ``(error, rows)`` down the pipe, exit.

    Whatever happens, the worker leaves through ``os._exit``, so it never
    returns into its caller's stack (the CLI, a test runner). An exception
    that will not pickle is sent as a ``RuntimeError`` with its ``repr``.
    """
    status = 1
    try:
        try:
            data = pickle.dumps((None, [worker(args) for args in share]))
        except BaseException as exc:
            try:
                data = pickle.dumps((exc, None))
                pickle.loads(data)
            except BaseException:
                data = pickle.dumps((RuntimeError(repr(exc)), None))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


@dataclass(eq=False)
class CorrelationPlan:
    """One validated correlation curve: its lag axis and its runs of realizations."""

    anchor_t: float
    anchor_f: float
    lags_t: np.ndarray
    tasks: list  # _corr_realization arguments, one per run, in realization-index order


def _estimate(rows: np.ndarray) -> Estimate:
    """The ensemble mean of ``rows`` (one row per realization, column 0 the
    zero lag), normalized by its zero lag."""
    n, mean = len(rows), rows.mean(axis=0)
    se = np.zeros(rows.shape[1])
    if n > 1:
        se = np.sqrt((rows.real.var(axis=0, ddof=1) + rows.imag.var(axis=0, ddof=1)) / n)
    zero = abs(mean[0])
    if zero == 0.0:
        raise ArithmeticError("zero-lag correlation vanished; cannot normalize")
    return Estimate(values=mean[1:], zero=complex(mean[0]), norm=np.abs(mean[1:]) / zero, stderr=se[1:] / zero)


def _reduce(plan: CorrelationPlan, rows: list) -> CorrelationResult:
    exp_rows = np.concatenate([r[0] for r in rows])
    return CorrelationResult(
        anchor_t=plan.anchor_t,
        anchor_f=plan.anchor_f,
        lags_t=plan.lags_t,
        n_realizations=len(exp_rows),
        expectation=_estimate(exp_rows),
        empirical=_estimate(np.concatenate([r[1] for r in rows])),
        resamples=[count for r in rows for count in r[2]],
    )


def correlate(plans: list[CorrelationPlan], jobs: int = 1) -> list[CorrelationResult]:
    """Evaluate every curve in ``plans`` as one ensemble: workers forked once at most.

    Each curve's rows are taken back out in realization-index order, so a
    curve's result does not depend on ``jobs``, on how its realizations are
    split into runs, or on the other curves.
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
    # row 0 is the anchor: every point pairs against it, and it against
    # itself gives the zero lag used for normalization
    times = np.concatenate([[t], t + lags_t])
    lost = (times[1:] == t) & (lags_t != 0)
    if lost.any():
        raise ValueError(f"lag {float(lags_t[lost][0])!r} s is lost in the anchor: t + lag == t at t={float(t)!r} s")
    if np.any(times < 0):  # the anchor itself was checked
        lag = float(lags_t[times[1:] < 0][0])
        raise ValueError(f"lag {lag!r} s reaches t={float(t) + lag!r} s, before t=0; reduce the lags")
    geo.evolve(cfg.geometry, cfg.intentional, times)  # name the first instant the platforms cannot reach
    if phase_draws < 1:
        raise ValueError(f"phase_draws must be >= 1, got {phase_draws}")
    runs = _runs(_ensemble_size(cfg), times.size * cfg.clusters.rays_per_path)
    return CorrelationPlan(t, f, lags_t, [(cfg, run, times, f, phase_draws) for run in runs])


def acf(cfg: ScenarioConfig, t: float, f: float, lags, jobs: int = 1, phase_draws: int = 1) -> CorrelationResult:
    """Temporal autocorrelation at instant ``t`` and baseband offset ``f``, over
    ``cfg.realizations`` realizations.

    Lag products pair the channel at ``t + lag`` against ``t``; this keeps
    every evaluation at nonnegative times so t=0 anchors work.
    ``phase_draws`` > 1 averages the *empirical* estimator over extra
    initial-phase draws per realization; the expectation estimator is
    unaffected by it.
    """
    return correlate([acf_plan(cfg, t, f, lags, phase_draws)], jobs)[0]


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
            a = prop.path_gain(d_los, f_abs)
            delays.append(d_los / c)
            powers.append(class_weight(cfg, PathKind.LOS) * a * a)
            labels.append("los")
        for path in geo.enumerate_paths(cfg.clusters):
            cluster = geo.macro_ray(state, cfg.geometry.water_depth, path)
            a = specular_gain(cfg, path, cluster.distance, cluster.incidence, f_abs)
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


@dataclass(eq=False)
class DelayStats:
    """Power-weighted delay moments, one entry per profile: a single profile's
    or an ensemble's, one profile per realization."""

    average: np.ndarray  # (n,) s, each relative to its profile's first arrival
    rms_spread: np.ndarray  # (n,) s
    resamples: list[int]  # ray draws rejected building each realization; none for delay_stats

    @property
    def n(self) -> int:
        return self.average.size

    def summary(self) -> list[tuple[str, float, float]]:
        """``(metric, mean, std)`` for each moment; the std of a single profile is 0.0."""
        moments = (("average_delay", self.average), ("rms_delay_spread", self.rms_spread))
        return [
            (metric, float(values.mean()), float(values.std(ddof=1)) if self.n > 1 else 0.0)
            for metric, values in moments
        ]


def delay_stats(profile: PdpResult) -> DelayStats:
    """Power-weighted average delay and RMS delay spread of one profile."""
    total = profile.powers.sum()
    if profile.powers.size == 0 or total <= 0.0:
        raise ValueError("delay statistics need at least one impulse with positive power")
    mu = float((profile.delays * profile.powers).sum() / total)
    var = float((((profile.delays - mu) ** 2) * profile.powers).sum() / total)
    return DelayStats(average=np.array([mu]), rms_spread=np.array([math.sqrt(max(var, 0.0))]), resamples=[])


def _delay_worker(args):
    cfg, index, t, f = args
    real = build_realization(cfg, index)
    return delay_stats(pdp(real, t, f)), real.resample_count


def ensemble_delay_stats(cfg: ScenarioConfig, t: float = 0.0, f: float = 0.0, jobs: int = 1) -> DelayStats:
    """Delay moments of the ray profiles of ``cfg.realizations`` realizations.

    A scenario's cluster profile is deterministic: its moments are
    ``delay_stats(pdp(cfg, t, f))``.
    """
    n = _ensemble_size(cfg)
    check_anchor(t, f)
    rows = _collect_rows(_delay_worker, [(cfg, i, t, f) for i in range(n)], jobs)
    return DelayStats(
        average=np.concatenate([moments.average for moments, _ in rows]),
        rms_spread=np.concatenate([moments.rms_spread for moments, _ in rows]),
        resamples=[count for _, count in rows],
    )
