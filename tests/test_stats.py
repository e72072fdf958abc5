import contextlib
import dataclasses
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import unit_losses
from hypothesis import given, settings, strategies as st

from uwachan.scenario import (
    ClusterConfig,
    DriftConfig,
    GeometryConfig,
    PowerConfig,
    ScenarioConfig,
    SignalConfig,
    SurfaceMotionConfig,
    IntentionalMotion,
    validate,
)
from uwachan.stats import (
    PdpResult,
    acf,
    delay_stats,
    ensemble_delay_stats,
    pdp,
)
from uwachan import stats
from uwachan.channel import (
    build_realization,
    component_table,
    evaluate_ctf,
    subpath_gains,
    tap_list,
)
from uwachan.presets import EXPERIMENTS, evaluate_curves, preset_scenario
from uwachan.geometry import enumerate_paths
from uwachan.propagation import PathKind
from uwachan.scenario import TAU, overlay, stream_for


def scenario(**overrides) -> ScenarioConfig:
    base = dict(
        geometry=GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0),
        clusters=ClusterConfig(max_surface_hops=1, max_bottom_hops=1, rays_per_path=6),
        power=PowerConfig(rice_k=1.0),
        signal=SignalConfig(carrier_freq=15000.0, time_grid=(0.0,)),
        master_seed=5,
        realizations=40,
    )
    base.update(overrides)
    return validate(ScenarioConfig(**base))


def moving_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        drift=DriftConfig(v_min=0.05, v_max=0.1, change_freq=2.0),
        surface=SurfaceMotionConfig(amplitude=0.5, freq=0.5, travel_angle=math.pi / 2),
    )
    base.update(overrides)
    return scenario(**base)


# ---------------------------------------------------------------------------
# correlation estimators


def test_zero_lag_normalizes_to_exactly_one():
    result = acf(moving_scenario(realizations=12), 0.0, 0.0, [0.0, 0.01, 0.02])
    assert result.expectation_norm[0] == 1.0
    assert result.empirical_norm[0] == 1.0


def test_static_direct_only_channel_never_decorrelates():
    cfg = scenario(power=PowerConfig(rice_k=1e12), realizations=8)
    result = acf(cfg, 0.0, 0.0, np.linspace(0.0, 0.5, 6))
    assert np.allclose(result.expectation_norm, 1.0, atol=1e-12)
    assert np.allclose(result.empirical_norm, 1.0, atol=1e-9)


def test_static_channel_correlation_equals_zero_lag():
    cfg = scenario(realizations=10)  # nothing moves at all
    result = acf(cfg, 0.0, 0.0, np.linspace(0.0, 1.0, 5))
    assert np.allclose(result.expectation, result.expectation_zero, rtol=0, atol=1e-18)
    assert np.allclose(result.expectation_norm, 1.0, atol=1e-12)


def test_moving_channel_correlation_bounded_by_zero_lag():
    result = acf(moving_scenario(realizations=60), 0.0, 0.0, np.linspace(0.0, 0.2, 9))
    assert np.all(result.expectation_norm <= 1.0 + 1e-9)
    assert np.all(result.empirical_norm <= 1.0 + 1e-9)


def test_acf_decays_under_motion():
    result = acf(moving_scenario(power=PowerConfig(rice_k=0.0), realizations=80), 0.0, 0.0, [0.0, 0.1])
    assert result.expectation_norm[1] < 0.9


def test_phase_draws_reduce_estimator_gap():
    cfg = moving_scenario(power=PowerConfig(rice_k=0.0), realizations=60)
    lags = np.linspace(0.0, 0.1, 6)
    plain = acf(cfg, 0.0, 0.0, lags, phase_draws=1)
    refined = acf(cfg, 0.0, 0.0, lags, phase_draws=12)
    gap_plain = np.abs(plain.expectation_norm - plain.empirical_norm).max()
    gap_refined = np.abs(refined.expectation_norm - refined.empirical_norm).max()
    assert gap_refined < gap_plain
    # expectation side is untouched by the stratification
    assert np.array_equal(plain.expectation, refined.expectation)


def test_monte_carlo_error_shrinks_like_root_n():
    cfg = moving_scenario(
        power=PowerConfig(rice_k=0.0),
        clusters=ClusterConfig(max_surface_hops=1, max_bottom_hops=1, rays_per_path=5),
    )
    lag = [0.05]
    trials = 64
    # every trial of both ensemble sizes as one task list: one pool for all 128 curves
    plans = [
        stats.acf_plan(dataclasses.replace(cfg, master_seed=1000 + s, realizations=n), 0.0, 0.0, lag)
        for n in (16, 32)
        for s in range(trials)
    ]
    values = [abs(r.expectation[0]) for r in stats.correlate(plans, jobs=min(2, os.cpu_count() or 1))]
    ratio = np.std(values[:trials], ddof=1) / np.std(values[trials:], ddof=1)
    assert math.sqrt(2) * 0.8 <= ratio <= math.sqrt(2) * 1.2


def test_jobs_do_not_change_results():
    cfg = moving_scenario(realizations=6)
    lags = np.linspace(0.0, 0.05, 4)
    serial = acf(cfg, 0.0, 0.0, lags, jobs=1)
    parallel = acf(cfg, 0.0, 0.0, lags, jobs=2)
    assert np.array_equal(serial.expectation, parallel.expectation)
    assert np.array_equal(serial.empirical, parallel.empirical)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_forked_workers_run_contiguous_shares_in_task_order():
    rows = stats._collect_rows(lambda task: (task, os.getpid()), list(range(7)), 3)
    assert [task for task, _ in rows] == list(range(7))
    pids = [pid for _, pid in rows]
    assert [pids.count(pid) for pid in dict.fromkeys(pids)] == [3, 2, 2]
    assert os.getpid() not in pids
    assert _no_child_left()


def test_a_worker_that_exits_without_rows_is_an_error():
    def dies(task):
        os._exit(3)

    with pytest.raises(RuntimeError, match="status 3"):
        stats._collect_rows(dies, [0, 1], 2)
    assert _no_child_left()


def test_a_parent_side_error_kills_the_running_workers():
    def first_dies_second_hangs(task):
        if task == 0:
            os._exit(3)
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="status 3"):
        stats._collect_rows(first_dies_second_hangs, [0, 1], 2)
    assert time.monotonic() - start < 30
    assert _no_child_left()


def test_a_worker_error_that_will_not_pickle_arrives_by_repr():
    class LocalError(Exception):  # a local class does not pickle
        pass

    def fails(task):
        raise LocalError(f"task {task}")

    with pytest.raises(RuntimeError, match=r"LocalError\('task 0'\)"):
        stats._collect_rows(fails, [0, 1], 2)
    with pytest.raises(ValueError, match="task 1"):  # one that pickles arrives as itself
        stats._collect_rows(lambda task: int(f"task {task}") if task else task, [0, 1], 2)
    assert _no_child_left()


def test_pool_is_no_larger_than_the_task_list(recording_pool):
    # A correlation task is a run of realizations. At this many rows one
    # realization's phasor block is over half the bound, so each realization
    # is a run, and a task, of its own.
    cfg = moving_scenario(realizations=3)
    lags = np.linspace(0.0, 0.01, stats._RUN_ELEMENTS // cfg.clusters.rays_per_path)
    pooled = acf(cfg, 0.0, 0.0, lags, jobs=64)
    assert recording_pool == [3]
    assert np.array_equal(pooled.expectation, acf(cfg, 0.0, 0.0, lags, jobs=1).expectation)
    acf(cfg, 0.0, 0.0, [0.0, 0.01], jobs=64)  # all three fit one run: one task runs in-process
    acf(dataclasses.replace(cfg, realizations=1), 0.0, 0.0, lags, jobs=64)  # so does one realization
    ensemble_delay_stats(dataclasses.replace(cfg, realizations=2), mode="ray", jobs=8)
    assert recording_pool == [3, 2]


def test_runs_split_realizations_evenly_within_the_bound():
    budget = stats._RUN_ELEMENTS
    for n in (1, 2, 3, 5, 16, 17, 100, 500):
        for per in (1, 7, 1100, 7700, budget // 2, budget // 2 + 1, budget, budget + 1, 10 * budget):
            runs = stats._runs(n, per)
            assert [i for run in runs for i in run] == list(range(n)), (n, per)
            assert all(len(run) * per <= budget or len(run) == 1 for run in runs), (n, per)
            sizes = [len(run) for run in runs]
            assert max(sizes) - min(sizes) <= 1, (n, per, sizes)
            assert len(runs) == -(-n // max(1, budget // per)), (n, per)  # the fewest that fit
            if per > budget:
                assert sizes == [1] * n
    # fig3: 22 rows x 50 rays fit 14 realizations in a block; 16 split 8 + 8, not 14 + 2
    assert [len(run) for run in stats._runs(16, 22 * 50)] == [8, 8]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", ["fig3", "fig4-freq"])
def test_one_pass_equals_per_curve_acf(name, jobs):
    _, lags, curves = EXPERIMENTS[name]
    together = evaluate_curves(name, cfg=overlay(preset_scenario(name), {"realizations": 3}), jobs=jobs)
    assert list(together) == list(curves)
    for label, (t, changes) in curves.items():
        alone = acf(overlay(preset_scenario(name), {**changes, "realizations": 3}), t, 0.0, lags)
        got = together[label]
        for field in ("expectation", "empirical", "expectation_stderr", "empirical_stderr"):
            assert np.array_equal(getattr(got, field), getattr(alone, field)), (label, field)
        assert got.resamples == alone.resamples


def run_of_one(real, times, fabs):
    """One realization's table and gains in the shapes the reference below
    was written for: ``los_delay`` (T,), ``delays`` (T, R) and gains (T,),
    each row at its own absolute frequency."""
    table = component_table([real], times)
    a_los, a_subs = subpath_gains([real], table, fabs[:, np.newaxis])
    squeezed = SimpleNamespace(los_delay=table.los_delay[:, 0], delays=[d[:, 0] for d in table.delays])
    return squeezed, a_los[:, 0], [a[:, 0] for a in a_subs]


def reference_corr_realization(args):
    """The correlation kernel as it was before any evaluation was shared.

    It evaluates both sides of every row in full, the anchor side repeated
    once per row: two component tables, two sets of gains and two phasor
    blocks per sub-path. Kept as the oracle for the kernel.
    """
    (cfg, index, times, offsets, phase_draws) = args
    real = build_realization(cfg, index)
    hi_t, hi_f = times, offsets
    lo_t, lo_f = np.full_like(times, times[0]), np.full_like(offsets, offsets[0])
    fabs_hi = cfg.signal.carrier_freq + hi_f
    fabs_lo = cfg.signal.carrier_freq + lo_f
    tab_hi, a_los_hi, a_subs_hi = run_of_one(real, hi_t, fabs_hi)
    tab_lo, a_los_lo, a_subs_lo = run_of_one(real, lo_t, fabs_lo)
    k = cfg.power.rice_k
    n_rays = cfg.clusters.rays_per_path
    w_los = math.sqrt(k / (k + 1.0))
    w_da = math.sqrt(cfg.power.da_fraction / (2.0 * cfg.clusters.max_surface_hops * (k + 1.0)) / n_rays)
    w_ua = math.sqrt(cfg.power.ua_fraction / (2.0 * cfg.clusters.max_bottom_hops * (k + 1.0)) / n_rays)
    hi_col = fabs_hi[:, np.newaxis]
    lo_col = fabs_lo[:, np.newaxis]

    los_hi = w_los * a_los_hi * np.exp(-1j * TAU * fabs_hi * tab_hi.los_delay)
    los_lo = w_los * a_los_lo * np.exp(-1j * TAU * fabs_lo * tab_lo.los_delay)
    exp_row = (k / (k + 1.0)) * a_los_hi * a_los_lo * np.exp(
        -1j * TAU * (fabs_hi * tab_hi.los_delay - fabs_lo * tab_lo.los_delay)
    )
    phasors_hi = []
    phasors_lo = []
    for sp, a_hi, a_lo, d_hi, d_lo in zip(
        real.subpaths, a_subs_hi, a_subs_lo, tab_hi.delays, tab_lo.delays
    ):
        if sp.path.kind is PathKind.DA:
            weight = cfg.power.da_fraction / (2.0 * cfg.clusters.max_surface_hops * (k + 1.0))
        else:
            weight = cfg.power.ua_fraction / (2.0 * cfg.clusters.max_bottom_hops * (k + 1.0))
        p_hi = np.exp(-1j * TAU * hi_col * d_hi)
        p_lo = np.exp(-1j * TAU * lo_col * d_lo)
        exp_row = exp_row + weight * a_hi * a_lo * (p_hi * np.conj(p_lo)).mean(axis=1)
        phasors_hi.append(p_hi)
        phasors_lo.append(p_lo)

    emp = np.zeros(hi_t.size, dtype=complex)
    for p in range(phase_draws):
        h_hi = los_hi.astype(complex)
        h_lo = los_lo.astype(complex)
        for sp, a_hi, a_lo, p_hi, p_lo in zip(
            real.subpaths, a_subs_hi, a_subs_lo, phasors_hi, phasors_lo
        ):
            if p == 0:
                phases = sp.phases
            else:
                rng = stream_for(cfg.master_seed, index, f"phase-redraw/{p}/{sp.path.label}")
                phases = rng.uniform(0.0, TAU, sp.phases.size)
            w = w_da if sp.path.kind is PathKind.DA else w_ua
            rot = np.exp(1j * phases)[np.newaxis, :]
            h_hi = h_hi + w * a_hi * (rot * p_hi).sum(axis=1)
            h_lo = h_lo + w * a_lo * (rot * p_lo).sum(axis=1)
        emp += h_hi * np.conj(h_lo)
    return exp_row, emp / phase_draws


INSTANTS = st.sampled_from([0.0, 0.02, 0.05, 0.1])
OFFSETS = st.sampled_from([0.0, 250.0, -400.0])


@st.composite
def anchor_points(draw):
    """(times, offset) with the anchor in row 0; repeated instants likely."""
    size = draw(st.integers(1, 6))
    times = [draw(INSTANTS)] + draw(st.lists(INSTANTS, min_size=size, max_size=size))
    return np.array(times), draw(OFFSETS)


@settings(max_examples=100, deadline=None)
@given(
    rice_k=st.sampled_from([0.0, 0.5, 5.0]),
    amplitude=st.floats(0.0, 2.0),
    rays=st.integers(1, 8),
    hops=st.integers(1, 2),
    seed=st.integers(0, 10_000),
    realizations=st.integers(1, 2),
    points=anchor_points(),
    phase_draws=st.sampled_from([1, 3]),
    unit_gains=st.booleans(),
)
def test_kernel_matches_reference(
    rice_k, amplitude, rays, hops, seed, realizations, points, phase_draws, unit_gains
):
    cfg = moving_scenario(
        power=PowerConfig(rice_k=rice_k),
        surface=SurfaceMotionConfig(amplitude=amplitude, freq=0.5, travel_angle=math.pi / 2),
        clusters=ClusterConfig(max_surface_hops=hops, max_bottom_hops=hops, rays_per_path=rays),
        master_seed=seed,
    )
    times, offset = points
    with unit_losses() if unit_gains else contextlib.nullcontext():
        got = stats._corr_realization((cfg, range(realizations), times, offset, phase_draws))
        want = [
            reference_corr_realization((cfg, index, times, np.full_like(times, offset), phase_draws))
            for index in range(realizations)
        ]
    for estimator in (0, 1):
        rows = got[estimator]
        ref = np.array([r[estimator] for r in want])
        scale = abs(ref[:, 0].mean())
        assert np.abs(rows - ref).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    drift=st.booleans(),
    rice_k=st.sampled_from([0.0, 0.5, 5.0]),
    amplitude=st.floats(0.1, 2.0),
    rays=st.integers(1, 8),
    hops=st.integers(1, 2),
    seed=st.integers(0, 10_000),
    realizations=st.integers(1, 5),
    points=anchor_points(),
    phase_draws=st.sampled_from([1, 3]),
)
def test_rows_do_not_depend_on_the_runs(
    drift, rice_k, amplitude, rays, hops, seed, realizations, points, phase_draws
):
    # A curve's bytes must not depend on how its realizations are split into
    # runs: each realization alone gives exactly its rows in a run of all.
    cfg = moving_scenario(
        drift=DriftConfig(v_min=0.05, v_max=0.1, change_freq=2.0) if drift else DriftConfig(),
        power=PowerConfig(rice_k=rice_k),
        surface=SurfaceMotionConfig(amplitude=amplitude, freq=0.5, travel_angle=math.pi / 2),
        clusters=ClusterConfig(max_surface_hops=hops, max_bottom_hops=hops, rays_per_path=rays),
        master_seed=seed,
    )
    times, offset = points
    whole = stats._corr_realization((cfg, range(realizations), times, offset, phase_draws))
    alone = [
        stats._corr_realization((cfg, range(index, index + 1), times, offset, phase_draws))
        for index in range(realizations)
    ]
    for estimator in (0, 1):
        assert np.array_equal(whole[estimator], np.concatenate([r[estimator] for r in alone]))
    assert whole[2] == [count for r in alone for count in r[2]]


@settings(max_examples=60, deadline=None)
@given(
    rice_k=st.sampled_from([0.0, 0.5, 5.0]),
    amplitude=st.floats(0.0, 2.0),
    rays=st.integers(1, 8),
    hops=st.integers(1, 2),
    seed=st.integers(0, 10_000),
    speeds=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    start=INSTANTS,
    step=st.sampled_from([0.02, 0.05]),
    instants=st.integers(1, 4),
    offsets=st.lists(OFFSETS, min_size=1, max_size=3, unique=True),
    unit_gains=st.booleans(),
)
def test_taps_sum_to_the_ctf_grid(
    rice_k, amplitude, rays, hops, seed, speeds, start, step, instants, offsets, unit_gains
):
    # Both sides evaluate the grid in one table; that a grid table's rows equal
    # single-instant tables is test_grid_table_rows_equal_single_instant_tables.
    cfg = moving_scenario(
        intentional=IntentionalMotion(
            tx_speed=speeds[0], tx_heading=0.3, rx_speed=speeds[1], rx_heading=-math.pi / 2
        ),
        power=PowerConfig(rice_k=rice_k),
        surface=SurfaceMotionConfig(amplitude=amplitude, freq=0.5, travel_angle=math.pi / 2),
        clusters=ClusterConfig(max_surface_hops=hops, max_bottom_hops=hops, rays_per_path=rays),
        signal=SignalConfig(
            carrier_freq=15000.0,
            freq_offsets=tuple(offsets),
            time_grid=tuple(start + step * i for i in range(instants)),
        ),
        master_seed=seed,
    )
    real = build_realization(cfg, 0)
    with unit_losses() if unit_gains else contextlib.nullcontext():
        frame = evaluate_ctf(real)
        amps = tap_list(real, cfg.signal.time_grid, cfg.signal.freq_offsets).amplitudes
    assert np.all(np.abs(amps.sum(axis=-1) - frame.values) <= 1e-9 * np.abs(amps).sum(axis=-1))


# ---------------------------------------------------------------------------
# delay profiles and moments


def impulses(delays, powers):
    delays = np.asarray(delays, dtype=float)
    powers = np.asarray(powers, dtype=float)
    first = delays.min()
    order = np.argsort(delays)
    return PdpResult(
        anchor_t=0.0,
        anchor_f=0.0,
        delays=delays[order] - first,
        powers=powers[order],
        labels=[f"i{k}" for k in range(delays.size)],
        first_arrival=float(first),
    )


def test_delay_stats_single_impulse():
    stats = delay_stats(impulses([1.3e-3], [2.0]))
    assert stats.average == 0.0  # relative to first arrival
    assert stats.rms_spread == 0.0


def test_delay_stats_symmetric_pair():
    stats = delay_stats(impulses([1.0e-3, 3.0e-3], [0.5, 0.5]))
    assert stats.average == pytest.approx(1.0e-3, rel=1e-12)
    assert stats.rms_spread == pytest.approx(1.0e-3, rel=1e-12)


def test_delay_stats_shift_invariance():
    a = delay_stats(impulses([1e-3, 2e-3, 5e-3], [1.0, 2.0, 0.5]))
    b = delay_stats(impulses([11e-3, 12e-3, 15e-3], [1.0, 2.0, 0.5]))
    assert a.rms_spread == pytest.approx(b.rms_spread, rel=1e-12)
    assert a.average == pytest.approx(b.average, rel=1e-12)


def test_delay_stats_power_scale_invariance():
    a = delay_stats(impulses([1e-3, 2e-3, 5e-3], [1.0, 2.0, 0.5]))
    b = delay_stats(impulses([1e-3, 2e-3, 5e-3], [7.0, 14.0, 3.5]))
    assert a.average == pytest.approx(b.average, rel=1e-12)
    assert a.rms_spread == pytest.approx(b.rms_spread, rel=1e-12)


def test_delay_stats_rejects_zero_power():
    with pytest.raises(ValueError, match="positive power"):
        delay_stats(impulses([1e-3], [0.0]))


def test_cluster_pdp_impulse_count_and_normalization():
    profile = pdp(scenario(), 0.0, 0.0)
    assert len(profile.delays) == 5  # direct + four sub-paths
    assert profile.delays[0] == 0.0
    assert np.all(profile.delays >= 0.0)
    assert profile.labels[0] == "los"
    profile0 = pdp(scenario(power=PowerConfig(rice_k=0.0)), 0.0, 0.0)
    assert len(profile0.delays) == 4  # no direct impulse at zero Rice factor


def test_ray_pdp_impulse_count():
    cfg = scenario()
    real = build_realization(cfg, 0)
    profile = pdp(real, 0.0, 0.0)
    assert len(profile.delays) == 1 + 4 * cfg.clusters.rays_per_path
    assert pytest.approx(profile.delays[0]) == 0.0


@pytest.mark.parametrize("rice_k", [0.0, 1.0])
def test_ray_pdp_unit_gain_powers_sum_to_one(rice_k):
    # K/(K+1) direct plus the DA and UA fractions of 1/(K+1), spread over the rays
    cfg = scenario(power=PowerConfig(rice_k=rice_k))
    with unit_losses():
        profile = pdp(build_realization(cfg, 0), 0.0, 0.0)
    assert len(profile.delays) == (rice_k > 0) + 4 * cfg.clusters.rays_per_path
    assert ("los" in profile.labels) == (rice_k > 0)
    assert profile.powers.sum() == pytest.approx(1.0, rel=1e-12)


def test_pdp_source_picks_the_profile():
    # A scenario gives one impulse per cluster, a realization one per ray;
    # every ray of a sub-path carries its cluster's gain and an equal share
    # of its power, so each sub-path's rays sum to its cluster impulse.
    cfg = scenario()
    cluster = pdp(cfg, 0.0, 0.0)
    ray = pdp(build_realization(cfg, 0), 0.0, 0.0)
    assert sorted(cluster.labels) == sorted(["los", *(p.label for p in enumerate_paths(cfg.clusters))])
    assert len(ray.labels) == 1 + 4 * cfg.clusters.rays_per_path
    for label, power in zip(cluster.labels, cluster.powers):
        summed = sum(p for name, p in zip(ray.labels, ray.powers) if name.split("#")[0] == label)
        assert summed == pytest.approx(power, rel=1e-12), label


def test_pdp_powers_are_quadratic_in_gain():
    cfg = scenario()
    plain = pdp(cfg, 0.0, 0.0)
    with unit_losses():
        unit = pdp(cfg, 0.0, 0.0)
    from uwachan.propagation import PathKind, path_gain
    from uwachan.geometry import enumerate_paths, evolve, los_distance, macro_ray

    state = evolve(cfg.geometry, cfg.intentional, 0.0)
    gains = {"los": path_gain(PathKind.LOS, los_distance(state), cfg.signal.carrier_freq)}
    for path in enumerate_paths(cfg.clusters):
        cluster = macro_ray(state, cfg.geometry.water_depth, path)
        gains[path.label] = path_gain(
            path.kind,
            cluster.distance,
            cfg.signal.carrier_freq,
            incidence=cluster.incidence,
            bottom_bounces=path.bottom_hops,
            bottom=cfg.bottom,
            water_sound_speed=cfg.geometry.sound_speed,
        )
    for label, p_real, p_unit in zip(plain.labels, plain.powers, unit.powers):
        assert p_real == pytest.approx(p_unit * gains[label] ** 2, rel=1e-12)


def test_ensemble_delay_stats_cluster_mode_is_degenerate():
    ens = ensemble_delay_stats(scenario(realizations=7))
    assert ens.n == 7
    assert ens.average_std == pytest.approx(0.0, abs=1e-15)
    assert ens.rms_spread_std == pytest.approx(0.0, abs=1e-15)
    single = delay_stats(pdp(scenario(), 0.0, 0.0))
    assert ens.average_mean == pytest.approx(single.average, rel=1e-15)


def test_ensemble_delay_stats_ray_mode_varies():
    cfg = scenario(master_seed=9, realizations=4)
    ens = ensemble_delay_stats(cfg, mode="ray")
    assert ens.n == 4
    assert ens.rms_spread_std > 0.0


def test_statistics_ignore_the_simulate_grid():
    # The ACF and the ray-mode delay moments evaluate their own instants; the
    # time grid only tells `simulate` where to sample, so extending it must
    # not move the drift or any draw of their ensembles.
    short = overlay(preset_scenario("fig3"), {"realizations": 4})
    long = overlay(short, {"signal": {"time_grid": [0.0, 1.5, 3.0]}})
    lags = np.linspace(0.0, 0.1, 21)
    a, b = acf(short, 0.0, 0.0, lags), acf(long, 0.0, 0.0, lags)
    assert np.array_equal(a.expectation, b.expectation)
    assert np.array_equal(a.empirical, b.empirical)
    a, b = (ensemble_delay_stats(overlay(cfg, {"realizations": 3}), mode="ray") for cfg in (short, long))
    assert np.array_equal(a.average, b.average)
    assert np.array_equal(a.rms_spread, b.rms_spread)
    assert a.resamples == b.resamples


def test_acf_does_not_depend_on_how_far_it_reaches():
    # A realization is its (seed, index): fig3's drift changes velocity every
    # second, and lags out to 1.8 s reach two intervals further than lags out
    # to 0.9 s, yet the lags both curves share must be the same numbers.
    cfg = overlay(preset_scenario("fig3"), {"realizations": 16})
    lags = np.arange(19) * 0.1
    short, long = acf(cfg, 0.0, 0.0, lags[:10]), acf(cfg, 0.0, 0.0, lags)
    for field in ("expectation", "empirical", "expectation_stderr", "empirical_stderr"):
        assert np.array_equal(getattr(short, field), getattr(long, field)[:10]), field
    assert short.resamples == long.resamples


@pytest.mark.parametrize("name", ["table1", "fig4-time", "fig3"])
def test_ray_mode_equals_cluster_mode_at_the_cluster_limit(name):
    # With no angle spread, no drift and a still surface, every ray of a
    # sub-path runs along its specular reflection at every instant, because
    # its points follow the specular points as the platforms move. So each
    # realization's ray moments are the cluster moments, at t = 0 and along
    # fig4-time's closing range (2,000 m to 1,100 m by 60 s) and fig3's
    # rising receiver.
    limit = {
        "clusters": {"angle_spread_surface": 0.0, "angle_spread_bottom": 0.0},
        "drift": {"v_min": 0.0, "v_max": 0.0},
        "surface": {"amplitude": 0.0},
    }
    cfg = overlay(preset_scenario(name), limit)
    anchors = {"table1": (0.0,), "fig4-time": (0.0, 10.0, 60.0), "fig3": (0.0, 10.0)}[name]
    for t in anchors:
        ray = ensemble_delay_stats(overlay(cfg, {"realizations": 5}), t, mode="ray")
        cluster = ensemble_delay_stats(overlay(cfg, {"realizations": 1}), t, mode="cluster")
        np.testing.assert_allclose(ray.average, cluster.average_mean, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(ray.rms_spread, cluster.rms_spread_mean, rtol=1e-11, atol=0.0)


def test_unknown_delay_stats_mode_is_rejected_before_any_build(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a realization for an unknown mode")

    monkeypatch.setattr(stats, "build_realization", no_build)
    with pytest.raises(ValueError, match="unknown delay-stats mode 'bogus'"):
        ensemble_delay_stats(scenario(realizations=2), mode="bogus")


def test_unvalidated_empty_ensemble_is_rejected():
    # dataclasses.replace skips the scenario's validation, so the statistics check the size again
    empty = dataclasses.replace(scenario(), realizations=0)
    with pytest.raises(ValueError, match="at least one realization, got 0"):
        acf(empty, 0.0, 0.0, [0.0, 0.01])
    with pytest.raises(ValueError, match="at least one realization, got 0"):
        ensemble_delay_stats(empty, mode="ray")
