import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwachan import channel, geometry
from uwachan.channel import (
    build_realization,
    component_table,
    ctf_values,
    evaluate_ctf,
    tap_list,
)
from uwachan.presets import preset_scenario
from uwachan.propagation import PathKind
from uwachan.motion import surface_displacement
from uwachan.scenario import (
    ClusterConfig,
    DriftConfig,
    GeometryConfig,
    IntentionalMotion,
    PowerConfig,
    ScenarioConfig,
    SignalConfig,
    SurfaceMotionConfig,
    validate,
)

TAU = 2 * math.pi


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        geometry=GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0),
        clusters=ClusterConfig(max_surface_hops=1, max_bottom_hops=1, rays_per_path=8),
        power=PowerConfig(rice_k=1.0),
        signal=SignalConfig(carrier_freq=15000.0, freq_offsets=(0.0, 1000.0), time_grid=(0.0, 0.5, 1.0)),
        master_seed=11,
    )
    base.update(overrides)
    return validate(ScenarioConfig(**base))


def test_subpath_enumeration_minimal():
    real = build_realization(small_scenario(), 0)
    labels = [sp.path.label for sp in real.subpaths]
    assert labels == ["da_s1_b0", "da_s1_b1", "ua_b1_s0", "ua_b1_s1"]


def test_subpath_and_ray_counts():
    cfg = small_scenario(
        clusters=ClusterConfig(max_surface_hops=2, max_bottom_hops=2, rays_per_path=50)
    )
    real = build_realization(cfg, 0)
    assert len(real.subpaths) == 8
    assert sum(sp.rays.aoa.size for sp in real.subpaths) == 400
    for sp in real.subpaths:
        fields = (sp.phases, *sp.rays)
        assert all(values.shape == (50,) for values in fields)


def test_build_is_deterministic():
    cfg = small_scenario()
    a = build_realization(cfg, 3)
    b = build_realization(cfg, 3)
    for sa, sb in zip(a.subpaths, b.subpaths):
        assert np.array_equal(sa.phases, sb.phases)
        assert np.array_equal(sa.rays.aoa, sb.rays.aoa)
    assert np.array_equal(evaluate_ctf(a).values, evaluate_ctf(b).values)
    c = build_realization(cfg, 4)
    assert not np.array_equal(a.subpaths[0].phases, c.subpaths[0].phases)


def test_specular_single_bounce_delay_is_macro_delay():
    cfg = small_scenario(
        clusters=ClusterConfig(
            max_surface_hops=1,
            max_bottom_hops=1,
            rays_per_path=2,
            angle_spread_surface=0.0,
            angle_spread_bottom=0.0,
            mid_distance_spread=0.0,
        )
    )
    real = build_realization(cfg, 0)
    assert real.subpaths[0].path.is_single_bounce
    tau = component_table([real], [0.0]).delays[0][0, 0, 0]
    expected = math.hypot(2000.0, 70.0) / 1500.0
    assert tau == pytest.approx(expected, abs=1e-12)


def test_los_delay_measurement_geometry():
    cfg = small_scenario(
        geometry=GeometryConfig(
            distance0=1500.0, water_depth=80.0, tx_depth0=34.5, rx_depth0=36.0, sound_speed=1440.0
        ),
        signal=SignalConfig(carrier_freq=17000.0, time_grid=(0.0,)),
    )
    real = build_realization(cfg, 0)
    assert component_table([real], [0.0]).los_delay[0, 0] == pytest.approx(math.hypot(1500.0, 1.5) / 1440.0, rel=1e-12)


def test_rays_never_beat_the_direct_path():
    # table1: surface motion of 2 m amplitude, no drift; fig3: 1 m amplitude
    # plus drift up to 0.12 m/s
    for name, horizon in (("table1", 1.0), ("fig3", 0.1)):
        real = build_realization(preset_scenario(name), 0, horizon=horizon)
        for t in np.linspace(0.0, horizon, 3):
            table = component_table([real], [t])
            for delays in table.delays:
                assert np.all(delays[0] >= table.los_delay[0] - 1e-9)


def test_still_drift_is_one_interval():
    # table1 has no drift, so a long horizon must not allocate one interval
    # per 1/change_freq seconds of it.
    real = build_realization(preset_scenario("table1"), 0, horizon=1e4)
    assert real.drift_tx.speeds.size == 1
    assert real.drift_rx.speeds.size == 1
    assert real.drift_tx.displacement(1e4)[0] == 0.0


def test_floor_reserves_the_worst_case_drift():
    # Within the horizon each platform drifts at most v_max * horizon, which
    # can shorten a ray's leg and lengthen the direct path by as much, so at
    # t=0 (still surface, no drift yet) every ray must be longer than the
    # direct path by 4 * v_max * horizon. Drawn drifts stay well inside that
    # bound, so the check above cannot see this margin.
    base = preset_scenario("fig3")
    cfg = dataclasses.replace(
        base, surface=dataclasses.replace(base.surface, amplitude=0.0), intentional=IntentionalMotion()
    )
    horizon = 1.0
    real = build_realization(cfg, 0, horizon=horizon)
    table = component_table([real], [0.0])
    margin = 4.0 * cfg.drift.v_max * horizon / cfg.geometry.sound_speed
    for delays in table.delays:
        assert np.all(delays[0] - table.los_delay[0] >= margin - 1e-12)


def test_horizon_geometry_is_checked_before_drift_is_drawn(monkeypatch):
    # fig3's platforms leave the valid geometry long before 1e6 s (the Rx
    # leaves the water column at 80 s), so the build must fail on that
    # without drawing a million drift intervals per side first.
    def no_drift(*args):
        raise AssertionError("drift drawn before the horizon's geometry was checked")

    monkeypatch.setattr(channel, "build_drift", no_drift)
    with pytest.raises(geometry.GeometryError):
        build_realization(preset_scenario("fig3"), 0, horizon=1e6)


def test_ctf_los_only_limit():
    cfg = small_scenario(power=PowerConfig(rice_k=1e12))
    real = build_realization(cfg, 0)
    frame = evaluate_ctf(real)
    table = component_table([real], cfg.signal.time_grid)
    for fi, f in enumerate(cfg.signal.freq_offsets):
        from uwachan.channel import subpath_gains

        a_los, _ = subpath_gains([real], table, cfg.signal.carrier_freq + f)
        assert np.abs(frame.values[:, fi]) == pytest.approx(a_los[:, 0], rel=1e-6)


def test_ctf_k_zero_has_no_direct_tap():
    cfg = small_scenario(power=PowerConfig(rice_k=0.0))
    real = build_realization(cfg, 0)
    taps = tap_list(real, [0.0], [0.0])
    assert len(taps) == 4 * 8
    assert "los" not in taps.labels


def test_grid_table_rows_equal_single_instant_tables():
    # Taps and the CTF both evaluate a whole time grid in one table, so their
    # agreement cannot show a table whose rows depend on the rest of the grid.
    cfg = preset_scenario("fig3")  # drift, surface motion and intentional motion
    times = np.linspace(0.0, 4.0, 41)
    for index in range(3):
        real = build_realization(cfg, index, horizon=times[-1])
        grid = component_table([real], times)
        for i, t in enumerate(times):
            single = component_table([real], [t])
            assert np.array_equal(grid.los_delay[i : i + 1], single.los_delay)
            for grid_delays, single_delays in zip(grid.delays, single.delays):
                assert np.array_equal(grid_delays[i : i + 1], single_delays)


def test_static_channel_is_time_invariant():
    cfg = small_scenario()  # no intentional motion, no drift, no surface
    frame = evaluate_ctf(build_realization(cfg, 0))
    assert np.allclose(frame.values, frame.values[0, :], rtol=0, atol=0)


def test_tap_list_counts_and_sum():
    cfg = small_scenario(
        clusters=ClusterConfig(max_surface_hops=1, max_bottom_hops=1, rays_per_path=50)
    )
    real = build_realization(cfg, 0)
    taps = tap_list(real, [0.0], [1000.0])
    assert len(taps) == 1 + 4 * 50
    total = taps.amplitudes[0, 0].sum()
    table = component_table([real], [0.0])
    h = ctf_values(real, table, 1000.0)[0]
    assert total == pytest.approx(h, rel=1e-12)


def test_tap_list_earliest_is_direct():
    real = build_realization(small_scenario(), 0)
    taps = tap_list(real, [0.0], [0.0])
    assert taps.labels[int(np.argmin(taps.delays[0]))] == "los"


def test_delay_shift_rotates_ctf_phase():
    cfg = small_scenario()
    real = build_realization(cfg, 0)
    f = 1000.0
    f_abs = cfg.signal.carrier_freq + f
    amps = tap_list(real, [0.0], [f]).amplitudes[0, 0]
    h = amps.sum()
    shift = 1.7e-3
    shifted = (amps * np.exp(-1j * TAU * f_abs * shift)).sum()
    assert shifted == pytest.approx(h * np.exp(-1j * TAU * f_abs * shift), rel=1e-12)


def test_resample_counter_reports_branch_rejections():
    # huge spreads force out-of-branch draws on the coupled single bounces
    cfg = small_scenario(
        clusters=ClusterConfig(
            max_surface_hops=1, max_bottom_hops=1, rays_per_path=40,
            angle_spread_surface=0.05, angle_spread_bottom=0.05,
        )
    )
    real = build_realization(cfg, 0)
    assert real.resample_count > 0


def test_evaluate_ctf_grid_shape():
    frame = evaluate_ctf(build_realization(small_scenario(), 2))
    assert frame.values.shape == (3, 2)
    assert np.all(np.isfinite(frame.values.view(float)))
    assert frame.realization == 2


def test_nonstationary_surface_modulates_ctf():
    cfg = small_scenario(surface=SurfaceMotionConfig(amplitude=1.0, freq=0.5))
    frame = evaluate_ctf(build_realization(cfg, 0))
    assert not np.allclose(frame.values[0, :], frame.values[1, :])


# ---------------------------------------------------------------------------
# skipped zero terms


def reference_segment_lengths(rays, cluster, aod, state, water_depth, drift_tx, drift_rx, surface, t):
    """Ray legs with every drift and surface term evaluated, zero or not."""
    path, aoa = cluster.path, rays.aoa
    dd_t, alpha_t = (np.asarray(v, dtype=float) for v in drift_tx)
    dd_r, alpha_r = (np.asarray(v, dtype=float) for v in drift_rx)
    b_tx = dd_t * np.cos(alpha_t - aod)
    b_rx = dd_r * np.cos(alpha_r - aoa)
    surface_boundary = geometry.Boundary.SURFACE
    if path.first_boundary is surface_boundary:
        a_tx = surface_displacement(surface, rays.theta_first, t) * np.cos(aod - surface.travel_angle)
        leg_tx = a_tx + (water_depth - state.tx_depth) / np.sin(aod) - b_tx
    else:
        leg_tx = state.tx_depth / np.sin(TAU - aod) - b_tx
    if path.last_boundary is surface_boundary:
        a_rx = surface_displacement(surface, rays.theta_last, t) * np.cos(aoa - surface.travel_angle)
        leg_rx = a_rx + (water_depth - state.rx_depth) / np.sin(math.pi - aoa) - b_rx
    else:
        leg_rx = state.rx_depth / np.sin(aoa - math.pi) - b_rx
    if path.is_single_bounce:
        mid = np.zeros(np.broadcast(leg_tx, leg_rx).shape)
    else:
        mid = cluster.leg_mid * np.exp(rays.delta_mid)
    return leg_tx, mid, leg_rx


@settings(max_examples=60, deadline=None)
@given(
    v_max=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
    amplitude=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    surface_freq=st.sampled_from([0.0, 0.5, 3.0]),
    speeds=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    rays=st.integers(1, 8),
    hops=st.integers(1, 2),
    seed=st.integers(0, 10_000),
    step=st.sampled_from([0.05, 0.2]),
    instants=st.integers(2, 6),
)
def test_skipped_zero_terms_leave_every_bit(
    v_max, amplitude, surface_freq, speeds, rays, hops, seed, step, instants
):
    # Drift is zero at t = 0, so the grid must run past its first instant.
    times = tuple(step * i for i in range(instants))
    cfg = small_scenario(
        intentional=IntentionalMotion(tx_speed=speeds[0], tx_heading=0.3, rx_speed=speeds[1], rx_heading=-1.2),
        drift=DriftConfig(v_min=0.0, v_max=v_max, change_freq=2.0),
        surface=SurfaceMotionConfig(amplitude=amplitude, freq=surface_freq, travel_angle=1.1),
        clusters=ClusterConfig(max_surface_hops=hops, max_bottom_hops=hops, rays_per_path=rays),
        signal=SignalConfig(carrier_freq=15000.0, time_grid=times),
        master_seed=seed,
    )

    def evaluate():
        real = build_realization(cfg, 0)
        return real, component_table([real], times)

    real, table = evaluate()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "segment_lengths", reference_segment_lengths)
        want_real, want_table = evaluate()
    assert real.resample_count == want_real.resample_count
    for sp, want in zip(real.subpaths, want_real.subpaths):
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(sp.rays, want.rays))
    assert all(np.array_equal(a, b) for a, b in zip(table.delays, want_table.delays))
    assert np.array_equal(table.los_delay, want_table.los_delay)


def test_instants_past_the_built_span_are_rejected():
    # fig3 drifts: at 0.9 s the floor built for 0.3 s no longer holds. table1
    # does not drift, yet the instant, not the drift, must be what is named.
    for name, horizon, t in (("fig3", 0.3, 0.9), ("table1", 1.0, 2.0)):
        real = build_realization(preset_scenario(name), 0, horizon=horizon)
        message = rf"instant {t!r} s is outside the realization's span \[0, {horizon!r}\] s"
        with pytest.raises(ValueError, match=message):
            tap_list(real, [0.0, t], [0.0])
        with pytest.raises(ValueError, match=message):
            component_table([real], [t])
    real = build_realization(preset_scenario("table1"), 0, horizon=1.0)
    with pytest.raises(ValueError, match="outside the realization's span"):
        component_table([real], [-0.1])
    component_table([real], [0.0, 1.0])  # both ends of the span evaluate
