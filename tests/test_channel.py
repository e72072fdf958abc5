import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uwachan import channel, geometry, scenario
from uwachan.channel import (
    build_realization,
    component_table,
    ctf_values,
    evaluate_ctf,
    tap_list,
)
from uwachan.presets import preset_scenario
from uwachan.propagation import PathKind
from uwachan.motion import drift_displacement, surface_displacement
from uwachan.scenario import (
    ClusterConfig,
    DriftConfig,
    GeometryConfig,
    IntentionalMotion,
    PowerConfig,
    ScenarioConfig,
    SignalConfig,
    SurfaceMotionConfig,
    overlay,
    stream_for,
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
    assert sum(sp.rays.last.size for sp in real.subpaths) == 400
    for sp in real.subpaths:
        fields = (sp.phases, *sp.rays)
        assert all(values.shape == (50,) for values in fields)


def test_build_is_deterministic():
    cfg = small_scenario()
    a = build_realization(cfg, 3)
    b = build_realization(cfg, 3)
    for sa, sb in zip(a.subpaths, b.subpaths):
        assert np.array_equal(sa.phases, sb.phases)
        assert np.array_equal(sa.rays.last, sb.rays.last)
    assert np.array_equal(evaluate_ctf(a).values, evaluate_ctf(b).values)
    c = build_realization(cfg, 4)
    assert not np.array_equal(a.subpaths[0].phases, c.subpaths[0].phases)


def realization_bits(real) -> list:
    """Every drawn value of a realization, as bytes, with its sub-path labels and resample count."""
    return [real.resample_count] + [
        (sp.path.label, sp.phases.tobytes(), *(field.tobytes() for field in sp.rays)) for sp in real.subpaths
    ]


def cold_build(cfg, index):
    scenario._purpose_key.cache_clear()
    channel._build_constants.cache_clear()
    return realization_bits(build_realization(cfg, index))


def test_a_cold_build_equals_a_warm_one():
    cfg = preset_scenario("fig3")
    build_realization(cfg, 3)
    warm = realization_bits(build_realization(cfg, 3))
    assert cold_build(cfg, 3) == warm


@pytest.mark.parametrize(
    "changes",
    [
        {"geometry": {"tx_depth0": 40.0}},
        {"clusters": {"max_surface_hops": 1}},
    ],
)
def test_the_build_cache_serves_no_stale_entry(changes):
    # Two scenarios that differ in one cached section, built alternately: each
    # gives its own cold-cache bits.
    pair = [preset_scenario("fig3"), overlay(preset_scenario("fig3"), changes)]
    cold = [cold_build(cfg, 2) for cfg in pair]
    assert cold[0] != cold[1]
    for i in (0, 1, 0, 1):
        assert realization_bits(build_realization(pair[i], 2)) == cold[i]


def test_specular_single_bounce_delay_is_macro_delay():
    cfg = small_scenario(
        clusters=ClusterConfig(
            max_surface_hops=1,
            max_bottom_hops=1,
            rays_per_path=2,
            angle_spread_surface=0.0,
            angle_spread_bottom=0.0,
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
        real = build_realization(preset_scenario(name), 0)
        for t in np.linspace(0.0, horizon, 3):
            table = component_table([real], [t])
            for delays in table.delays:
                assert np.all(delays[0] >= table.los_delay[0] - 1e-9)


@st.composite
def _moving_scenarios(draw):
    """Random valid scenarios: any intentional motion, drift and surface
    motion, each possibly still, with platforms in the water for the horizon."""
    depth = draw(st.floats(20.0, 200.0))
    heights = [draw(st.floats(0.05, 0.95)) * depth for _ in range(2)]
    horizon = draw(st.floats(0.1, 15.0))
    speeds, headings = [], []
    for height in heights:
        heading = draw(st.floats(0.0, TAU))
        room = (depth - height if math.sin(heading) > 0 else height) * 0.9
        speeds.append(draw(st.floats(0.0, 1.0)) * min(5.0, room / (horizon * abs(math.sin(heading)) + 1e-9)))
        headings.append(heading)
    v_max = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
    amplitude = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.1))) * depth
    spread = st.floats(0.0, 0.05)
    cfg = small_scenario(
        geometry=GeometryConfig(
            distance0=draw(st.floats(200.0, 3000.0)), water_depth=depth, tx_depth0=heights[0], rx_depth0=heights[1]
        ),
        intentional=IntentionalMotion(
            tx_speed=speeds[0], tx_heading=headings[0], rx_speed=speeds[1], rx_heading=headings[1]
        ),
        drift=DriftConfig(v_min=0.0, v_max=v_max, change_freq=draw(st.floats(0.5, 5.0))),
        surface=SurfaceMotionConfig(
            amplitude=amplitude, freq=draw(st.floats(0.0, 3.0)), travel_angle=draw(st.floats(0.0, TAU))
        ),
        clusters=ClusterConfig(
            max_surface_hops=draw(st.integers(1, 2)),
            max_bottom_hops=draw(st.integers(1, 2)),
            rays_per_path=draw(st.integers(1, 6)),
            angle_spread_surface=draw(spread),
            angle_spread_bottom=draw(spread),
        ),
        master_seed=draw(st.integers(0, 10_000)),
    )
    return cfg, horizon


def _drift(cfg, index, platform, t):
    """Realization ``index``'s drift displacement (dx, dz) of ``platform`` at ``t``."""
    return drift_displacement(cfg.drift, stream_for(cfg.master_seed, index, f"drift/{platform}"), t)


@settings(max_examples=60, deadline=None)
@given(case=_moving_scenarios())
def test_rays_are_closed_paths_over_random_scenarios(case):
    # A ray runs from the Tx through its boundary points to the Rx, so at
    # every instant it is at least as long as the direct path, the straight
    # line between the same drifted platforms. With a still
    # surface and no drift its points lie on the boundaries between the
    # platforms' own positions, so it is also at least as long as its
    # specular (image-method) path.
    cfg, horizon = case
    real = build_realization(cfg, 0)
    table = component_table([real], np.linspace(0.0, horizon, 7))
    c = cfg.geometry.sound_speed
    still = cfg.drift.v_max == 0.0 and cfg.surface.amplitude == 0.0
    for delays, cluster in zip(table.delays, table.clusters):
        lengths = delays * c
        assert np.all(lengths >= table.los_length[..., np.newaxis] * (1 - 1e-9))
        if still:
            assert np.all(lengths >= cluster.distance * (1 - 1e-9))


@settings(max_examples=60, deadline=None)
@given(
    distance=st.floats(200.0, 3000.0),
    depth=st.floats(20.0, 200.0),
    heights=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
    hops=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    spreads=st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1)),
    rays=st.integers(1, 20),
    seed=st.integers(0, 10_000),
)
def test_every_ray_point_starts_between_the_platforms(distance, depth, heights, hops, spreads, rays, seed):
    # A scatterer point is tied to the channel geometry: at t = 0 each point
    # of a ray, multi-bounce or single, lies on its boundary strictly between
    # the platforms, whether placed from the Tx or from the Rx.
    cfg = small_scenario(
        geometry=GeometryConfig(
            distance0=distance, water_depth=depth, tx_depth0=heights[0] * depth, rx_depth0=heights[1] * depth
        ),
        clusters=ClusterConfig(
            max_surface_hops=hops[0],
            max_bottom_hops=hops[1],
            rays_per_path=rays,
            angle_spread_surface=spreads[0],
            angle_spread_bottom=spreads[1],
        ),
        master_seed=seed,
    )
    state = geometry.evolve(cfg.geometry, cfg.intentional, 0.0)
    for sp in build_realization(cfg, 0).subpaths:
        cluster = geometry.macro_ray(state, depth, sp.path)
        for x in (sp.rays.first * cluster.run_tx, state.distance - sp.rays.last * cluster.run_rx):
            assert np.all((0.0 < x) & (x < state.distance)), sp.path.label


@settings(max_examples=60, deadline=None)
@given(case=_moving_scenarios())
def test_los_length_is_the_distance_between_the_drifted_platforms(case):
    # Each platform sits where its intentional motion put it, shifted by its
    # own drift: the direct path is the exact distance between the two.
    cfg, horizon = case
    run = [build_realization(cfg, index) for index in range(2)]
    times = np.linspace(0.0, horizon, 7)
    table = component_table(run, times)
    for i, t in enumerate(times):
        state = geometry.evolve(cfg.geometry, cfg.intentional, t)
        for k, real in enumerate(run):
            tx_dx, tx_dz = _drift(cfg, k, "tx", t)
            rx_dx, rx_dz = _drift(cfg, k, "rx", t)
            exact = math.hypot(
                float(state.distance) + float(rx_dx) - float(tx_dx),
                float(state.rx_depth) + float(rx_dz) - float(state.tx_depth) - float(tx_dz),
            )
            assert table.los_length[i, k] == pytest.approx(exact, rel=1e-12, abs=0)


def _surface_legs(path) -> int:
    """Legs that end on a surface point: two per point, since each point joins two legs."""
    ends = (path.first_boundary,) if path.is_single_bounce else (path.first_boundary, path.last_boundary)
    return 2 * sum(boundary is geometry.Boundary.SURFACE for boundary in ends)


@pytest.mark.parametrize("name,horizon", [("fig3", 10.0), ("fig4-time", 60.0), ("table1", 10.0)])
def test_preset_ray_lengths_change_no_faster_than_the_motion(name, horizon):
    # A leg changes length no faster than its two ends move apart. A
    # platform moves at its intentional speed plus at most v_max of drift
    # and ends one leg; a surface point moves at most at the surface's peak
    # speed 2 pi f A and ends two. (A point can lengthen both of its legs at
    # once: on table1, realization 0, a da_s1_b1 ray whose two points lie
    # 3 m apart has a nearly vertical mid leg, and its length changes at
    # 1.06 times one peak speed.) The points also slide with their specular
    # points; on the presets that stays inside this bound, but it is not a
    # property of every scenario. A platform moving vertically slides a
    # specular point along its boundary at up to range / depth times its
    # speed, and an off-specular ray's legs follow part of that slide (a
    # specular ray's do not, to first order). Over 150 random moving
    # scenarios of 10 s, every ray point between the platforms, 35 exceed
    # this bound (worst 274 times), and none at zero angle spread; so the
    # bound is checked on the presets only.
    cfg = preset_scenario(name)
    motion, dt = cfg.intentional, 1e-4
    platforms = motion.tx_speed + motion.rx_speed + 2.0 * cfg.drift.v_max
    surface_speed = TAU * cfg.surface.freq * cfg.surface.amplitude
    times = np.linspace(0.0, horizon - dt, 101)
    for index in range(5):
        real = build_realization(cfg, index)
        now, later = component_table([real], times), component_table([real], times + dt)
        for sp, d0, d1 in zip(real.subpaths, now.delays, later.delays):
            rate = np.abs(d1 - d0) * cfg.geometry.sound_speed / dt
            assert rate.max() <= platforms + _surface_legs(sp.path) * surface_speed, sp.path.label


def test_fig3_builds_for_a_minute():
    # No drift-dependent floor limits the reach: fig3's Rx sinks 60 m and
    # its drift runs for 60 s, and every ray stays a closed path.
    real = build_realization(preset_scenario("fig3"), 0)
    table = component_table([real], [0.0, 30.0, 60.0])
    for delays in table.delays:
        assert np.all(delays >= table.los_delay[..., np.newaxis])


def test_still_drift_is_one_interval(monkeypatch):
    # table1 has no drift, so evaluating it at 1e4 s must not draw or
    # allocate one interval per 1/change_freq seconds of the reach: it
    # draws nothing and returns zeros shaped like the instants.
    drifts = []

    def recording(cfg, rng, t):
        state = rng.bit_generator.state
        dx, dz = drift_displacement(cfg, rng, t)
        drifts.append((rng.bit_generator.state == state, dx, dz))
        return dx, dz

    monkeypatch.setattr(channel, "drift_displacement", recording)
    real = build_realization(preset_scenario("table1"), 0)
    table = component_table([real], [0.0, 1e4])
    assert len(drifts) == 2  # one per platform
    for untouched, dx, dz in drifts:
        assert untouched and dx.shape == dz.shape == (2,)
        assert not dx.any() and not dz.any()
    assert table.los_length[0, 0] == table.los_length[1, 0]


def test_horizon_geometry_is_checked_before_drift_is_drawn(monkeypatch):
    # fig3's platforms leave the valid geometry long before 1e6 s (the Rx
    # leaves the water column at 80 s), so the evaluation must fail on that
    # without drawing a million drift intervals per side first.
    def no_drift(*args):
        raise AssertionError("drift drawn before the instants' geometry was checked")

    real = build_realization(preset_scenario("fig3"), 0)
    monkeypatch.setattr(channel, "drift_displacement", no_drift)
    with pytest.raises(geometry.GeometryError):
        component_table([real], [0.0, 1e6])


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
        real = build_realization(cfg, index)
        grid = component_table([real], times)
        for i, t in enumerate(times):
            single = component_table([real], [t])
            assert np.array_equal(grid.los_delay[i : i + 1], single.los_delay)
            for grid_delays, single_delays in zip(grid.delays, single.delays):
                assert np.array_equal(grid_delays[i : i + 1], single_delays)


@settings(max_examples=40, deadline=None)
@given(case=_moving_scenarios())
def test_a_longer_reach_leaves_every_row(case):
    # The drift is drawn as far as the table reaches, and a longer reach
    # extends the same path: a table that stops at T and one that goes on to
    # 3T agree bit for bit on the instants up to T.
    cfg, horizon = case
    run = [build_realization(cfg, index) for index in range(2)]
    short = np.linspace(0.0, horizon / 3, 7)
    longer = np.concatenate([short, np.linspace(horizon / 3, horizon, 13)[1:]])
    near, far = component_table(run, short), component_table(run, longer)
    assert np.array_equal(near.los_length, far.los_length[:7])
    for near_delays, far_delays in zip(near.delays, far.delays):
        assert np.array_equal(near_delays, far_delays[:7])


@settings(max_examples=40, deadline=None)
@given(case=_moving_scenarios(), cuts=st.lists(st.integers(1, 15), max_size=5), index=st.integers(0, 3))
def test_consecutive_chunks_give_the_grid_bits(case, cuts, index):
    # simulate evaluates a long grid a chunk of instants at a time: the taps
    # and the CTF over consecutive chunks are the whole grid's, bit for bit.
    cfg, horizon = case
    real = build_realization(cfg, index)
    times = np.linspace(0.0, horizon, 16)
    chunks = np.split(times, sorted(set(cuts)))
    freqs = cfg.signal.freq_offsets
    whole, parts = tap_list(real, times, freqs), [tap_list(real, chunk, freqs) for chunk in chunks]
    for field in ("delays", "amplitudes", "powers"):
        assert np.array_equal(np.concatenate([getattr(p, field) for p in parts]), getattr(whole, field))
    assert all(p.labels == whole.labels for p in parts)
    frames = [evaluate_ctf(real, chunk) for chunk in chunks]
    assert np.array_equal(np.concatenate([f.values for f in frames]), evaluate_ctf(real, times).values)


@settings(max_examples=40, deadline=None)
@given(
    hops=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    rays=st.integers(1, 8),
    rice_k=st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
    spreads=st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),
    headings=st.tuples(st.floats(0.0, TAU), st.floats(0.0, TAU)),
    change_freq=st.floats(0.5, 5.0),
    surface=st.one_of(
        st.builds(SurfaceMotionConfig, amplitude=st.just(0.0), freq=st.floats(0.0, 3.0)),
        st.builds(SurfaceMotionConfig, amplitude=st.floats(0.1, 2.0), freq=st.just(0.0), travel_angle=st.floats(0.0, TAU)),
    ),
    step=st.floats(0.01, 2.0),
    instants=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
@example(  # small_scenario() itself
    hops=(1, 1), rays=8, rice_k=1.0, spreads=(0.015, 0.015), headings=(0.0, 0.0), change_freq=1.0,
    surface=SurfaceMotionConfig(), step=0.5, instants=3, seed=11,
)
def test_static_channel_is_time_invariant(
    hops, rays, rice_k, spreads, headings, change_freq, surface, step, instants, seed
):
    # Nothing moves: platforms at zero speed whatever their headings, no
    # drift whatever its redraw rate, and a surface either still or frozen
    # at a displacement (no frequency), so every CTF row is row 0, bit for bit.
    cfg = small_scenario(
        intentional=IntentionalMotion(tx_heading=headings[0], rx_heading=headings[1]),
        drift=DriftConfig(change_freq=change_freq),
        surface=surface,
        clusters=ClusterConfig(
            max_surface_hops=hops[0],
            max_bottom_hops=hops[1],
            rays_per_path=rays,
            angle_spread_surface=spreads[0],
            angle_spread_bottom=spreads[1],
        ),
        power=PowerConfig(rice_k=rice_k),
        signal=SignalConfig(
            carrier_freq=15000.0, freq_offsets=(0.0, 1000.0), time_grid=tuple(step * i for i in range(instants))
        ),
        master_seed=seed,
    )
    frame = evaluate_ctf(build_realization(cfg, 0))
    assert np.array_equal(frame.values, np.broadcast_to(frame.values[0], frame.values.shape))


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
    # wide spreads force draws whose points fall outside the platforms' span
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


def reference_micro_ray_distances(rays, cluster, state, water_depth, drift_tx, drift_rx, surface, t):
    """Ray legs with every drift and surface term evaluated, zero or not."""
    path = cluster.path

    def on_boundary(boundary, x, theta):
        if boundary is geometry.Boundary.BOTTOM:
            return x, 0.0
        shift = surface_displacement(surface, theta, t)
        return x + shift * math.cos(surface.travel_angle), water_depth + shift * math.sin(surface.travel_angle)

    def platform(x, z, drift):
        dx, dz = drift
        return x + dx, z + dz

    first = on_boundary(path.first_boundary, rays.first * cluster.run_tx, rays.theta_first)
    if path.is_single_bounce:
        last = first
    else:
        last = on_boundary(path.last_boundary, state.distance - rays.last * cluster.run_rx, rays.theta_last)
    tx = platform(0.0, state.tx_depth, drift_tx)
    rx = platform(state.distance, state.rx_depth, drift_rx)
    return geometry.segment_lengths(path, water_depth, tx, first, last, rx)


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

    real = build_realization(cfg, 0)
    table = component_table([real], times)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "micro_ray_distances", reference_micro_ray_distances)
        want_table = component_table([real], times)
    assert all(np.array_equal(a, b) for a, b in zip(table.delays, want_table.delays))
    assert np.array_equal(table.los_delay, want_table.los_delay)


def test_instants_past_the_built_span_are_rejected():
    # A realization has no span: any instant >= 0 evaluates, and one before
    # t = 0 (or not finite) is rejected by name, on a drifting scenario (fig3)
    # and on one without drift (table1).
    for name, t in (("fig3", -0.9), ("table1", -2.0)):
        real = build_realization(preset_scenario(name), 0)
        message = rf"instant {t!r} s must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            tap_list(real, [0.0, t], [0.0])
        with pytest.raises(ValueError, match=message):
            component_table([real], [t])
    real = build_realization(preset_scenario("table1"), 0)
    with pytest.raises(ValueError, match=r"instant nan s must be finite"):
        component_table([real], [0.0, math.nan])
    component_table([real], [0.0, 1.0, 1e3])  # no instant >= 0 is out of reach
