import math

import numpy as np
import pytest

from uwachan.motion import DriftState, build_drift, surface_displacement
from uwachan.scenario import DriftConfig, SurfaceMotionConfig, stream_for

TAU = 2 * math.pi


def rng():
    return stream_for(7, 0, "test-drift")


def test_zero_speed_drift_never_moves():
    state = build_drift(DriftConfig(v_min=0.0, v_max=0.0, change_freq=1.0), 10.0, rng())
    for t in (0.0, 0.4, 3.7, 10.0):
        assert state.displacement(t) == (0.0, 0.0)


def test_interval_layout_matches_change_freq():
    state = build_drift(DriftConfig(v_min=0.1, v_max=0.12, change_freq=1.0), 10.0, rng())
    assert len(state.speeds) == 10
    assert state.change_interval == 1.0
    assert state.horizon == 10.0
    assert np.all(state.speeds >= 0.1) and np.all(state.speeds <= 0.12)
    assert np.all(state.bearings >= 0.0) and np.all(state.bearings < TAU)


def test_forced_equal_bearings_gives_linear_displacement():
    v, bearing = 0.25, 1.1
    state = DriftState.from_draws(1.0, [v] * 6, [bearing] * 6)
    for t in (0.5, 2.0, 4.75, 6.0):
        dx, dz = state.displacement(t)
        assert dx == pytest.approx(v * t * math.cos(bearing), rel=1e-12)
        assert dz == pytest.approx(v * t * math.sin(bearing), rel=1e-12)


def test_displacement_at_origin_is_zero():
    state = build_drift(DriftConfig(v_min=0.1, v_max=0.5, change_freq=2.0), 3.0, rng())
    assert state.displacement(0.0) == (0.0, 0.0)


def test_single_interval_integral():
    state = DriftState.from_draws(1.0, [0.1], [0.0])
    dx, dz = state.displacement(1.0)
    assert dx == pytest.approx(0.1, rel=1e-12)
    assert dz == 0.0


def test_opposite_bearings_cancel():
    state = DriftState.from_draws(1.0, [0.3, 0.3], [0.2, 0.2 + math.pi])
    dx, dz = state.displacement(2.0)
    assert math.hypot(dx, dz) == pytest.approx(0.0, abs=1e-15)


def test_displacement_is_continuous():
    state = build_drift(DriftConfig(v_min=0.0, v_max=0.5, change_freq=3.0), 4.0, rng())
    times = np.linspace(0.0, 4.0, 1201)
    dx, dz = state.displacement(times)
    steps = np.hypot(np.diff(dx), np.diff(dz))
    assert steps.max() <= 0.5 * (times[1] - times[0]) + 1e-12


def test_speed_scaling_scales_displacement():
    speeds = [0.1, 0.4, 0.2]
    bearings = [0.3, 2.0, 5.1]
    base = DriftState.from_draws(1.0, speeds, bearings)
    doubled = DriftState.from_draws(1.0, [2 * v for v in speeds], bearings)
    for t in (0.7, 1.5, 2.9):
        dx1, dz1 = base.displacement(t)
        dx2, dz2 = doubled.displacement(t)
        assert dx2 == pytest.approx(2 * dx1, rel=1e-12)
        assert dz2 == pytest.approx(2 * dz1, rel=1e-12)


def test_a_longer_horizon_extends_the_same_path():
    # A path drawn further starts with the same draws and gives the same
    # displacement, bit for bit, at every instant the shorter one covers,
    # its last instant included when that falls on an interval boundary.
    for change_freq in (1.0, 3.0, 10.0):
        cfg = DriftConfig(v_min=0.1, v_max=0.5, change_freq=change_freq)
        for t in (0.0, 0.1, 0.3, 0.7, 1.0, 2.0 / 3.0, 1.0 / 3.0 * 5, 2.5, 7.0):
            near, far = build_drift(cfg, t, rng()), build_drift(cfg, 3 * t, rng())
            assert np.array_equal(near.speeds, far.speeds[: near.speeds.size])
            assert np.array_equal(near.bearings, far.bearings[: near.bearings.size])
            times = np.linspace(0.0, t, 11)
            for a, b in zip(near.displacement(times), far.displacement(times)):
                assert np.array_equal(a, b), (change_freq, t)


def test_outside_horizon_rejected():
    state = build_drift(DriftConfig(v_min=0.1, v_max=0.2, change_freq=1.0), 2.0, rng())
    with pytest.raises(ValueError, match="horizon"):
        state.displacement(2.5)
    with pytest.raises(ValueError, match="horizon"):
        state.displacement(-0.1)


def test_surface_displacement_zero_amplitude():
    cfg = SurfaceMotionConfig(amplitude=0.0, freq=0.4)
    assert surface_displacement(cfg, 1.0, 12.3) == 0.0


def test_surface_displacement_direct_value():
    cfg = SurfaceMotionConfig(amplitude=2.0, freq=0.1)
    assert surface_displacement(cfg, 0.0, 2.5) == pytest.approx(2.0, rel=1e-12)


def test_surface_displacement_periodicity():
    cfg = SurfaceMotionConfig(amplitude=1.5, freq=0.5)
    for t in (0.0, 0.3, 1.9):
        a = surface_displacement(cfg, 0.7, t)
        b = surface_displacement(cfg, 0.7, t + 1.0 / cfg.freq)
        assert abs(a - b) <= 1e-12


def test_build_drift_requires_positive_horizon():
    with pytest.raises(ValueError, match="horizon"):
        build_drift(DriftConfig(v_max=0.1, change_freq=1.0), -1.0, rng())
    # an evaluation at t = 0 alone reaches one interval
    for v_max in (0.0, 0.1):
        state = build_drift(DriftConfig(v_max=v_max, change_freq=1.0), 0.0, rng())
        assert state.speeds.size == 1
        assert state.displacement(0.0) == (0.0, 0.0)
