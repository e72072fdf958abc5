import math

import numpy as np
import pytest

from uwachan.motion import drift_displacement, surface_displacement
from uwachan.scenario import DriftConfig, SurfaceMotionConfig, stream_for

TAU = 2 * math.pi


def rng():
    return stream_for(7, 0, "test-drift")


class ChosenDraws:
    """Stands in for the drift's generator: ``uniform`` returns the chosen
    (speed, bearing) pairs, as many as the drift asks for."""

    def __init__(self, speeds, bearings):
        self.pairs = np.column_stack([speeds, bearings]).astype(float)

    def uniform(self, low, high, size):
        assert size[0] <= len(self.pairs) and size[1] == 2
        return self.pairs[: size[0]].copy()


class RecordingDraws:
    """A generator whose ``uniform`` calls are recorded as (low, high, size, drawn)."""

    def __init__(self, generator):
        self.generator, self.calls = generator, []

    def uniform(self, low, high, size):
        drawn = self.generator.uniform(low, high, size)
        self.calls.append((low, high, size, drawn))
        return drawn


def test_zero_speed_drift_never_moves():
    generator = rng()
    state = generator.bit_generator.state
    times = np.array([0.0, 0.4, 3.7, 10.0])
    dx, dz = drift_displacement(DriftConfig(v_min=0.0, v_max=0.0, change_freq=1.0), generator, times)
    assert dx.shape == dz.shape == times.shape
    assert not dx.any() and not dz.any()
    assert generator.bit_generator.state == state  # nothing drawn


def test_interval_layout_matches_change_freq():
    for change_freq, intervals in ((1.0, 10), (3.0, 30)):
        draws = RecordingDraws(rng())
        drift_displacement(DriftConfig(v_min=0.1, v_max=0.12, change_freq=change_freq), draws, [0.0, 4.2, 10.0])
        [(low, high, size, drawn)] = draws.calls  # one draw of every interval at once
        assert (low, high, size) == ((0.1, 0.0), (0.12, TAU), (intervals, 2))
        speeds, bearings = drawn.T
        assert np.all(speeds >= 0.1) and np.all(speeds <= 0.12)
        assert np.all(bearings >= 0.0) and np.all(bearings < TAU)


def test_forced_equal_bearings_gives_linear_displacement():
    v, bearing = 0.25, 1.1
    cfg = DriftConfig(v_max=1.0, change_freq=1.0)
    for t in (0.5, 2.0, 4.75, 6.0):
        dx, dz = drift_displacement(cfg, ChosenDraws([v] * 6, [bearing] * 6), t)
        assert dx == pytest.approx(v * t * math.cos(bearing), rel=1e-12)
        assert dz == pytest.approx(v * t * math.sin(bearing), rel=1e-12)


def test_displacement_at_origin_is_zero():
    assert drift_displacement(DriftConfig(v_min=0.1, v_max=0.5, change_freq=2.0), rng(), 0.0) == (0.0, 0.0)


def test_single_interval_integral():
    dx, dz = drift_displacement(DriftConfig(v_max=1.0, change_freq=1.0), ChosenDraws([0.1], [0.0]), 1.0)
    assert dx == pytest.approx(0.1, rel=1e-12)
    assert dz == 0.0


def test_opposite_bearings_cancel():
    draws = ChosenDraws([0.3, 0.3], [0.2, 0.2 + math.pi])
    dx, dz = drift_displacement(DriftConfig(v_max=1.0, change_freq=1.0), draws, 2.0)
    assert math.hypot(dx, dz) == pytest.approx(0.0, abs=1e-15)


def test_displacement_is_continuous():
    times = np.linspace(0.0, 4.0, 1201)
    dx, dz = drift_displacement(DriftConfig(v_min=0.0, v_max=0.5, change_freq=3.0), rng(), times)
    steps = np.hypot(np.diff(dx), np.diff(dz))
    assert steps.max() <= 0.5 * (times[1] - times[0]) + 1e-12


def test_speed_scaling_scales_displacement():
    speeds = [0.1, 0.4, 0.2]
    bearings = [0.3, 2.0, 5.1]
    cfg = DriftConfig(v_max=1.0, change_freq=1.0)
    for t in (0.7, 1.5, 2.9):
        dx1, dz1 = drift_displacement(cfg, ChosenDraws(speeds, bearings), t)
        dx2, dz2 = drift_displacement(cfg, ChosenDraws([2 * v for v in speeds], bearings), t)
        assert dx2 == pytest.approx(2 * dx1, rel=1e-12)
        assert dz2 == pytest.approx(2 * dz1, rel=1e-12)


def test_a_later_instant_extends_the_same_path():
    # Instants that reach 3T draw the same first intervals as instants that
    # stop at T and give the same displacement, bit for bit, at every
    # instant they share, T included when it falls on an interval boundary.
    for change_freq in (1.0, 3.0, 10.0):
        cfg = DriftConfig(v_min=0.1, v_max=0.5, change_freq=change_freq)
        for t in (0.0, 0.1, 0.3, 0.7, 1.0, 2.0 / 3.0, 1.0 / 3.0 * 5, 2.5, 7.0):
            times = np.linspace(0.0, t, 11)
            near_draws, far_draws = RecordingDraws(rng()), RecordingDraws(rng())
            near = drift_displacement(cfg, near_draws, times)
            far = drift_displacement(cfg, far_draws, np.append(times, 3 * t))
            near_drawn, far_drawn = near_draws.calls[0][3], far_draws.calls[0][3]
            assert np.array_equal(near_drawn, far_drawn[: len(near_drawn)])
            for a, b in zip(near, far):
                assert np.array_equal(a, b[:-1]), (change_freq, t)


def test_negative_or_non_finite_instant_rejected():
    for v_max in (0.0, 0.2):
        cfg = DriftConfig(v_min=0.0, v_max=v_max, change_freq=1.0)
        for bad in (-0.1, -1.0, math.nan, math.inf):
            draws = RecordingDraws(rng())
            with pytest.raises(ValueError, match="finite instants >= 0"):
                drift_displacement(cfg, draws, [0.0, 1.0, bad])
            assert draws.calls == []  # rejected before anything is drawn


def test_an_instant_at_zero_draws_one_interval():
    # an evaluation at t = 0 alone reaches one interval; a still drift draws none
    for v_max, intervals in ((0.0, []), (0.1, [(1, 2)])):
        draws = RecordingDraws(rng())
        assert drift_displacement(DriftConfig(v_max=v_max, change_freq=1.0), draws, 0.0) == (0.0, 0.0)
        assert [size for _, _, size, _ in draws.calls] == intervals


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


def test_a_path_past_any_float_count_names_change_freq():
    # 1e10 s at 1e300 changes a second overflows the interval count itself
    drift = DriftConfig(v_min=0.1, v_max=0.2, change_freq=1e300)
    message = r"^drift.change_freq=1e\+300 Hz needs inf velocity intervals to reach t=10000000000.0 s"
    with pytest.raises(ValueError, match=message):
        drift_displacement(drift, rng(), [0.0, 1.0e10])
