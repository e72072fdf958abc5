import math

import numpy as np
import pytest

from uwachan.propagation import (
    absorption_loss,
    bottom_reflection,
    path_gain,
    spreading_loss,
    thorp_attenuation,
)
from uwachan.scenario import BottomConfig


def thorp_reference(f_khz: float) -> float:
    # independent desk evaluation of the empirical attenuation polynomial
    f2 = f_khz * f_khz
    return 0.11 * f2 / (1 + f2) + 44.0 * f2 / (4100 + f2) + 2.75e-4 * f2 + 0.003


def test_thorp_at_17_khz():
    assert thorp_attenuation(17.0) == pytest.approx(3.089, abs=1e-3)
    assert thorp_attenuation(17.0) == pytest.approx(thorp_reference(17.0), rel=1e-15)


def test_thorp_low_frequency_limit():
    assert thorp_attenuation(1e-6) == pytest.approx(0.003, abs=1e-9)


def test_thorp_strictly_increasing_1_to_100_khz():
    f = np.arange(1.0, 101.0, 1.0)
    alpha = thorp_attenuation(f)
    assert np.all(np.diff(alpha) > 0)


def test_thorp_rejects_nonpositive():
    with pytest.raises(ValueError):
        thorp_attenuation(0.0)


def test_absorption_zero_distance():
    assert absorption_loss(0.0, 17.0) == 1.0


def test_absorption_direct_value():
    expected = 10 ** (-1500.0 * thorp_reference(17.0) / 20000.0)
    assert absorption_loss(1500.0, 17.0) == pytest.approx(expected, rel=1e-12)
    assert absorption_loss(1500.0, 17.0) == pytest.approx(0.5862, abs=5e-4)


def test_absorption_doubling_distance_squares_ratio():
    one = absorption_loss(730.0, 12.0)
    two = absorption_loss(1460.0, 12.0)
    assert two == pytest.approx(one * one, rel=1e-12)


def test_spreading_loss_values():
    assert spreading_loss(1.0) == 1.0
    assert spreading_loss(2000.0) == pytest.approx(5e-4, rel=1e-15)
    assert spreading_loss(500.0) / spreading_loss(250.0) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        spreading_loss(0.0)


def test_bottom_reflection_normal_incidence():
    bottom = BottomConfig(density_ratio=1.5, sound_speed=1600.0)
    expected = (1.5 - 0.9375) / (1.5 + 0.9375)
    assert bottom_reflection(0.0, bottom, 1500.0) == pytest.approx(expected, rel=1e-12)


def test_bottom_reflection_quarter_ratio_exact():
    bottom = BottomConfig(density_ratio=1.5, sound_speed=1600.0)
    assert bottom_reflection(0.0, bottom, 1440.0) == 0.25


def test_bottom_reflection_total_beyond_critical():
    bottom = BottomConfig(density_ratio=1.5, sound_speed=1600.0)
    critical = math.asin(1500.0 / 1600.0)
    angles = np.arange(critical + 1e-6, math.pi / 2, 1e-3)
    coeffs = bottom_reflection(angles, bottom, 1500.0)
    assert np.all(coeffs == 1.0)
    assert bottom_reflection(1.53, bottom, 1500.0) == 1.0


def test_bottom_reflection_bounded_and_continuous_at_critical():
    bottom = BottomConfig(density_ratio=1.5, sound_speed=1600.0)
    angles = np.arange(0.0, math.pi / 2, 1e-3)
    coeffs = bottom_reflection(angles, bottom, 1500.0)
    assert np.all(coeffs >= 0.0) and np.all(coeffs <= 1.0)
    critical = math.asin(1500.0 / 1600.0)
    below = bottom_reflection(critical - 1e-9, bottom, 1500.0)
    above = bottom_reflection(critical + 1e-9, bottom, 1500.0)
    assert below == pytest.approx(1.0, abs=1e-3)
    assert above == 1.0


def test_bottom_reflection_domain():
    bottom = BottomConfig()
    with pytest.raises(ValueError):
        bottom_reflection(-0.01, bottom, 1500.0)
    with pytest.raises(ValueError):
        bottom_reflection(math.pi / 2, bottom, 1500.0)


def test_path_gain_los_composition():
    g = path_gain(2000.2249, 15000.0)
    assert g == pytest.approx(
        spreading_loss(2000.2249) * absorption_loss(2000.2249, 15.0), rel=1e-12
    )


def test_path_gain_zero_bounces_has_unit_bottom_factor():
    factor = bottom_reflection(1.5358, BottomConfig(), 1500.0) ** 0
    assert factor == 1.0
    assert path_gain(2001.2246, 15000.0, factor) == path_gain(2001.2246, 15000.0)


def test_path_gain_two_bounces_squares_reflection():
    bottom = BottomConfig(density_ratio=1.5, sound_speed=1600.0)
    aoi = 0.7
    g = path_gain(2100.0, 15000.0, bottom_reflection(aoi, bottom, 1500.0) ** 2)
    free = spreading_loss(2100.0) * absorption_loss(2100.0, 15.0)
    assert g == pytest.approx(free * bottom_reflection(aoi, bottom, 1500.0) ** 2, rel=1e-12)


def test_path_gain_decreases_with_distance():
    totals = [path_gain(d, 15000.0) for d in (500.0, 1000.0, 2000.0, 4000.0)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_absorption_grows_with_frequency():
    d = 1200.0
    f = np.arange(1.0, 101.0, 1.0)
    losses = absorption_loss(d, f)
    assert np.all(np.diff(losses) < 0)

