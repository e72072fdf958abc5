import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwachan.scenario import (
    GeometryConfig,
    PowerConfig,
    ScenarioConfig,
    ScenarioError,
    SignalConfig,
    dump_scenario,
    load_scenario,
    normalize_angle,
    scenario_from_dict,
    scenario_to_dict,
    stream_for,
    validate,
)

TAU = 2 * math.pi


def survey_config(**overrides) -> ScenarioConfig:
    base = dict(
        geometry=GeometryConfig(
            distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0, sound_speed=1500.0
        ),
        signal=SignalConfig(carrier_freq=15000.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_survey_defaults_accepted():
    cfg = validate(survey_config())
    assert cfg.geometry.distance0 == 2000.0
    assert cfg.geometry.water_depth == 100.0


def test_tx_depth_boundary_rejected():
    cfg = survey_config(
        geometry=GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=0.0, rx_depth0=80.0)
    )
    with pytest.raises(ScenarioError, match="Tx depth must satisfy"):
        validate(cfg)


def test_power_split_must_sum_to_one():
    cfg = survey_config(power=PowerConfig(rice_k=1.0, da_fraction=0.3, ua_fraction=0.6))
    with pytest.raises(ScenarioError, match="must equal 1"):
        validate(cfg)


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("distance0", -1.0, "distance0"),
        ("rx_depth0", 100.0, "Rx depth"),
        ("sound_speed", 0.0, "sound_speed"),
    ],
)
def test_geometry_invariants(field, value, match):
    geometry = dataclasses.replace(
        GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0),
        **{field: value},
    )
    with pytest.raises(ScenarioError, match=match):
        validate(survey_config(geometry=geometry))


def test_time_grid_must_be_uniform():
    cfg = survey_config(signal=SignalConfig(carrier_freq=15000.0, time_grid=(0.0, 1.0, 3.0)))
    with pytest.raises(ScenarioError, match="constant step"):
        validate(cfg)
    cfg = survey_config(signal=SignalConfig(carrier_freq=15000.0, time_grid=(0.0, 0.0)))
    with pytest.raises(ScenarioError, match="strictly increasing"):
        validate(cfg)


def test_carrier_plus_offset_positive():
    cfg = survey_config(signal=SignalConfig(carrier_freq=15000.0, freq_offsets=(-20000.0, 0.0)))
    with pytest.raises(ScenarioError, match="carrier_freq"):
        validate(cfg)


def test_validate_is_idempotent():
    cfg = survey_config()
    cfg = dataclasses.replace(
        cfg, intentional=dataclasses.replace(cfg.intentional, rx_heading=-math.pi / 2)
    )
    once = validate(cfg)
    assert validate(once) == once
    assert once.intentional.rx_heading == pytest.approx(3 * math.pi / 2)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_angle_normalization_preserves_value_mod_tau(angle):
    wrapped = normalize_angle(angle)
    assert 0.0 <= wrapped < TAU
    # same angle modulo 2*pi, to 1e-12 relative to the input's magnitude
    diff = (wrapped - angle) / TAU
    assert abs(diff - round(diff)) * TAU <= 1e-12 * max(1.0, abs(angle))


def test_streams_are_deterministic_and_independent():
    a1 = stream_for(42, 0, "ray-phases").random(8)
    a2 = stream_for(42, 0, "ray-phases").random(8)
    b = stream_for(42, 1, "ray-phases").random(8)
    c = stream_for(42, 0, "drift").random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_stream_rejects_negative_realization():
    with pytest.raises(ValueError):
        stream_for(1, -1, "x")


def test_scenario_json_round_trip(tmp_path):
    cfg = validate(survey_config())
    path = tmp_path / "scenario.json"
    dump_scenario(cfg, str(path))
    assert load_scenario(str(path)) == cfg


def test_mid_distance_spread_is_rejected():
    # A multi-bounce ray's two points fix its mid leg, so the old log-normal
    # mid-leg spread is gone; a file that still sets it must not be read as
    # if it applied.
    data = scenario_to_dict(validate(survey_config()))
    data["clusters"]["mid_distance_spread"] = 0.001
    with pytest.raises(ScenarioError, match="mid_distance_spread"):
        scenario_from_dict(data)


def test_unknown_keys_rejected():
    data = scenario_to_dict(validate(survey_config()))
    data["geometry"]["typo_field"] = 1.0
    with pytest.raises(ScenarioError, match="typo_field"):
        scenario_from_dict(data)
    data = scenario_to_dict(validate(survey_config()))
    data["extra_section"] = {}
    with pytest.raises(ScenarioError, match="extra_section"):
        scenario_from_dict(data)
