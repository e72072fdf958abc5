import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwachan import cli, scenario

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


def test_negative_time_grid_is_rejected_at_load(tmp_path):
    # A grid reaching before t = 0 would load, then fail in the first
    # evaluation of a simulate run; the file is rejected instead.
    data = scenario_to_dict(validate(survey_config()))
    data["signal"]["time_grid"] = [-1.0, 0.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=r"signal\.time_grid must not be negative, got -1\.0 s"):
        load_scenario(str(path))


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


# The first draws of a few streams, recorded at release 6.0.0. A change to
# the purpose key or the seeding changes every seeded output.
RECORDED_DRAWS = [
    ((1, 0, "path/da_s1_b0"), [6005900267994468865, 5072887557797310487, 5652964674022631777]),
    ((42, 7, "drift/rx"), [42160865282019974, 4413073029930846768, 3563570218098766864]),
    ((2**64 - 1, 123456, "phase-redraw/0/ua_b2_s1"), [5396040934405876619, 6491207199388214137, 8791803859591663105]),
    ((0, 0, ""), [1029629449907221205, 2016392063148115309, 9128024206535669470]),
    ((5, 3, "Strömung/µ-ray ✓"), [3525301226753592946, 6347323813150460137, 2798204668904121276]),
]


@pytest.mark.parametrize("triple, draws", RECORDED_DRAWS)
def test_stream_first_draws_are_pinned(triple, draws):
    assert stream_for(*triple).integers(0, 2**63, 3).tolist() == draws
    assert stream_for(*triple).integers(0, 2**63, 3).tolist() == draws  # again, from the cached key


@pytest.mark.parametrize("purpose", [triple[2] for triple, _ in RECORDED_DRAWS])
def test_purpose_key_is_the_sha256_prefix(purpose):
    digest = hashlib.sha256(purpose.encode()).digest()
    assert scenario._purpose_key(purpose) == int.from_bytes(digest[:8], "little")


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


@pytest.mark.parametrize("field", ["freq_offsets", "time_grid"])
@pytest.mark.parametrize("value", [5, 0.5, None], ids=["int", "float", "null"])
def test_scalar_for_a_list_field_names_the_field(field, value):
    data = scenario_to_dict(validate(survey_config()))
    data["signal"][field] = value
    with pytest.raises(ScenarioError, match=rf"signal\.{field} must be a list of numbers, got {value!r}"):
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


# Values each named field must refuse: nan, inf, below its lower bound, and
# a bool or string as a file could give it. The list is written out here, not
# read from the module's table, so a field dropped from the table fails here.
_REFUSED = [
    ("geometry.distance0", math.nan),
    ("geometry.distance0", -1.0),
    ("geometry.water_depth", 0.0),
    ("geometry.water_depth", "100"),
    ("geometry.tx_depth0", math.inf),
    ("geometry.sound_speed", True),
    ("intentional.tx_speed", -0.5),
    ("intentional.rx_heading", -math.inf),
    ("intentional.rx_speed", "fast"),
    ("drift.v_min", -0.1),
    ("drift.v_max", math.nan),
    ("drift.change_freq", 0.0),
    ("surface.amplitude", -1.0),
    ("surface.freq", math.inf),
    ("surface.travel_angle", math.nan),
    ("clusters.max_surface_hops", 0),
    ("clusters.max_bottom_hops", 1.0),
    ("clusters.rays_per_path", True),
    ("clusters.rays_per_path", 0),
    ("clusters.angle_spread_surface", -0.01),
    ("clusters.angle_spread_bottom", math.nan),
    ("power.rice_k", -1.0),
    ("power.rice_k", math.inf),
    ("power.da_fraction", "0.5"),
    ("power.ua_fraction", -0.5),
    ("bottom.density_ratio", 0.0),
    ("bottom.sound_speed", math.nan),
    ("signal.carrier_freq", 0.0),
    ("signal.carrier_freq", False),
    ("signal.freq_offsets", [math.nan]),
    ("signal.time_grid", [0.0, math.inf]),
    ("master_seed", "1"),
    ("master_seed", True),
    ("realizations", 0),
    ("realizations", 2.0),
]


def _refusing_document(dotted, value) -> dict:
    data = scenario_to_dict(validate(survey_config()))
    section, _, key = dotted.rpartition(".")
    (data[section] if section else data)[key] = value
    return data


@pytest.mark.parametrize("dotted,value", _REFUSED, ids=[f"{d}={v!r}" for d, v in _REFUSED])
def test_a_refused_field_value_is_an_error_naming_the_field(tmp_path, dotted, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_refusing_document(dotted, value)))  # nan and inf as JSON's NaN, Infinity
    with pytest.raises(ScenarioError, match=rf"^{re.escape(dotted)}\b"):
        load_scenario(str(path))


@pytest.mark.parametrize("dotted,value", _REFUSED, ids=[f"{d}={v!r}" for d, v in _REFUSED])
def test_a_refused_field_value_exits_2_naming_the_field(tmp_path, capsys, dotted, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_refusing_document(dotted, value)))
    out = tmp_path / "x.csv"
    assert cli.main(["pdp", "--scenario", str(path), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(dotted)
    assert not out.exists()


def test_a_missing_required_key_is_an_error_naming_it():
    data = scenario_to_dict(validate(survey_config()))
    del data["geometry"]["water_depth"]
    with pytest.raises(ScenarioError, match="section 'geometry' is missing key\\(s\\): water_depth"):
        scenario_from_dict(data)
