import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import uwachan
from uwachan import cli, presets, stats
from uwachan.channel import build_realization, evaluate_ctf, tap_list
from uwachan.presets import EXPERIMENTS, PRESET_NAMES, preset_scenario
from uwachan.scenario import (
    ClusterConfig,
    GeometryConfig,
    PowerConfig,
    ScenarioConfig,
    SignalConfig,
    dump_scenario,
    load_scenario,
    merge_documents,
    overlay,
    scenario_from_dict,
    scenario_to_dict,
    validate,
)


@pytest.fixture()
def scenario_file(tmp_path):
    cfg = validate(
        ScenarioConfig(
            geometry=GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0),
            clusters=ClusterConfig(max_surface_hops=1, max_bottom_hops=1, rays_per_path=5),
            power=PowerConfig(rice_k=1.0),
            signal=SignalConfig(
                carrier_freq=15000.0, freq_offsets=(0.0, 500.0), time_grid=(0.0, 0.05, 0.1)
            ),
            master_seed=3,
            realizations=6,
        )
    )
    path = tmp_path / "scenario.json"
    dump_scenario(cfg, str(path))
    return str(path)


def run(args):
    return cli.main(args)


def test_simulate_row_count(scenario_file, tmp_path):
    out = tmp_path / "ctf.csv"
    assert run(["simulate", "--scenario", scenario_file, "--realizations", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,f_offset_hz,re,im,realization"
    assert len(lines) == 1 + 3 * 2  # header + time grid x freq grid


def test_simulate_is_byte_identical_across_runs(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["simulate", "--scenario", scenario_file, "--out", str(out1)]) == 0
    assert run(["simulate", "--scenario", scenario_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_seed_changes_output(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["simulate", "--scenario", scenario_file, "--out", str(out1)])
    run(["simulate", "--scenario", scenario_file, "--seed", "99", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_streams_one_realization_at_a_time(scenario_file, tmp_path, monkeypatch):
    # Each realization's taps are written before the next one is evaluated.
    events = []
    tap_list, write_csv = cli.tap_list, cli._write_csv

    def logged_taps(*args, **kwargs):
        events.append("taps")
        return tap_list(*args, **kwargs)

    def logged_blocks(blocks):
        for block in blocks:
            events.append("blocks")
            yield block

    monkeypatch.setattr(cli, "tap_list", logged_taps)
    monkeypatch.setattr(cli, "_write_csv", lambda out, header, blocks: write_csv(out, header, logged_blocks(blocks)))
    out = tmp_path / "taps.csv"
    assert run(["simulate", "--scenario", scenario_file, "--taps", "--realizations", "2", "--out", str(out)]) == 0
    runs = [event for i, event in enumerate(events) if i == 0 or event != events[i - 1]]
    assert runs == ["taps", "blocks", "taps", "blocks"]


def test_tap_dump_row_count(scenario_file, tmp_path):
    # without --realizations, simulate dumps the scenario's 6 realizations
    out = tmp_path / "taps.csv"
    assert run(["simulate", "--scenario", scenario_file, "--taps", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,f_offset_hz,delay_s,re,im,path"
    assert len(lines) == 1 + 6 * 3 * 2 * (1 + 4 * 5)


def test_acf_jobs_do_not_change_bytes(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["acf", "--scenario", scenario_file, "--lag-max", "0.05", "--lag-count", "4", "--out"]
    assert run(base + [str(out1), "--jobs", "1"]) == 0
    assert run(base + [str(out2), "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "lag_s,abs,re,im,se"


@pytest.mark.parametrize("estimator", ["expectation", "empirical"])
def test_acf_reports_standard_error(scenario_file, tmp_path, estimator):
    out = tmp_path / "acf.csv"
    assert run(["acf", "--scenario", scenario_file, "--lag-max", "0.05", "--lag-count", "4",
                "--estimator", estimator, "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    assert header.split(",") == ["lag_s", "abs", "re", "im", "se"]
    se = [float(line.split(",")[4]) for line in lines]
    assert len(se) == 4
    assert all(math.isfinite(e) and e >= 0.0 for e in se)


def test_acf_estimator_choice(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["acf", "--scenario", scenario_file, "--lag-max", "0.05", "--lag-count", "3"]
    run(base + ["--out", str(out1)])
    run(base + ["--estimator", "empirical", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_pdp_output(scenario_file, tmp_path):
    out = tmp_path / "pdp.csv"
    assert run(["pdp", "--scenario", scenario_file, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delay_s,power,label"
    assert len(lines) == 1 + 5
    assert lines[1].endswith(",los")


def test_delay_stats_output(scenario_file, tmp_path):
    out = tmp_path / "stats.csv"
    assert run(["delay-stats", "--scenario", scenario_file, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,ensemble_mean_s,ensemble_std_s,realizations"
    assert lines[1].startswith("average_delay,")
    assert lines[2].startswith("rms_delay_spread,")


def test_preset_round_trip_through_serialization(tmp_path):
    for name in PRESET_NAMES:
        cfg = preset_scenario(name)
        path = tmp_path / f"{name}.json"
        dump_scenario(cfg, str(path))
        assert load_scenario(str(path)) == cfg
        assert scenario_from_dict(scenario_to_dict(cfg)) == cfg


def test_preset_table1_writes_ensemble_moments(tmp_path):
    out = tmp_path / "table1.csv"
    assert run(["preset", "table1", "--seed", "7", "--realizations", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,ensemble_mean_s,ensemble_std_s,realizations"
    avg = float(lines[1].split(",")[1])
    rms = float(lines[2].split(",")[1])
    assert avg == pytest.approx(1.505e-3, rel=0.05)
    assert rms == pytest.approx(2.399e-3, rel=0.05)


def test_a_preset_of_two_delay_stats_curves_writes_a_curve_column(tmp_path, monkeypatch):
    # table1 has one curve and so no curve column; a second curve adds one
    monkeypatch.setitem(EXPERIMENTS, "table1", ("delay-stats", None, {"t0": (0.0, {}), "t1": (1.0, {})}))
    out, script = tmp_path / "x.csv", tmp_path / "plot.txt"
    assert run(["preset", "table1", "--out", str(out), "--plot-script", str(script)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "curve,metric,ensemble_mean_s,ensemble_std_s,realizations"
    # each curve's rows are the delay-stats command's at its anchor
    for label, t in (("t0", "0"), ("t1", "1")):
        single = tmp_path / f"{label}.csv"
        assert run(["delay-stats", "--preset", "table1", "--t", t, "--out", str(single)]) == 0
        assert [line for line in lines[1:] if line.startswith(f"{label},")] == [
            f"{label},{row}" for row in single.read_text().splitlines()[1:]
        ]
    assert len(lines) == 1 + 2 * 2
    assert "group rows by 'curve'" in script.read_text()


def test_validate_gate_passes(capsys):
    assert run(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_validate_gate_fails_when_targets_move(monkeypatch, capsys):
    tightened = dict(presets.TABLE1_TARGETS)
    tightened["average_delay"] = 9.9e-3
    monkeypatch.setattr(presets, "TABLE1_TARGETS", tightened)
    assert run(["validate"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_unknown_preset_is_machine_readable_error(tmp_path, capsys):
    code = run(["preset", "nope", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"].startswith("unknown preset")


def test_preset_with_no_realizations_is_machine_readable_error(tmp_path, capsys):
    assert run(["preset", "fig3", "--realizations", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "realizations must be an int >= 1, got 0"


@pytest.mark.parametrize("preset", [[], ["--preset", "fig3"]], ids=["file", "overlay"])
def test_invalid_json_names_the_file(tmp_path, capsys, preset):
    path = tmp_path / "bad.json"
    path.write_text('{"power": ')
    assert run(["acf", *preset, "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{path}: not valid JSON")


@pytest.mark.parametrize("value", [[None], [[1]], ["1.5"], [True]], ids=["null", "nested", "string", "bool"])
@pytest.mark.parametrize("overlay", [False, True], ids=["file", "overlay"])
def test_non_numeric_list_element_names_the_field(tmp_path, capsys, value, overlay):
    path = tmp_path / "bad.json"
    if overlay:
        data, preset = {"signal": {"freq_offsets": value}}, ["--preset", "table1"]
    else:
        data, preset = scenario_to_dict(preset_scenario("table1")), []
        data["signal"]["freq_offsets"] = value
    path.write_text(json.dumps(data))
    assert run(["pdp", *preset, "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "signal.freq_offsets" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("geometry", "sound_speed", 10**400, "geometry.sound_speed must be a finite number"),
        ("signal", "time_grid", [0.0, 10**400], "signal.time_grid element must be a finite number"),
    ],
    ids=["scalar", "list-element"],
)
def test_an_integer_too_large_for_a_float_names_its_field(tmp_path, capsys, section, field, value, message):
    # json reads a 401-digit literal as a Python int, which no float holds
    path = tmp_path / "huge.json"
    data = scenario_to_dict(preset_scenario("table1"))
    data[section][field] = value
    path.write_text(json.dumps(data))
    assert run(["pdp", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{message}, got 1000")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("via", ["file", "flag"])
def test_an_int_field_of_2_to_the_63_or_more_names_its_field(tmp_path, capsys, via):
    # numpy sizes arrays by these counts: unchecked, 10**400 rays per path
    # reached it and failed with an error that named no field
    if via == "file":
        path = tmp_path / "huge.json"
        data = scenario_to_dict(preset_scenario("table1"))
        data["clusters"]["rays_per_path"] = 10**400
        path.write_text(json.dumps(data))
        argv = ["pdp", "--mode", "ray", "--scenario", str(path)]
        message = "clusters.rays_per_path must be < 2**63, got 100000000000000000...0000000000000000000"
    else:  # table1's cluster moments only write the count
        argv = ["preset", "table1", "--realizations", str(2**63)]
        message = "realizations must be < 2**63, got 9223372036854775808"
    assert run([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message}
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "section, field, value",
    [("geometry", "sound_speed", int("1" * 400)), ("signal", "freq_offsets", ["x"] * 1000)],
    ids=["number", "list"],
)
def test_a_rejected_value_is_echoed_abbreviated(tmp_path, capsys, section, field, value):
    path = tmp_path / "long.json"
    data = scenario_to_dict(preset_scenario("table1"))
    data[section][field] = value
    path.write_text(json.dumps(data))
    assert run(["pdp", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    line = capsys.readouterr().err
    assert json.loads(line)["error"].startswith(f"{section}.{field} must be ")
    assert "..." in line and len(line) < 120


def test_scalar_for_a_list_field_is_machine_readable_error(tmp_path, capsys):
    path = tmp_path / "scalar.json"
    data = scenario_to_dict(preset_scenario("table1"))
    data["signal"]["freq_offsets"] = 5
    path.write_text(json.dumps(data))
    assert run(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "signal.freq_offsets must be a list of numbers, got 5"}
    assert not (tmp_path / "x.csv").exists()


def test_bad_scenario_key_fails(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = scenario_to_dict(preset_scenario("table1"))
    data["geometry"]["wrong"] = 1
    path.write_text(json.dumps(data))
    code = run(["acf", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "wrong" in json.loads(capsys.readouterr().err)["error"]


def test_vanishing_correlation_is_machine_readable_error(tmp_path, capsys):
    # at 10 MHz absorption drives every gain to zero, so R(0) cannot normalize
    cfg = preset_scenario("fig3")
    path = tmp_path / "hf.json"
    dump_scenario(dataclasses.replace(cfg, signal=dataclasses.replace(cfg.signal, carrier_freq=1e7)), str(path))
    out = tmp_path / "x.csv"
    code = run(["acf", "--scenario", str(path), "--realizations", "1", "--lag-count", "2", "--out", str(out)])
    assert code == 2
    assert "zero-lag" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    out = tmp_path / "x.csv"
    assert run(["preset", "fig3", "--jobs", jobs, "--out", str(out)]) == 2
    assert "--jobs" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flag", [("simulate", "--jobs"), ("pdp", "--jobs"), ("pdp", "--realizations")]
)
def test_flags_a_subcommand_does_not_use_are_rejected(scenario_file, tmp_path, command, flag):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run([command, "--scenario", scenario_file, flag, "2", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_missing_scenario_and_preset_fails(tmp_path, capsys):
    assert run(["acf", "--out", str(tmp_path / "x.csv")]) == 2
    assert "provide" in json.loads(capsys.readouterr().err)["error"]


def test_unwritable_output_fails_cleanly(scenario_file, tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    errors = []
    for _ in range(2):
        code = run(["pdp", "--scenario", scenario_file, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        errors.append(json.loads(capsys.readouterr().err)["error"])
    assert "x.csv" in errors[0]
    assert ".tmp" not in errors[0]
    assert errors[0] == errors[1]


def test_output_onto_a_directory_fails_cleanly(scenario_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert run(["pdp", "--scenario", scenario_file, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert "taken" in error and ".tmp" not in error
    assert out.is_dir() and not list(tmp_path.glob("*.tmp"))


def test_meta_sidecar_and_plot_script(scenario_file, tmp_path):
    out = tmp_path / "acf.csv"
    script = tmp_path / "plot.txt"
    assert (
        run(
            ["acf", "--scenario", scenario_file, "--lag-count", "3", "--out", str(out),
             "--meta", "--plot-script", str(script)]
        )
        == 0
    )
    meta = json.loads((tmp_path / "acf.csv.meta.json").read_text())
    assert meta["command"] == "acf"
    assert meta["scenario"]["master_seed"] == 3
    assert str(out) in script.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "table1", "--realizations", "2"],
        ["pdp", "--preset", "table1"],
        ["delay-stats", "--preset", "table1", "--realizations", "2"],
        ["preset", "fig5"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_sidecar_records_the_version(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert run([*argv, "--out", str(out), "--meta"]) == 0
    assert json.loads((tmp_path / "x.csv.meta.json").read_text())["version"] == uwachan.__version__


def test_package_version_matches_pyproject():
    # read with a regex, since tomllib needs Python 3.11
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', text, flags=re.MULTILINE) == [uwachan.__version__]


def test_meta_and_plot_script_are_written_atomically(scenario_file, tmp_path, monkeypatch):
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr("uwachan.scenario.os.replace", recording_replace)
    out = tmp_path / "pdp.csv"
    assert run(["pdp", "--scenario", scenario_file, "--out", str(out), "--meta",
                "--plot-script", str(tmp_path / "plot.txt")]) == 0
    assert sorted(replaced) == ["pdp.csv", "pdp.csv.meta.json", "plot.txt"]
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--preset", "table1", "--realizations", "2"],
        ["acf", "--preset", "table1", "--realizations", "2", "--lag-count", "3"],
        ["pdp", "--preset", "table1"],
        ["delay-stats", "--preset", "table1", "--realizations", "2"],
        ["preset", "fig5"],
        ["preset", "table1", "--realizations", "2"],
    ],
    ids=lambda argv: " ".join(argv[:2]) if argv[0] == "preset" else argv[0],
)
def test_every_command_writes_a_plot_companion_naming_its_csv(tmp_path, argv):
    out, script = tmp_path / "x.csv", tmp_path / "plot.txt"
    assert run([*argv, "--out", str(out), "--plot-script", str(script)]) == 0
    text = script.read_text()
    assert f"# data: {out}\n" in text
    # only a CSV with a curve column is grouped by it
    assert ("group rows by 'curve'" in text) == out.read_text().startswith("curve,")


def test_pdp_realization_needs_ray_mode(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["pdp", "--preset", "fig3", "--realization", "7", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "--realization needs --mode ray"
    assert not out.exists()


def test_ray_pdp_meta_records_its_realization(tmp_path):
    cfg = preset_scenario("table1")
    metas = {}
    for k in (None, 0, 2):
        out = tmp_path / f"{k}.csv"
        flags = [] if k is None else ["--realization", str(k)]
        assert run(["pdp", "--preset", "table1", "--mode", "ray", "--t", "0.5", *flags,
                    "--out", str(out), "--meta"]) == 0
        metas[k] = (tmp_path / f"{k}.csv.meta.json").read_text()
    assert metas[None] == metas[0]  # ray mode draws realization 0 by default
    assert metas[0] != metas[2]
    for k in (0, 2):
        meta = json.loads(metas[k])
        count = build_realization(cfg, k).resample_count
        assert meta["realization"] == k
        assert meta["resamples"] == {"mean": count, "max": count}


@pytest.mark.parametrize("mode", ["cluster", "ray"])
def test_pdp_meta_reports_the_excess_delay_tail(tmp_path, mode):
    # The profile's delays are excess delays: the CSV's delay_s column,
    # relative to the first arrival.
    out = tmp_path / "pdp.csv"
    assert run(["pdp", "--preset", "table1", "--mode", mode, "--t", "0.5", "--out", str(out), "--meta"]) == 0
    delays = np.array([float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]])
    meta = json.loads((tmp_path / "pdp.csv.meta.json").read_text())
    assert meta["excess_delay"] == {
        "p50": float(np.percentile(delays, 50)),
        "p99": float(np.percentile(delays, 99)),
        "max": float(delays.max()),
    }
    assert delays.min() == 0.0 and meta["excess_delay"]["p99"] < meta["excess_delay"]["max"]


# Each subcommand's option strings (positionals by name, --help left out), and the flags that
# several subcommands share.
_PARSER_SURFACE = {
    "simulate": {"--scenario", "--preset", "--seed", "--out", "--meta", "--plot-script", "--realizations",
                 "--taps"},
    "acf": {"--scenario", "--preset", "--seed", "--out", "--meta", "--plot-script", "--realizations", "--jobs",
            "--t", "--f", "--lag-max", "--lag-count", "--estimator"},
    "pdp": {"--scenario", "--preset", "--seed", "--out", "--meta", "--plot-script", "--t", "--f", "--mode",
            "--realization"},
    "delay-stats": {"--scenario", "--preset", "--seed", "--out", "--meta", "--plot-script", "--realizations",
                    "--jobs", "--t", "--f", "--mode"},
    "validate": set(),
    "preset": {"preset", "--seed", "--realizations", "--jobs", "--out", "--meta", "--plot-script"},
}
_SHARED_FLAGS = {"--scenario", "--preset", "--seed", "--out", "--meta", "--plot-script", "--realizations", "--jobs",
                 "--t", "--f", "--mode"}


def test_parser_surface():
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(_PARSER_SURFACE)
    for name, sub in commands.items():
        actions = {
            opt: a for a in sub._actions if not isinstance(a, argparse._HelpAction)
            for opt in (a.option_strings or [a.dest])
        }
        assert set(actions) == _PARSER_SURFACE[name], name
        for flag in _SHARED_FLAGS & set(actions):
            assert actions[flag].help, (name, flag)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask022", "umask027"])
def test_outputs_get_the_mode_the_umask_gives(scenario_file, tmp_path, umask, mode):
    # A temp file from mkstemp is 0600, and the rename would keep that mode.
    out, script, scenario = tmp_path / "pdp.csv", tmp_path / "plot.txt", tmp_path / "copy.json"
    out.write_text("old\n")
    out.chmod(0o600)  # an existing file is replaced, mode included
    old = os.umask(umask)
    try:
        assert run(["pdp", "--scenario", scenario_file, "--out", str(out), "--meta",
                    "--plot-script", str(script)]) == 0
        dump_scenario(load_scenario(scenario_file), str(scenario))
    finally:
        os.umask(old)
    for path in (out, tmp_path / "pdp.csv.meta.json", script, scenario):
        assert oct(path.stat().st_mode & 0o777) == oct(mode), path.name


def test_pdp_ray_mode(scenario_file, tmp_path):
    out = tmp_path / "rays.csv"
    assert run(["pdp", "--scenario", scenario_file, "--mode", "ray", "--realization", "1",
                "--t", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 + 4 * 5  # header + direct + rays


@pytest.mark.parametrize(
    "name,label_col",
    [("fig3", "k5_a1"), ("fig4-time", "t5"), ("fig4-freq", "fc15000"), ("fig5", "t0_fc15000")],
)
def test_preset_runners_smoke(tmp_path, name, label_col):
    out = tmp_path / f"{name}.csv"
    assert run(["preset", name, "--realizations", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("curve,")
    assert any(line.startswith(label_col + ",") for line in lines[1:])
    curves = [line.split(",", 1)[0] for line in lines[1:]]
    assert list(dict.fromkeys(curves)) == list(EXPERIMENTS[name][2])


def test_console_entry_point(tmp_path):
    proc = _interpreter("-m", "uwachan.cli", "validate")
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 2


def test_flag_precedence_over_file_over_preset(tmp_path):
    overlay = tmp_path / "overlay.json"
    overlay.write_text(json.dumps({"master_seed": 42, "power": {"rice_k": 2.0}}))
    out = tmp_path / "o.csv"
    assert (
        run(
            ["delay-stats", "--preset", "table1", "--scenario", str(overlay), "--seed", "7",
             "--realizations", "4", "--out", str(out), "--meta"]
        )
        == 0
    )
    meta = json.loads((tmp_path / "o.csv.meta.json").read_text())
    assert meta["scenario"]["master_seed"] == 7  # flag wins over file's 42
    assert meta["scenario"]["power"]["rice_k"] == 2.0  # file wins over preset's 1.44
    assert meta["scenario"]["geometry"]["distance0"] == 1500.0  # preset base kept


# SHA-256 of each preset's json.dumps(scenario_to_dict(preset_scenario(name)), sort_keys=True),
# recorded while the presets were still built from the config classes in code.
_PRESET_SHA256 = {
    "fig3": "49e07af93cd88640020af1f33f2f3de08517f1c0a4d555b47feb7caed3fb7039",
    "fig4-time": "259d4431848d4469dfc3f421250e97ee81e66f7e2a3f6c876a8421feb9a610bd",
    "fig4-freq": "259d4431848d4469dfc3f421250e97ee81e66f7e2a3f6c876a8421feb9a610bd",
    "fig5": "da507716e85f5103499d70c864d085e01c0e45270b78cd4204f7bff2aa11041b",
    "table1": "2280152672721c9bd8fa545ef3e34b6a946e46a78fec627ee0cec8b82aba8ef2",
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_scenario_is_pinned(name):
    text = json.dumps(scenario_to_dict(preset_scenario(name)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _PRESET_SHA256[name]


def test_a_file_value_a_flag_replaces_is_not_checked(tmp_path):
    # The merged document is validated, so the file's 0 never is.
    path = tmp_path / "zero.json"
    data = scenario_to_dict(preset_scenario("table1"))
    data["realizations"] = 0
    path.write_text(json.dumps(data))
    out = tmp_path / "x.csv"
    assert run(["delay-stats", "--scenario", str(path), "--realizations", "3", "--out", str(out), "--meta"]) == 0
    assert json.loads((tmp_path / "x.csv.meta.json").read_text())["scenario"]["realizations"] == 3


def _layers(tmp_path, preset="table1") -> argparse.Namespace:
    """Arguments giving a preset, a scenario file and both scenario flags."""
    path = tmp_path / "layer.json"
    path.write_text(json.dumps({"power": {"rice_k": 2.0}, "geometry": {"distance0": 900.0}, "master_seed": 42}))
    return argparse.Namespace(preset=preset, scenario=str(path), seed=7, realizations=4)


def test_a_scenario_is_parsed_and_validated_once(tmp_path, monkeypatch):
    from uwachan import scenario

    calls = []
    parse, check = scenario.scenario_from_dict, scenario.validate

    def counted_parse(data):
        calls.append("scenario_from_dict")
        return parse(data)

    def counted_check(cfg):
        calls.append("validate")
        return check(cfg)

    monkeypatch.setattr(cli, "scenario_from_dict", counted_parse)
    monkeypatch.setattr(scenario, "scenario_from_dict", counted_parse)
    monkeypatch.setattr(scenario, "validate", counted_check)
    cfg = cli._resolve_scenario(_layers(tmp_path))
    assert calls == ["scenario_from_dict", "validate"]
    assert (cfg.power.rice_k, cfg.geometry.distance0, cfg.master_seed, cfg.realizations) == (2.0, 900.0, 7, 4)
    assert cfg.geometry.water_depth == 80.0  # the preset's


def test_resolving_leaves_the_preset_documents_unchanged(tmp_path):
    before = copy.deepcopy(presets._PRESETS)
    for name in ("fig3", "fig5", "table1", "fig5"):
        cli._resolve_scenario(_layers(tmp_path, name))
        presets.preset_document(name)["power"]["rice_k"] = 9.0  # a caller's copy
    assert presets._PRESETS == before
    assert preset_scenario("fig5").power.rice_k == 1.0


# ---------------------------------------------------------------------------
# The columnar writer against the row-wise writer it replaced


def _fmt(value) -> str:
    if isinstance(value, float):  # includes numpy float64; canonical shortest repr
        return repr(float(value))
    return str(value)


def _rowwise_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e-5, 1e-4, math.inf, -math.inf, math.nan]
_COLUMN_KINDS = {
    "float": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True)),
    "int": st.integers(-(10**12), 10**12),
    "label": st.text("abcdefghijklmnopqrstuvwxyz0123456789_#", max_size=12),
}


@st.composite
def _csv_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=6))
    n = draw(st.integers(0, 25))
    columns = [draw(st.lists(_COLUMN_KINDS[kind], min_size=n, max_size=n)) for kind in kinds]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return kinds, columns, [0, *cuts, n]


@settings(max_examples=150, deadline=None)
@given(_csv_tables())
def test_columnar_writer_matches_rowwise_formatting(table):
    kinds, columns, bounds = table
    header = [f"{kind}{i}" for i, kind in enumerate(kinds)]

    def as_fields(kind, values):
        if kind == "float":
            return cli._floats(np.array(values, dtype=float))
        return cli._texts(list(map(str, values)))

    blocks = [
        tuple(as_fields(kind, col[lo:hi]) for kind, col in zip(kinds, columns))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        assert cli._write_csv(path, header, blocks) == len(columns[0])
        with open(path, "rb") as fh:
            assert fh.read() == _rowwise_csv(header, list(zip(*columns)))


@pytest.mark.parametrize("taps", [True, False], ids=["taps", "ctf"])
def test_simulate_matches_a_rowwise_dump(scenario_file, tmp_path, taps):
    # 3 instants x 2 offsets x 2 realizations, written row by row from the library
    cfg = load_scenario(scenario_file)
    times, freqs = cfg.signal.time_grid, cfg.signal.freq_offsets
    rows = []
    for r in range(2):
        real = build_realization(cfg, r)
        if taps:
            dump = tap_list(real, times, freqs)
            for ti, t in enumerate(times):
                for fi, f in enumerate(freqs):
                    for n, label in enumerate(dump.labels):
                        h = dump.amplitudes[ti, fi, n]
                        rows.append((t, f, dump.delays[ti, n], h.real, h.imag, label))
        else:
            frame = evaluate_ctf(real)
            for ti, t in enumerate(frame.times):
                for fi, f in enumerate(frame.freq_offsets):
                    h = frame.values[ti, fi]
                    rows.append((float(t), float(f), h.real, h.imag, r))
    out = tmp_path / "dump.csv"
    flags = ["--taps"] if taps else []
    assert run(["simulate", "--scenario", scenario_file, *flags, "--realizations", "2",
                "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert len(rows) == (2 * 3 * 2 * 21 if taps else 2 * 3 * 2)
    assert out.read_bytes() == _rowwise_csv(header, rows)


@pytest.mark.parametrize("taps", [True, False], ids=["taps", "ctf"])
def test_simulate_evaluates_a_long_grid_in_bounded_chunks(tmp_path, monkeypatch, taps):
    # 2,000 instants of 2 realizations: no evaluation covers more instants
    # than the chunk bound allows or starts while an earlier one is alive,
    # and the dump is the one-block dump's bytes.
    rays = 5 if taps else 20
    cfg = validate(
        ScenarioConfig(
            geometry=GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0),
            clusters=ClusterConfig(max_surface_hops=1, max_bottom_hops=1, rays_per_path=rays),
            power=PowerConfig(rice_k=1.0),
            signal=SignalConfig(carrier_freq=15000.0, time_grid=tuple(0.01 * i for i in range(2000))),
            master_seed=3,
            realizations=2,
        )
    )
    path = tmp_path / "long.json"
    dump_scenario(cfg, str(path))
    name = "tap_list" if taps else "evaluate_ctf"
    evaluate, spans, results = getattr(cli, name), [], []

    def recording(real, times, *args):
        assert all(ref() is None for ref in results), "an earlier chunk is still alive"
        spans.append(len(times))
        results.append(weakref.ref(result := evaluate(real, times, *args)))
        return result

    monkeypatch.setattr(cli, name, recording)

    def dump(out):
        spans.clear()
        assert run(["simulate", "--scenario", str(path), *(["--taps"] if taps else []), "--out", str(out)]) == 0
        return list(spans)

    chunked = dump(tmp_path / "chunked.csv")
    per_instant = 1 + 4 * rays if taps else rays  # one offset; 4 sub-paths
    assert len(chunked) > 2 and sum(chunked) == 2 * 2000
    assert max(chunked) <= cli._CHUNK_ELEMENTS // per_instant
    monkeypatch.setattr(cli, "_CHUNK_ELEMENTS", 10**9)
    assert dump(tmp_path / "whole.csv") == [2000, 2000]
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_simulate_meta_reports_resamples(scenario_file, tmp_path):
    metas = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["simulate", "--scenario", scenario_file, "--taps", "--realizations", "3",
                    "--out", str(out), "--meta"]) == 0
        metas.append((tmp_path / f"{name}.meta.json").read_bytes())
    assert metas[0] == metas[1]
    cfg = load_scenario(scenario_file)
    counts = [build_realization(cfg, r).resample_count for r in range(3)]
    assert json.loads(metas[0])["resamples"] == {"mean": sum(counts) / 3, "max": max(counts)}


def test_geometry_error_names_the_instant_on_one_line(tmp_path, capsys):
    # fig4-time closes the Tx-Rx range at 2000 m / 15 m/s = 133 s
    out = tmp_path / "x.csv"
    code = run(["acf", "--preset", "fig4-time", "--t", "140", "--realizations", "1", "--lag-count", "3",
                "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert "t=140.0" in error and "array(" not in error
    assert not out.exists()


def test_horizon_past_the_water_column_is_one_line_error(tmp_path, capsys):
    # fig3's Rx leaves the water column at 80 s: named before any ray or drift is drawn
    out = tmp_path / "x.csv"
    code = run(["acf", "--preset", "fig3", "--t", "100", "--realizations", "1", "--lag-count", "2",
                "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "Rx breaches the water column" in json.loads(err)["error"]
    assert not out.exists()


@pytest.fixture()
def wide_spread_file(scenario_file, tmp_path):
    # A spread this wide almost never draws a surface point between the
    # platforms, so the first surface sub-path gives up after its tries.
    path = tmp_path / "wide.json"
    data = scenario_to_dict(load_scenario(scenario_file))
    data["clusters"]["angle_spread_surface"] = 1e6
    path.write_text(json.dumps(data))
    return str(path)


def test_sampler_giving_up_is_one_line_error_naming_the_sub_path(wide_spread_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["simulate", "--scenario", wide_spread_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error.startswith("could not draw") and "da_s1_b0" in error
    assert not out.exists()


def test_fig3_correlates_at_a_30_s_anchor(tmp_path):
    # Rays are closed paths, so no drift-dependent floor rejects every draw
    # at late anchors: a realization evaluated at 30 s is the one built for 0 s.
    out = tmp_path / "x.csv"
    code = run(["acf", "--preset", "fig3", "--t", "30", "--realizations", "1", "--lag-count", "2",
                "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize(
    "argv,pools",
    [
        (["fig3", "--jobs", "2", "--realizations", "2"], [2]),
        (["fig4-time", "--jobs", "3", "--realizations", "1"], [3]),
        (["fig5", "--jobs", "2"], []),
        (["table1", "--jobs", "2", "--realizations", "4"], []),
    ],
)
def test_one_pool_per_command(recording_pool, tmp_path, argv, pools):
    assert run(["preset", *argv, "--out", str(tmp_path / "x.csv")]) == 0
    assert recording_pool == pools


@pytest.mark.parametrize(
    "argv",
    [
        ["acf", "--preset", "fig3", "--realizations", "3", "--lag-count", "3"],
        ["preset", "fig3", "--realizations", "2"],
        ["delay-stats", "--preset", "fig3", "--mode", "ray", "--realizations", "3", "--t", "0.1"],
    ],
    ids=["acf", "preset", "delay-stats"],
)
def test_ensemble_meta_reports_resamples(tmp_path, argv):
    metas = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        assert run([*argv, "--jobs", jobs, "--out", str(tmp_path / name), "--meta"]) == 0
        metas.append((tmp_path / f"{name}.meta.json").read_bytes())
    assert metas[0] == metas[1] == metas[2]
    # a realization's rays, and so its resamples, do not depend on the instants evaluated
    cfg = preset_scenario("fig3")
    if argv[0] != "preset":
        ensembles = [(cfg, 3)]
    else:
        ensembles = [(overlay(cfg, changes), 2) for _, changes in EXPERIMENTS["fig3"][2].values()]
    counts = [build_realization(c, r).resample_count for c, n in ensembles for r in range(n)]
    meta = json.loads(metas[0])
    assert meta["resamples"] == {"mean": sum(counts) / len(counts), "max": max(counts)}
    assert meta["version"] == uwachan.__version__
    # the largest normalised standard error of the written estimator, per curve for a preset
    if argv[0] == "acf":
        se = [float(row.split(",")[-1]) for row in (tmp_path / "a.csv").read_text().splitlines()[1:]]
        assert meta["max_se"] == max(se) > 0.0
    elif argv[0] == "preset":
        curves = presets.evaluate_curves("fig3", cfg=overlay(cfg, {"realizations": 2}))
        assert meta["max_se"] == {label: float(r.expectation.stderr.max()) for label, r in curves.items()}
    else:
        assert "max_se" not in meta


def test_cluster_delay_stats_meta_reports_no_resamples(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["delay-stats", "--preset", "table1", "--realizations", "3", "--out", str(out), "--meta"]) == 0
    assert "resamples" not in json.loads((tmp_path / "x.csv.meta.json").read_text())


_BAD_ANCHORS = [
    (["pdp", "--t", "nan"], "nan"),
    (["pdp", "--f", "nan"], "nan"),
    (["pdp", "--t", "-5"], "-5.0"),
    (["pdp", "--mode", "ray", "--t", "nan"], "nan"),
    (["delay-stats", "--t", "nan"], "nan"),
    (["delay-stats", "--mode", "ray", "--realizations", "2", "--t", "-1"], "-1.0"),
    (["acf", "--t", "nan"], "nan"),
    (["acf", "--t", "-0.5"], "-0.5"),
    (["acf", "--f", "inf"], "inf"),
    (["acf", "--lag-max", "inf"], "inf"),
    (["acf", "--lag-max", "nan"], "nan"),
    (["acf", "--f", "-20000"], "-5000.0"),  # the absolute frequency at fig3's 15 kHz carrier
]


@pytest.mark.parametrize("argv,named", [pytest.param(a, n, id=" ".join(a)) for a, n in _BAD_ANCHORS])
def test_bad_anchor_is_one_line_error_naming_the_value(tmp_path, capsys, argv, named):
    out = tmp_path / "x.csv"
    assert run([*argv, "--preset", "fig3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error.endswith(f"got {named}") and "array(" not in error
    assert not out.exists()


_USER_ERRORS = [
    ("lag-count", ["acf", "--preset", "fig3", "--lag-count", "1"], None, "--lag-count must be >= 2"),
    ("list-document", ["pdp"], [1], "scenario document must be a JSON object"),
    ("scalar-section", ["pdp"], {"geometry": 5}, "section 'geometry' must be an object, got int"),
    ("no-geometry", ["pdp"], {"master_seed": 1}, "scenario document is missing the 'geometry' section"),
    (
        "negative-realization",
        ["pdp", "--preset", "fig3", "--mode", "ray", "--realization", "-1"],
        None,
        "realization index must be >= 0, got -1",
    ),
    (
        "lag-before-zero",
        ["acf", "--preset", "fig3", "--lag-max", "-0.1"],
        None,
        "lag -0.005 s reaches t=-0.005 s, before t=0; reduce the lags",
    ),
]


@pytest.mark.parametrize("argv,document,message", [pytest.param(*case[1:], id=case[0]) for case in _USER_ERRORS])
def test_a_user_error_is_its_one_line_message(tmp_path, tmp_path_factory, capsys, argv, document, message):
    if document is not None:  # the scenario file is kept out of tmp_path, which must stay empty
        path = tmp_path_factory.mktemp("scenario") / "scenario.json"
        path.write_text(json.dumps(document))
        argv = [*argv, "--scenario", str(path)]
    assert run([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": message}
    assert not list(tmp_path.iterdir())


def _interpreter(*args):
    """Run ``python args`` in a fresh interpreter that imports the package under
    test, even where it is not installed."""
    import subprocess, sys

    src = os.path.dirname(os.path.dirname(uwachan.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


def _python(code):
    """Run ``code`` in a fresh interpreter; return its stdout."""
    proc = _interpreter("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_does_not_load_multiprocessing():
    assert _python("import sys, uwachan.cli; print('multiprocessing' in sys.modules)").strip() == "False"


def test_a_forking_command_loads_no_executor(tmp_path):
    out = tmp_path / "x.csv"
    stdout = _python(
        "import sys, uwachan.cli\n"
        f"code = uwachan.cli.main(['preset', 'fig3', '--jobs', '2', '--realizations', '2', '--out', {str(out)!r}])\n"
        "print(code, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert stdout.splitlines()[-1] == "0 []"
    assert out.exists()


def test_openssl_loads_at_the_first_draw_not_at_start_up():
    # A --jobs parent resolves the scenario and plans its curves but draws
    # nothing; hashlib maps OpenSSL's libcrypto, which would set its peak RSS.
    stdout = _python(
        "import sys\n"
        "from uwachan import cli, presets, scenario, stats\n"
        "args = cli.build_parser().parse_args(['preset', 'fig3', '--jobs', '2', '--realizations', '16', '--out', 'x.csv'])\n"
        "cfg = cli._resolve_scenario(args)\n"
        "_, lags, curves = presets.EXPERIMENTS['fig3']\n"
        "plans = [stats.acf_plan(scenario.overlay(cfg, changes), t, 0.0, lags) for t, changes in curves.values()]\n"
        "loaded = lambda: [m for m in ('hashlib', '_hashlib', 'numpy.random') if m in sys.modules]\n"
        "print(loaded())\n"
        "scenario.stream_for(1, 0, 'path/da_s1_b0')\n"
        "print(loaded())"
    )
    planned, drawn = stdout.splitlines()[-2:]
    assert planned == "[]"
    assert "'_hashlib'" in drawn


def test_worker_error_under_jobs_is_the_serial_error(wide_spread_file, tmp_path, capsys):
    # Under --jobs 2 the sampler gives up inside a forked worker.
    errors = []
    for jobs in ("1", "2"):
        out = tmp_path / f"x{jobs}.csv"
        argv = ["acf", "--scenario", wide_spread_file, "--lag-count", "3", "--jobs", jobs, "--out", str(out)]
        assert run(argv) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1]
    assert errors[1].count("\n") == 1
    assert json.loads(errors[1])["error"].startswith("could not draw")
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_lag_lost_in_the_anchor_is_one_line_error_naming_it(tmp_path, capsys):
    # doubles near 1e20 are 16,384 apart, so t + 0.05 rounds back to t
    out = tmp_path / "x.csv"
    assert run(["acf", "--preset", "table1", "--realizations", "2", "--t", "1e20", "--lag-count", "3",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("lag 0.05 s is lost in the anchor")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,column",
    [
        (["pdp", "--preset", "fig3", "--f", "1e300"], "power"),  # the absorption overflows to nan
        (["acf", "--preset", "fig3", "--realizations", "2", "--f", "1e300", "--meta"], "abs"),
        (["simulate"], "re"),  # at the scenario file's 1e300 Hz offset
        (["simulate", "--taps"], "re"),
    ],
    ids=["pdp", "acf", "simulate", "simulate-taps"],
)
def test_a_non_finite_result_is_one_line_error_naming_its_column(tmp_path, tmp_path_factory, capsys, argv, column):
    if argv[0] == "simulate":  # the scenario file is kept out of tmp_path, which must stay empty
        path = tmp_path_factory.mktemp("scenario") / "offset.json"
        document = merge_documents(presets.preset_document("fig3"), {"signal": {"freq_offsets": [1e300]}})
        path.write_text(json.dumps(document))
        argv = [*argv, "--scenario", str(path)]
    out = tmp_path / "x.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"column {column!r} would hold nan, not a finite number"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [["pdp", "--preset", "fig3", "--f", "1e300"],
     ["acf", "--preset", "fig3", "--realizations", "2", "--jobs", "2", "--f", "1e300"]],
    ids=["pdp", "acf-jobs2"],
)
def test_an_overflowing_command_prints_one_json_line_and_no_warning(tmp_path, argv):
    # The absorption overflows to inf and nan; numpy must not warn about it on stderr.
    proc = _interpreter("-m", "uwachan.cli", *argv, "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"].endswith("would hold nan, not a finite number")


def test_an_unparsable_flag_is_the_one_error_in_usage_text(tmp_path, capsys):
    # argparse rejects the command line before any command runs: its usage
    # text, not the JSON error, is the one exception.
    with pytest.raises(SystemExit) as exc:
        run(["acf", "--preset", "fig3", "--t", "abc", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid float value: 'abc'" in err
    with pytest.raises(json.JSONDecodeError):
        json.loads(err)
    assert not list(tmp_path.iterdir())


def test_a_non_finite_sidecar_field_is_one_line_error_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_pdp", lambda args, cfg: (0, {"excess_delay": {"p99": math.inf}}, None))
    assert run(["pdp", "--preset", "fig3", "--out", str(tmp_path / "x.csv"), "--meta"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "sidecar field 'excess_delay.p99' would hold inf, not a finite number"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [["acf", "--preset", "fig3", "--realizations", "2", "--lag-count", "1000000000000000"]],
    ids=["lag-axis"],
)
def test_an_impossible_allocation_is_one_line_error(tmp_path, capsys, argv):
    # The lag axis would take petabytes, so numpy's request is refused at once
    # and nothing is allocated.
    out = tmp_path / "x.csv"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("Unable to allocate")
    assert not out.exists()


# 1e299 velocity intervals to reach 0.1 s: more than any numpy array can
# hold, so numpy refuses the shape before it allocates anything
_PAST_ANY_ARRAY = (
    {"drift": {"change_freq": 1e300}},
    r"drift\.change_freq=1e\+300 Hz needs 100000\d*\.\.\.\d+ velocity intervals to reach t=0\.1 s, "
    r"more than a numpy array can hold",
)
# 1e15 intervals to reach 1 s: a (1e15, 2) draw of 14.2 PiB, which numpy
# refuses at once, so nothing is allocated
_PAST_MEMORY = (
    {"drift": {"change_freq": 1e15}, "signal": {"time_grid": [0.0, 1.0]}},
    re.escape(
        "drift.change_freq=1000000000000000.0 Hz needs 1000000000000000 velocity intervals "
        "to reach t=1.0 s, a path that cannot be allocated"
    ),
)


@pytest.mark.parametrize(
    "argv,document,message",
    [
        pytest.param(["acf", "--realizations", "1", "--lag-count", "2"], *_PAST_ANY_ARRAY, id="acf"),
        pytest.param(["simulate", "--realizations", "1"], *_PAST_ANY_ARRAY, id="simulate"),
        pytest.param(
            ["acf", "--realizations", "2", "--lag-count", "2", "--jobs", "2"], *_PAST_ANY_ARRAY, id="acf-jobs2"
        ),
        pytest.param(["simulate"], *_PAST_MEMORY, id="allocation"),
    ],
)
def test_a_drift_path_too_long_to_draw_names_its_field(tmp_path, capsys, monkeypatch, argv, document, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(merge_documents(presets.preset_document("fig3"), document)))
    monkeypatch.setattr(stats, "_RUN_ELEMENTS", 1)  # a run per realization: with --jobs 2 each is forked
    out = tmp_path / "x.csv"
    assert run([*argv, "--preset", "fig3", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(message, json.loads(err)["error"])
    assert not out.exists()


# ---------------------------------------------------------------------------
# the CLI contract over drawn command lines: exit 0 with finite numbers and a
# strict-JSON sidecar, or exit 2 with one JSON line on stderr; never a raise

# Latest instant, s, up to which each base scenario's platforms stay in the
# water with the range open (fig3's Rx leaves the water column at 80 s,
# fig4-time's range closes at 133 s); table1 is still, and its bound only
# keeps the drift short (change_freq x reach <= 1e4).
_SAFE_REACH = {"fig3": 75.0, "fig4-time": 130.0, "table1": 500.0}
_CARRIER = {"fig3": 15000.0, "fig4-time": 15000.0, "table1": 17000.0}
# (section, field, value) that validation must reject, whatever else is drawn.
_BAD_FIELDS = [
    ("clusters", "rays_per_path", 0),
    ("clusters", "angle_spread_bottom", -0.01),
    ("geometry", "water_depth", -5.0),
    ("geometry", "tx_depth0", 1e3),
    ("drift", "v_min", 5.0),
    ("drift", "change_freq", 0.0),
    ("power", "da_fraction", 0.7),
    ("surface", "amplitude", -1.0),
    ("signal", "carrier_freq", "15000"),
    ("signal", "time_grid", []),
    ("signal", "time_grid", [1.0, 0.5]),
    ("signal", "freq_offsets", [-1e6]),
    ("signal", "bogus", 1.0),
]
_FAULTS = {
    "simulate": ("field", "realizations", "seed", "breach"),
    "acf": ("field", "realizations", "seed", "jobs", "t", "f", "lag_max", "lag_count", "before_zero", "lost",
            "below_carrier", "breach"),
    "pdp": ("field", "seed", "t", "f", "below_carrier", "breach", "realization_mode", "realization_negative"),
    "delay-stats": ("field", "realizations", "seed", "jobs", "t", "f", "below_carrier", "breach"),
    "preset": ("realizations", "seed", "jobs"),
}


@st.composite
def _documents(draw, base):
    """A small scenario document on ``base``'s geometry and intentional motion."""
    doc = presets.preset_document(base)
    doc["realizations"] = draw(st.integers(1, 3))
    doc["clusters"] = {
        "max_surface_hops": draw(st.integers(1, 2)),
        "max_bottom_hops": draw(st.integers(1, 2)),
        "rays_per_path": draw(st.integers(1, 4)),
        "angle_spread_surface": draw(st.floats(0.0, 0.05)),
        "angle_spread_bottom": draw(st.floats(0.0, 0.05)),
    }
    v_max = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    doc["drift"] = {"v_min": draw(st.floats(0.0, v_max)), "v_max": v_max, "change_freq": draw(st.floats(0.1, 10.0))}
    doc["surface"] = {**doc["surface"], "amplitude": draw(st.floats(0.0, 2.0)), "freq": draw(st.floats(0.0, 1.0))}
    doc["power"] = {**doc["power"], "rice_k": draw(st.floats(0.0, 10.0))}
    count = draw(st.integers(1, 4))
    start = draw(st.floats(0.0, _SAFE_REACH[base] / 2))
    step = draw(st.floats(1e-3, (_SAFE_REACH[base] - start) / 4))
    doc["signal"] = {
        **doc["signal"],
        "time_grid": [start + step * i for i in range(count)],
        "freq_offsets": draw(st.lists(st.floats(-5e3, 5e3), min_size=1, max_size=3)),
    }
    return doc


@st.composite
def _command_lines(draw):
    """``(argv, scenario document or None, expected exit code)``.

    ``argv`` holds "{scenario}" and "{out}" for the paths, and gives each
    value as ``--flag=value``, so argparse reads "-1e-5" as a number. At most one fault
    is drawn; a faulty line must exit 2, and a line without one, whose
    instants stay inside the base's safe reach, must exit 0, unless its
    offset is so far that no correlation or delay moment can be formed.
    """
    command = draw(st.sampled_from(sorted(_FAULTS)))
    faults = _FAULTS[command]
    fault = draw(st.sampled_from([None] * len(faults) + list(faults)))  # half the lines are clean
    expect = 0 if fault is None else 2
    flags = {}
    if fault == "seed":
        flags["--seed"] = draw(st.sampled_from([-1, 2**64, 2**70]))
    elif draw(st.booleans()):
        flags["--seed"] = draw(st.integers(0, 2**64 - 1))
    if command in ("simulate", "acf", "delay-stats", "preset"):
        if fault == "realizations":
            flags["--realizations"] = draw(st.integers(-2, 0))
        elif command == "preset" or draw(st.booleans()):
            flags["--realizations"] = draw(st.integers(1, 3))
    if command in ("acf", "delay-stats", "preset"):
        flags["--jobs"] = draw(st.integers(-2, 0)) if fault == "jobs" else draw(st.integers(1, 2))
    if command == "preset":
        argv = ["preset", draw(st.sampled_from(PRESET_NAMES))]
        return argv + [f"{flag}={value}" for flag, value in flags.items()] + ["--out", "{out}"], None, expect

    base = draw(st.sampled_from(sorted(_SAFE_REACH)))
    doc = draw(_documents(base))
    if fault == "field":
        section, key, value = draw(st.sampled_from(_BAD_FIELDS))
        doc[section] = {**doc[section], key: value}
    if fault == "breach":
        if base == "table1":  # still platforms never leave the geometry
            expect = 0
        elif command == "simulate":
            doc["signal"]["time_grid"] = [0.0, 200.0]
    argv = [command, "--scenario", "{scenario}"]
    if command != "simulate":
        safe = _SAFE_REACH[base]
        t = draw(st.floats(0.0, safe - 10.0))
        # Far offsets: at 1e10 Hz every power underflows to zero, which only
        # a profile may report; at 1e300 Hz the absorption overflows.
        f = draw(st.sampled_from([None, None, 1e10, 1e300]))
        if f == 1e300 or (f == 1e10 and command != "pdp"):
            expect = 2
        f = draw(st.floats(-5e3, 5e3)) if f is None else f
        if fault == "t":
            t = draw(st.one_of(st.floats(-1e3, -1e-3), st.sampled_from([math.nan, math.inf, -math.inf])))
        elif fault == "breach":
            t = 200.0
        if fault == "f":
            f = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif fault == "below_carrier":
            f = -_CARRIER[base] - draw(st.floats(0.0, 1e4))
        flags["--t"], flags["--f"] = t, f
    if command == "acf":
        lag_max = draw(st.floats(-min(t, 10.0) if math.isfinite(t) and t > 0 else 0.0, 10.0))
        lag_max = 0.0 if abs(lag_max) < 1e-3 else lag_max  # a lag that t + lag == t would lose
        if fault == "lag_max":
            lag_max = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif fault == "before_zero":
            lag_max = -t - draw(st.floats(1e-3, 5.0))
        elif fault == "lost":
            flags["--t"], lag_max = 1e20, draw(st.floats(1e-3, 10.0))
        flags["--lag-max"] = lag_max
        flags["--lag-count"] = draw(st.integers(-3, 1)) if fault == "lag_count" else draw(st.integers(2, 6))
        flags["--estimator"] = draw(st.sampled_from(["expectation", "empirical"]))
    if command in ("pdp", "delay-stats"):
        flags["--mode"] = draw(st.sampled_from(["cluster", "ray"]))
    if command == "pdp":
        if fault == "realization_mode":
            flags["--mode"], flags["--realization"] = "cluster", draw(st.integers(0, 5))
        elif fault == "realization_negative":
            flags["--mode"], flags["--realization"] = "ray", draw(st.integers(-5, -1))
        elif flags["--mode"] == "ray" and draw(st.booleans()):
            flags["--realization"] = draw(st.integers(0, 2**31))
    if command == "simulate" and draw(st.booleans()):
        argv.append("--taps")
    if draw(st.booleans()):
        argv.append("--meta")
    return argv + [f"{flag}={value}" for flag, value in flags.items()] + ["--out", "{out}"], doc, expect


def _finite_fields(csv_text: str) -> bool:
    """Every number in a CSV body is finite; labels are not numbers."""
    for line in csv_text.splitlines()[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=150, deadline=None)
@given(case=_command_lines())
@example(  # every power vanishes, so the zero-lag correlation cannot normalize (an ArithmeticError)
    case=(["acf", "--scenario", "{scenario}", "--realizations", "2", "--lag-count", "3", "--f", "1e10",
           "--out", "{out}"], presets.preset_document("fig3"), 2)
)
def test_every_command_line_exits_0_with_finite_output_or_2_with_one_json_line(case):
    argv, document, expect = case
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "out.csv")
        if document is not None:
            Path(scenario).write_text(json.dumps(document))
        argv = [arg.format(scenario=scenario, out=out) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)  # must not raise
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            assert stdout.getvalue().startswith("wrote ")
            assert _finite_fields(Path(out).read_text())
            if "--meta" in argv:
                _strict_json(Path(out + ".meta.json").read_text())
        else:
            assert code == 2
            assert err.count("\n") == 1 and err.endswith("\n")
            assert set(json.loads(err)) == {"error"}
        assert code == expect, err
