"""Batch command-line front end.

Subcommands: ``simulate`` (CTF or tap dumps), ``acf``, ``pdp``,
``delay-stats``, ``validate`` (measurement-comparison tolerance gate), and
``preset`` (run a named experiment end to end). Outputs are CSV written
atomically; identical seeds and configs produce byte-identical files
regardless of ``--jobs``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, presets, stats
from .channel import build_realization, evaluate_ctf, tap_list
from .presets import PRESET_NAMES, preset_scenario
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    overlay,
    read_document,
    scenario_to_dict,
    write_atomic,
)

__all__ = ["main"]


class CliError(Exception):
    """User-facing CLI failure with a stable message."""


def _floats(values) -> np.ndarray:
    """A field column of ``values`` flattened: the bytes of Python's ``repr``."""
    # imported with the first CSV written: start-up does not compile it or build its tables
    from .csvtext import float_fields

    return float_fields(values)


def _texts(strings) -> np.ndarray:
    """A field column of ``strings``."""
    from .csvtext import text_fields

    return text_fields(strings)


def _repeated(field: np.ndarray, rows: int) -> np.ndarray:
    """A column of ``rows`` copies of one field (a row of a field column)."""
    return np.broadcast_to(field, (rows, field.shape[-1]))


def _write_atomic(path: str, write) -> None:
    """``write_atomic``, with a failure reported as a ``CliError`` naming ``path``."""
    try:
        write_atomic(path, write)
    except OSError as exc:
        # Name the target, not the temp file: its random name changes per run.
        raise CliError(f"cannot write to {path!r}: {exc.strerror}") from exc


def _write_csv(path: str, header: list[str], blocks) -> int:
    """Write ``header`` and then each block's rows; return the number of rows.

    A block is a tuple of equal-length field columns (see ``csvtext``).
    Blocks are written as they are drawn, so a generator of blocks streams
    the file.
    """
    from .csvtext import join_rows

    rows = 0

    def write(fh):
        nonlocal rows
        out = fh.buffer  # rows are bytes; nothing goes through the text layer
        out.write((",".join(header) + "\n").encode())
        for cols in blocks:
            if len(cols[0]):  # an empty block writes no blank line
                out.write(join_rows(cols))
                rows += len(cols[0])

    _write_atomic(path, write)
    return rows


def _resolve_scenario(args) -> ScenarioConfig:
    """Preset defaults < scenario file < command-line flags."""
    preset = getattr(args, "preset", None)
    scenario_path = getattr(args, "scenario", None)
    if preset is None and scenario_path is None:
        raise CliError("provide --scenario FILE and/or --preset NAME")
    if preset is None:
        cfg = load_scenario(scenario_path)
    elif scenario_path is None:
        cfg = preset_scenario(preset)
    else:
        cfg = overlay(preset_scenario(preset), read_document(scenario_path))
    flags = {"master_seed": getattr(args, "seed", None), "realizations": getattr(args, "realizations", None)}
    return overlay(cfg, {key: value for key, value in flags.items() if value is not None})


# ---------------------------------------------------------------------------
# subcommands


def _tap_blocks(dumps, times, freqs):
    """One block per (realization, instant): F offsets x N taps rows.

    Each t and f is formatted once, and each delay once per (t, tap).
    """
    t_fields, f_fields = _floats(times), _floats(freqs)
    n_freqs = len(f_fields)
    for taps in dumps:
        n_taps = len(taps.labels)
        f_col = np.repeat(f_fields, n_taps, axis=0)
        labels = np.tile(_texts(taps.labels), (n_freqs, 1))
        rows = len(f_col)
        for ti, t in enumerate(t_fields):
            amps = taps.amplitudes[ti].ravel()
            fields = _floats(np.concatenate([taps.delays[ti], amps.real, amps.imag]))  # one call per block
            delays = np.tile(fields[:n_taps], (n_freqs, 1))
            re, im = fields[n_taps : n_taps + rows], fields[n_taps + rows :]
            yield _repeated(t, rows), f_col, delays, re, im, labels


def _ctf_blocks(frames):
    """One block per realization: the (t, f) grid in row-major order."""
    for r, frame in enumerate(frames):
        n_times, n_freqs = frame.values.shape
        t_col = np.repeat(_floats(frame.times), n_freqs, axis=0)
        f_col = np.tile(_floats(frame.freq_offsets), (n_times, 1))
        index = _repeated(_texts([str(r)]), len(t_col))
        yield t_col, f_col, _floats(frame.values.real), _floats(frame.values.imag), index


def _cmd_simulate(args, cfg):
    n = cfg.realizations
    times, freqs = cfg.signal.time_grid, cfg.signal.freq_offsets
    resamples = []

    def realizations():
        # Built as the CSV is written: one realization's output is held at a time.
        for r in range(n):
            real = build_realization(cfg, r)
            resamples.append(real.resample_count)
            yield real

    if args.taps:
        header = ["t_s", "f_offset_hz", "delay_s", "re", "im", "path"]
        blocks = _tap_blocks((tap_list(real, times, freqs) for real in realizations()), times, freqs)
    else:
        header = ["t_s", "f_offset_hz", "re", "im", "realization"]
        blocks = _ctf_blocks(evaluate_ctf(real) for real in realizations())
    written = _write_csv(args.out, header, blocks)
    return written, {"realizations": n, "taps": bool(args.taps)}, resamples


def _acf_lags(args) -> np.ndarray:
    if args.lag_count < 2:
        raise CliError("--lag-count must be >= 2")
    if not math.isfinite(args.lag_max):  # linspace would spread it into NaN lags
        raise CliError(f"--lag-max must be finite, got {args.lag_max!r}")
    return np.linspace(0.0, args.lag_max, args.lag_count)


def _acf_block(lags, norm, values) -> tuple:
    return _floats(lags), _floats(norm), _floats(values.real), _floats(values.imag)


def _cmd_acf(args, cfg):
    lags = _acf_lags(args)
    result = stats.acf(cfg, args.t, args.f, lags, jobs=args.jobs)
    if args.estimator == "empirical":
        norm, values, se = result.empirical_norm, result.empirical, result.empirical_stderr
    else:
        norm, values, se = result.expectation_norm, result.expectation, result.expectation_stderr
    block = (*_acf_block(result.lags_t, norm, values), _floats(se))
    written = _write_csv(args.out, ["lag_s", "abs", "re", "im", "se"], [block])
    fields = {"t": args.t, "f": args.f, "estimator": args.estimator, "max_se": float(se.max())}
    return written, fields, result.resamples


def _pdp_block(profile: stats.PdpResult) -> tuple:
    return _floats(profile.delays), _floats(profile.powers), _texts(profile.labels)


def _cmd_pdp(args, cfg):
    if args.mode != "ray" and args.realization is not None:
        raise CliError("--realization needs --mode ray")
    fields, source, resamples = {"t": args.t, "f": args.f, "mode": args.mode}, cfg, None
    if args.mode == "ray":
        fields["realization"] = args.realization or 0
        source = build_realization(cfg, fields["realization"])
        resamples = [source.resample_count]
    profile = stats.pdp(source, args.t, args.f)
    written = _write_csv(args.out, ["delay_s", "power", "label"], [_pdp_block(profile)])
    p50, p99 = np.percentile(profile.delays, [50, 99])
    fields["excess_delay"] = {"p50": float(p50), "p99": float(p99), "max": float(profile.delays.max())}
    return written, fields, resamples


def _delay_stat_block(ens: stats.EnsembleDelayStats) -> tuple:
    return (
        _texts(["average_delay", "rms_delay_spread"]),
        _floats([ens.average_mean, ens.rms_spread_mean]),
        _floats([ens.average_std, ens.rms_spread_std]),
        _texts([str(ens.n)] * 2),
    )


def _cmd_delay_stats(args, cfg):
    ens = stats.ensemble_delay_stats(cfg, args.t, args.f, args.mode, jobs=args.jobs)
    written = _write_csv(
        args.out, ["metric", "ensemble_mean_s", "ensemble_std_s", "realizations"], [_delay_stat_block(ens)]
    )
    return written, {"t": args.t, "f": args.f, "mode": args.mode}, ens.resamples  # none in cluster mode


def _cmd_validate() -> int:
    tol = presets.TABLE1_TARGETS["tolerance"]
    checks = presets.table1_check(presets.evaluate("table1", "table1"))
    for metric, value, target, passed in checks:
        print(
            f"{metric}: {value * 1e3:.4f} ms vs reference {target * 1e3:.3f} ms "
            f"(tolerance {tol:.0%}): {'PASS' if passed else 'FAIL'}"
        )
    return 0 if all(check[3] for check in checks) else 1


_PRESET_HEADERS = {
    "acf": ["curve", "lag_s", "abs", "re", "im"],
    "pdp": ["curve", "delay_s", "power", "label"],
    "delay-stats": ["metric", "ensemble_mean_s", "ensemble_std_s", "realizations"],
}


def _preset_blocks(statistic: str, results: dict) -> list:
    """One block per evaluated curve of a preset, in curve order."""
    blocks = []
    for label, result in results.items():
        if statistic == "acf":
            block = _acf_block(result.lags_t, result.expectation_norm, result.expectation)
        elif statistic == "pdp":
            block = _pdp_block(result)
        else:
            blocks.append(_delay_stat_block(result))  # table1's rows carry no curve column
            continue
        blocks.append((_repeated(_texts([label]), len(block[0])), *block))
    return blocks


def _cmd_preset(args, cfg):
    statistic = presets.EXPERIMENTS[args.preset][0]
    results = presets.evaluate_curves(args.preset, cfg=cfg, jobs=args.jobs)
    written = _write_csv(args.out, _PRESET_HEADERS[statistic], _preset_blocks(statistic, results))
    if statistic != "acf":  # fig5 and table1 are cluster-mode results: no draws, no standard error
        return written, {}, None
    max_se = {label: float(r.expectation_stderr.max()) for label, r in results.items()}
    return written, {"max_se": max_se}, [n for r in results.values() for n in r.resamples]


# ---------------------------------------------------------------------------
# the step every CSV subcommand runs through


# What each statistic's plot companion draws from its CSV columns.
_PLOT_HINTS = {
    "simulate": "x: t_s, y: 20*log10(hypot(re, im))",
    "acf": "x: lag_s, y: abs",
    "pdp": "stem plot; x: delay_s, y: 10*log10(power)",
    "delay-stats": "x: metric, y: ensemble_mean_s, error bars: ensemble_std_s",
}


def _run(args) -> int:
    """Resolve the scenario and run ``args.func``, which writes the CSV.

    ``args.func(args, cfg)`` returns (rows written, sidecar fields, the ray
    draws rejected while building each realization or None); this step then
    writes the ``--meta`` sidecar, the ``--plot-script`` companion and the
    summary line.
    """
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    written, fields, resamples = args.func(args, cfg)
    command, hint = args.command, _PLOT_HINTS.get(args.command)
    if command == "preset":
        command, statistic = f"preset {args.preset}", presets.EXPERIMENTS[args.preset][0]
        rows = "group rows by 'curve'" if _PRESET_HEADERS[statistic][0] == "curve" else _PLOT_HINTS[statistic]
        hint = f"{command}; {rows}"
    if args.meta:
        if resamples:
            fields["resamples"] = {"mean": sum(resamples) / len(resamples), "max": max(resamples)}
        meta = {"command": command, "version": __version__, "scenario": scenario_to_dict(cfg), **fields}
        text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
        _write_atomic(args.out + ".meta.json", lambda fh: fh.write(text))
    if args.plot_script:
        lines = ["# Plot companion (plain text). Feed the CSV below to any plotting tool.", f"# data: {args.out}"]
        _write_atomic(args.plot_script, lambda fh: fh.write("\n".join([*lines, f"# {hint}", ""])))
    print(f"wrote {written} rows to {args.out} in {time.perf_counter() - started:.2f}s (seed={cfg.master_seed})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# Flags that several subcommands share, defined once: add_argument keyword arguments by flag.
_FLAGS = {
    "--scenario": {"help": "scenario JSON file"},
    "--preset": {"help": f"named scenario: {', '.join(PRESET_NAMES)}"},
    "--seed": {"type": int, "help": "override the master seed"},
    "--out": {"required": True, "help": "output CSV path"},
    "--meta": {"action": "store_true", "help": "write <out>.meta.json sidecar"},
    "--plot-script": {"help": "write a plain-text plotting companion"},
    "--realizations": {"type": int, "help": "override the ensemble size"},
    "--jobs": {"type": int, "default": 1, "help": "worker processes (default 1)"},
    "--t": {"type": float, "default": 0.0, "help": "anchor time, s"},
    "--f": {"type": float, "default": 0.0, "help": "anchor baseband offset, Hz"},
    "--mode": {
        "choices": ("cluster", "ray"),
        "default": "cluster",
        "help": "profile of specular clusters or of drawn rays (default cluster)",
    },
}
_OUTPUT = ("--out", "--meta", "--plot-script")
_SCENARIO = ("--scenario", "--preset", "--seed", *_OUTPUT)


def _subcommand(sub, name: str, func, flags, **kwargs) -> argparse.ArgumentParser:
    """Subparser ``name`` with the shared ``flags``; ``main`` runs ``func`` through ``_run``."""
    parser = sub.add_parser(name, **kwargs)
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwachan",
        description="Seeded shallow-water acoustic multipath channel simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(
        sub, "simulate", _cmd_simulate, (*_SCENARIO, "--realizations"),
        help="dump complex CTF samples (or taps) to CSV",
    )
    p.add_argument("--taps", action="store_true", help="dump per-ray taps instead of CTF samples")

    ensemble = (*_SCENARIO, "--realizations", "--jobs", "--t", "--f")
    p = _subcommand(sub, "acf", _cmd_acf, ensemble, help="temporal autocorrelation at an anchor")
    p.add_argument("--lag-max", type=float, default=0.1, help="largest lag, s")
    p.add_argument("--lag-count", type=int, default=21, help="number of lags incl. zero")
    p.add_argument(
        "--estimator",
        choices=("expectation", "empirical"),
        default="expectation",
        help="which ensemble estimator to write",
    )

    anchor = (*_SCENARIO, "--t", "--f", "--mode")
    p = _subcommand(sub, "pdp", _cmd_pdp, anchor, help="power delay profile at an anchor")
    p.add_argument("--realization", type=int, help="realization index for --mode ray (default 0)")

    _subcommand(
        sub, "delay-stats", _cmd_delay_stats, (*ensemble, "--mode"),
        help="ensemble average delay and RMS delay spread",
    )
    sub.add_parser("validate", help="check the measurement-comparison delay moments")

    p = _subcommand(
        sub, "preset", _cmd_preset, ("--seed", "--realizations", "--jobs", *_OUTPUT),
        help="run a named experiment end to end",
        description=(
            "Run a named experiment end to end. fig5 and table1 are deterministic "
            "cluster-mode results: fig5 ignores --seed, --realizations and --jobs, and "
            "table1 ignores --seed and --jobs (--realizations only sets its "
            "'realizations' column)."
        ),
    )
    p.add_argument("preset", metavar="name", help=f"one of: {', '.join(PRESET_NAMES)}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate()
        if getattr(args, "jobs", 1) < 1:
            raise CliError(f"--jobs must be >= 1, got {args.jobs}")
        return _run(args)
    except (CliError, ScenarioError, ValueError, OSError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
