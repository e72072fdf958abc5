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
import os  # noqa: F401  (tests observe the atomic rename through cli.os.replace)
import sys
import time

import numpy as np

from . import presets, stats
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


def _fmt(value) -> str:
    if isinstance(value, float):  # includes numpy float64; canonical shortest repr
        return repr(float(value))
    return str(value)


def _write_atomic(path: str, write) -> None:
    """``write_atomic``, with a failure reported as a ``CliError`` naming ``path``."""
    try:
        write_atomic(path, write)
    except OSError as exc:
        # Name the target, not the temp file: its random name changes per run.
        raise CliError(f"cannot write to {path!r}: {exc.strerror}") from exc


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> int:
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    _write_atomic(path, write)
    return len(rows)


def _write_meta(out_path: str, cfg: ScenarioConfig, command: str, extra: dict) -> None:
    meta = {
        "command": command,
        "scenario": scenario_to_dict(cfg),
        **extra,
    }
    _write_atomic(out_path + ".meta.json", lambda fh: fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n"))


def _write_plot_script(path: str, out_csv: str, description: list[str]) -> None:
    lines = [
        "# Plot companion (plain text). Feed the CSV below to any plotting tool.",
        f"# data: {out_csv}",
        *description,
        "",
    ]
    _write_atomic(path, lambda fh: fh.write("\n".join(lines)))


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


def _summary(out: str, rows: int, started: float, seed: int) -> None:
    print(f"wrote {rows} rows to {out} in {time.perf_counter() - started:.2f}s (seed={seed})")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    n = args.realizations if args.realizations is not None else 1  # raw dumps default to one draw
    rows: list[tuple] = []
    if args.taps:
        header = ["t_s", "f_offset_hz", "delay_s", "re", "im", "path"]
        times, freqs = cfg.signal.time_grid, cfg.signal.freq_offsets
        for r in range(n):
            taps = tap_list(build_realization(cfg, r), times, freqs)
            delays, re, im = taps.delays.tolist(), taps.amplitudes.real.tolist(), taps.amplitudes.imag.tolist()
            for ti, t in enumerate(times):
                for fi, f in enumerate(freqs):
                    cols = zip(delays[ti], re[ti][fi], im[ti][fi], taps.labels)
                    rows += [(t, f, delay, x, y, label) for delay, x, y, label in cols]
    else:
        header = ["t_s", "f_offset_hz", "re", "im", "realization"]
        for r in range(n):
            frame = evaluate_ctf(build_realization(cfg, r))
            for ti, t in enumerate(frame.times):
                for fi, f in enumerate(frame.freq_offsets):
                    h = frame.values[ti, fi]
                    rows.append((float(t), float(f), h.real, h.imag, r))
    written = _write_csv(args.out, header, rows)
    if args.meta:
        _write_meta(args.out, cfg, "simulate", {"realizations": n, "taps": bool(args.taps)})
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, ["# x: t_s, y: 20*log10(hypot(re, im))"])
    _summary(args.out, written, started, cfg.master_seed)
    return 0


def _acf_lags(args) -> np.ndarray:
    if args.lag_count < 2:
        raise CliError("--lag-count must be >= 2")
    return np.linspace(0.0, args.lag_max, args.lag_count)


def _cmd_acf(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    lags = _acf_lags(args)
    result = stats.acf(cfg, args.t, args.f, lags, jobs=args.jobs)
    if args.estimator == "empirical":
        norm, values, se = result.empirical_norm, result.empirical, result.empirical_stderr
    else:
        norm, values, se = result.expectation_norm, result.expectation, result.expectation_stderr
    rows = [
        (float(lag), float(a), v.real, v.imag, float(e))
        for lag, a, v, e in zip(result.lags_t, norm, values, se)
    ]
    written = _write_csv(args.out, ["lag_s", "abs", "re", "im", "se"], rows)
    if args.meta:
        _write_meta(args.out, cfg, "acf", {"t": args.t, "f": args.f, "estimator": args.estimator})
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, ["# x: lag_s, y: abs"])
    _summary(args.out, written, started, cfg.master_seed)
    return 0


def _pdp_rows(profile: stats.PdpResult) -> list[tuple]:
    return [(float(d), float(p), label) for d, p, label in zip(profile.delays, profile.powers, profile.labels)]


def _cmd_pdp(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    if args.mode == "ray":
        source = build_realization(cfg, args.realization, horizon=max(args.t, 1e-9))
    else:
        source = cfg
    profile = stats.pdp(source, args.t, args.f, args.mode)
    written = _write_csv(args.out, ["delay_s", "power", "label"], _pdp_rows(profile))
    if args.meta:
        _write_meta(args.out, cfg, "pdp", {"t": args.t, "f": args.f, "mode": args.mode})
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, ["# stem plot; x: delay_s, y: 10*log10(power)"])
    _summary(args.out, written, started, cfg.master_seed)
    return 0


def _delay_stat_rows(ens: stats.EnsembleDelayStats) -> list[tuple]:
    return [
        ("average_delay", ens.average_mean, ens.average_std, ens.n),
        ("rms_delay_spread", ens.rms_spread_mean, ens.rms_spread_std, ens.n),
    ]


def _cmd_delay_stats(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    rows = _delay_stat_rows(stats.ensemble_delay_stats(cfg, args.t, args.f, args.mode, jobs=args.jobs))
    written = _write_csv(args.out, ["metric", "ensemble_mean_s", "ensemble_std_s", "realizations"], rows)
    if args.meta:
        _write_meta(args.out, cfg, "delay-stats", {"t": args.t, "f": args.f, "mode": args.mode})
    _summary(args.out, written, started, cfg.master_seed)
    return 0


def _cmd_validate(args) -> int:
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


def _preset_rows(name: str, cfg: ScenarioConfig, jobs: int):
    statistic, _, curves = presets.EXPERIMENTS[name]
    rows: list[tuple] = []
    for label in curves:
        result = presets.evaluate(name, label, cfg, jobs=jobs)
        if statistic == "acf":
            rows += [
                (label, float(lag), float(a), v.real, v.imag)
                for lag, a, v in zip(result.lags_t, result.expectation_norm, result.expectation)
            ]
        elif statistic == "pdp":
            rows += [(label, *row) for row in _pdp_rows(result)]
        else:
            rows += _delay_stat_rows(result)
    return _PRESET_HEADERS[statistic], rows


def _cmd_preset(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    header, rows = _preset_rows(args.preset, cfg, args.jobs)
    written = _write_csv(args.out, header, rows)
    if args.meta:
        _write_meta(args.out, cfg, f"preset {args.preset}", {})
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, [f"# preset {args.preset}; group rows by 'curve'"])
    _summary(args.out, written, started, cfg.master_seed)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--preset", help=f"named scenario: {', '.join(PRESET_NAMES)}")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--meta", action="store_true", help="write <out>.meta.json sidecar")
    parser.add_argument("--plot-script", help="write a plain-text plotting companion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwachan",
        description="Seeded shallow-water acoustic multipath channel simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="dump complex CTF samples (or taps) to CSV")
    _add_common(p)
    p.add_argument("--realizations", type=int, help="number of draws to dump (default 1)")
    p.add_argument("--taps", action="store_true", help="dump per-ray taps instead of CTF samples")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("acf", help="temporal autocorrelation at an anchor")
    _add_common(p)
    p.add_argument("--realizations", type=int, help="override the ensemble size")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--t", type=float, default=0.0, help="anchor time, s")
    p.add_argument("--f", type=float, default=0.0, help="anchor baseband offset, Hz")
    p.add_argument("--lag-max", type=float, default=0.1, help="largest lag, s")
    p.add_argument("--lag-count", type=int, default=21, help="number of lags incl. zero")
    p.add_argument(
        "--estimator",
        choices=("expectation", "empirical"),
        default="expectation",
        help="which ensemble estimator to write",
    )
    p.set_defaults(func=_cmd_acf)

    p = sub.add_parser("pdp", help="power delay profile at an anchor")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--f", type=float, default=0.0)
    p.add_argument("--mode", choices=("cluster", "ray"), default="cluster")
    p.add_argument("--realization", type=int, default=0, help="realization index for ray mode")
    p.set_defaults(func=_cmd_pdp)

    p = sub.add_parser("delay-stats", help="ensemble average delay and RMS delay spread")
    _add_common(p)
    p.add_argument("--realizations", type=int, help="override the ensemble size")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--f", type=float, default=0.0)
    p.add_argument("--mode", choices=("cluster", "ray"), default="cluster")
    p.set_defaults(func=_cmd_delay_stats)

    p = sub.add_parser("validate", help="check the measurement-comparison delay moments")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "preset",
        help="run a named experiment end to end",
        description=(
            "Run a named experiment end to end. fig5 and table1 are deterministic "
            "cluster-mode results: fig5 ignores --seed, --realizations and --jobs, and "
            "table1 ignores --seed and --jobs (--realizations only sets its "
            "'realizations' column)."
        ),
    )
    p.add_argument("preset", metavar="name", help=f"one of: {', '.join(PRESET_NAMES)}")
    p.add_argument("--seed", type=int)
    p.add_argument("--realizations", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", action="store_true")
    p.add_argument("--plot-script", help="write a plain-text plotting companion")
    p.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise CliError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except (CliError, ScenarioError, ValueError, OSError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
