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


def _floats(values) -> list[str]:
    """CSV strings of ``values`` flattened: Python's shortest round-trip ``repr``."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def _write_atomic(path: str, write) -> None:
    """``write_atomic``, with a failure reported as a ``CliError`` naming ``path``."""
    try:
        write_atomic(path, write)
    except OSError as exc:
        # Name the target, not the temp file: its random name changes per run.
        raise CliError(f"cannot write to {path!r}: {exc.strerror}") from exc


def _write_csv(path: str, header: list[str], blocks) -> int:
    """Write ``header`` and then each block's rows; return the number of rows.

    A block is a tuple of equal-length columns of strings. Blocks are written
    as they are drawn, so a generator of blocks streams the file.
    """
    rows = 0

    def write(fh):
        nonlocal rows
        fh.write(",".join(header) + "\n")
        for cols in blocks:
            if cols[0]:  # an empty block writes no blank line
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")
                rows += len(cols[0])

    _write_atomic(path, write)
    return rows


def _write_meta(out_path: str, cfg: ScenarioConfig, command: str, extra: dict) -> None:
    meta = {
        "command": command,
        "version": __version__,
        "scenario": scenario_to_dict(cfg),
        **extra,
    }
    _write_atomic(out_path + ".meta.json", lambda fh: fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n"))


def _resample_summary(counts: list[int]) -> dict:
    """Sidecar summary of the ray draws rejected while building each realization."""
    return {"mean": sum(counts) / len(counts), "max": max(counts)}


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


def _tap_blocks(dumps, times, freqs):
    """One block per (realization, instant): F offsets x N taps rows.

    Each t and f string is formatted once, and each delay once per (t, tap).
    """
    t_strs, f_strs = _floats(times), _floats(freqs)
    for taps in dumps:
        f_col = [f for f in f_strs for _ in taps.labels]
        labels = taps.labels * len(f_strs)
        for ti, t in enumerate(t_strs):
            amps = taps.amplitudes[ti]
            delays = _floats(taps.delays[ti]) * len(f_strs)
            yield [t] * len(f_col), f_col, delays, _floats(amps.real), _floats(amps.imag), labels


def _ctf_blocks(frames):
    """One block per realization: the (t, f) grid in row-major order."""
    for r, frame in enumerate(frames):
        t_col = [t for t in _floats(frame.times) for _ in frame.freq_offsets]
        f_col = _floats(frame.freq_offsets) * len(frame.times)
        yield t_col, f_col, _floats(frame.values.real), _floats(frame.values.imag), [str(r)] * len(t_col)


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    n = args.realizations if args.realizations is not None else 1  # raw dumps default to one draw
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
    if args.meta:
        summary = _resample_summary(resamples)
        _write_meta(args.out, cfg, "simulate", {"realizations": n, "taps": bool(args.taps), "resamples": summary})
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, ["# x: t_s, y: 20*log10(hypot(re, im))"])
    _summary(args.out, written, started, cfg.master_seed)
    return 0


def _acf_lags(args) -> np.ndarray:
    if args.lag_count < 2:
        raise CliError("--lag-count must be >= 2")
    if not math.isfinite(args.lag_max):  # linspace would spread it into NaN lags
        raise CliError(f"--lag-max must be finite, got {args.lag_max!r}")
    return np.linspace(0.0, args.lag_max, args.lag_count)


def _acf_block(lags, norm, values) -> tuple:
    return _floats(lags), _floats(norm), _floats(values.real), _floats(values.imag)


def _cmd_acf(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    lags = _acf_lags(args)
    result = stats.acf(cfg, args.t, args.f, lags, jobs=args.jobs)
    if args.estimator == "empirical":
        norm, values, se = result.empirical_norm, result.empirical, result.empirical_stderr
    else:
        norm, values, se = result.expectation_norm, result.expectation, result.expectation_stderr
    block = (*_acf_block(result.lags_t, norm, values), _floats(se))
    written = _write_csv(args.out, ["lag_s", "abs", "re", "im", "se"], [block])
    if args.meta:
        extra = {"t": args.t, "f": args.f, "estimator": args.estimator, "max_se": float(se.max())}
        _write_meta(args.out, cfg, "acf", {**extra, "resamples": _resample_summary(result.resamples)})
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, ["# x: lag_s, y: abs"])
    _summary(args.out, written, started, cfg.master_seed)
    return 0


def _pdp_block(profile: stats.PdpResult) -> tuple:
    return _floats(profile.delays), _floats(profile.powers), profile.labels


def _cmd_pdp(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    stats.check_anchor(args.t, args.f)  # before a ray-mode build over the anchor's horizon
    if args.mode == "ray":
        source = build_realization(cfg, args.realization, horizon=args.t)
    else:
        source = cfg
    profile = stats.pdp(source, args.t, args.f)
    written = _write_csv(args.out, ["delay_s", "power", "label"], [_pdp_block(profile)])
    if args.meta:
        _write_meta(args.out, cfg, "pdp", {"t": args.t, "f": args.f, "mode": args.mode})
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out, ["# stem plot; x: delay_s, y: 10*log10(power)"])
    _summary(args.out, written, started, cfg.master_seed)
    return 0


def _delay_stat_block(ens: stats.EnsembleDelayStats) -> tuple:
    return (
        ["average_delay", "rms_delay_spread"],
        _floats([ens.average_mean, ens.rms_spread_mean]),
        _floats([ens.average_std, ens.rms_spread_std]),
        [str(ens.n)] * 2,
    )


def _cmd_delay_stats(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    ens = stats.ensemble_delay_stats(cfg, args.t, args.f, args.mode, jobs=args.jobs)
    written = _write_csv(
        args.out, ["metric", "ensemble_mean_s", "ensemble_std_s", "realizations"], [_delay_stat_block(ens)]
    )
    if args.meta:
        extra = {"t": args.t, "f": args.f, "mode": args.mode}
        if ens.resamples:  # cluster mode builds no realization
            extra["resamples"] = _resample_summary(ens.resamples)
        _write_meta(args.out, cfg, "delay-stats", extra)
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
        blocks.append(([label] * len(block[0]), *block))
    return blocks


def _cmd_preset(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_scenario(args)
    statistic = presets.EXPERIMENTS[args.preset][0]
    results = presets.evaluate_curves(args.preset, cfg=cfg, jobs=args.jobs)
    written = _write_csv(args.out, _PRESET_HEADERS[statistic], _preset_blocks(statistic, results))
    if args.meta:
        extra = {}
        if statistic == "acf":
            extra["resamples"] = _resample_summary([n for r in results.values() for n in r.resamples])
            extra["max_se"] = {label: float(r.expectation_stderr.max()) for label, r in results.items()}
        _write_meta(args.out, cfg, f"preset {args.preset}", extra)
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
