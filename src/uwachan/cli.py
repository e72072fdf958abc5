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
from .presets import PRESET_NAMES
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    merge_documents,
    read_document,
    scenario_from_dict,
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


def _checked(values, what: str) -> np.ndarray:
    """``values`` as floats. Every number written passes here: a non-finite
    one stops the command, naming ``what`` would hold it."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise CliError(f"{what} would hold {float(values[bad][0])!r}, not a finite number")
    return values


def _column(values, name: str) -> np.ndarray:
    """A field column of ``values`` for the CSV column ``name``, checked finite."""
    return _floats(_checked(values, f"column {name!r}"))


def _texts(strings) -> np.ndarray:
    """A field column of ``strings``."""
    from .csvtext import text_fields

    return text_fields(strings)


def _repeated(fields: np.ndarray, *shape: int) -> np.ndarray:
    """``fields`` (a field column, or one row of one) broadcast over ``shape``
    and flattened to one column: a view wherever no copy is needed."""
    width = fields.shape[-1]
    return np.broadcast_to(fields, (*shape, width)).reshape(-1, width)


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
            del cols  # a written block is not held while the next is drawn

    _write_atomic(path, write)
    return rows


def _resolve_scenario(args) -> ScenarioConfig:
    """Preset defaults < scenario file < command-line flags, merged into one
    document and then parsed and validated once: a replaced value is not checked."""
    preset = getattr(args, "preset", None)
    scenario_path = getattr(args, "scenario", None)
    if preset is None and scenario_path is None:
        raise CliError("provide --scenario FILE and/or --preset NAME")
    layers = [] if preset is None else [presets.preset_document(preset)]
    if scenario_path is not None:
        layers.append(read_document(scenario_path))
    flags = {"master_seed": getattr(args, "seed", None), "realizations": getattr(args, "realizations", None)}
    layers.append({key: value for key, value in flags.items() if value is not None})
    return scenario_from_dict(merge_documents(*layers))


# ---------------------------------------------------------------------------
# subcommands


# Elements a chunk of a simulate dump holds: instants x offsets x taps, or
# for the CTF instants x the larger of rays per sub-path and offsets. Each
# chunk costs ~2 ms of fixed work, which at this size is lost in its own.
_CHUNK_ELEMENTS = 32_768
# Rows a tap block holds, in whole instants: formatting costs ~0.2 ms a call.
_BLOCK_ROWS = 2_048


def _chunks(times, per_instant: int):
    """``times`` in consecutive chunks of ``_CHUNK_ELEMENTS // per_instant`` instants, at least one."""
    step = max(1, _CHUNK_ELEMENTS // per_instant)
    return (times[i : i + step] for i in range(0, len(times), step))


def _tap_chunk_blocks(taps, times, f_fields):
    """A chunk's ``taps`` in blocks of whole instants, F offsets x N taps rows
    each. Each t is formatted once, and each delay once per (t, tap)."""
    n_freqs, n_taps = len(f_fields), len(taps.labels)
    per_instant = n_freqs * n_taps
    step = max(1, _BLOCK_ROWS // per_instant)
    t_fields = _column(times, "t_s")
    f_col = np.repeat(f_fields, n_taps, axis=0)
    labels = np.tile(_texts(taps.labels), (n_freqs, 1))
    _checked(taps.delays, "column 'delay_s'")  # checked whole, so a block formats in one call
    _checked(taps.amplitudes.real, "column 're'")
    _checked(taps.amplitudes.imag, "column 'im'")
    for lo in range(0, len(times), step):
        delays, amps = taps.delays[lo : lo + step], taps.amplitudes[lo : lo + step]
        k, n, rows = len(delays), delays.size, amps.size
        fields = _floats(np.concatenate([delays.ravel(), amps.real.ravel(), amps.imag.ravel()]))
        per_tap = fields[:n].reshape(k, 1, n_taps, -1)
        yield (
            _repeated(t_fields[lo : lo + k, np.newaxis], k, per_instant),
            _repeated(f_col, k, per_instant),
            _repeated(per_tap, k, n_freqs, n_taps),
            fields[n : n + rows],
            fields[n + rows :],
            _repeated(labels, k, per_instant),
        )


def _tap_blocks(real, times, freqs):
    """``real``'s taps, a chunk at a time."""
    f_fields = _column(freqs, "f_offset_hz")
    n_taps = 1 + len(real.subpaths) * real.cfg.clusters.rays_per_path  # the direct tap even at K = 0
    for chunk in _chunks(times, len(freqs) * n_taps):
        yield from _tap_chunk_blocks(tap_list(real, chunk, freqs), chunk, f_fields)


def _ctf_block(frame) -> tuple:
    """A chunk's CTF: its (t, f) grid in row-major order."""
    n_times, n_freqs = frame.values.shape
    t_col = np.repeat(_column(frame.times, "t_s"), n_freqs, axis=0)
    f_col = np.tile(_column(frame.freq_offsets, "f_offset_hz"), (n_times, 1))
    index = _repeated(_texts([str(frame.realization)]), len(t_col))
    return t_col, f_col, _column(frame.values.real, "re"), _column(frame.values.imag, "im"), index


def _ctf_blocks(real, times, freqs):
    """``real``'s CTF, a block per chunk."""
    for chunk in _chunks(times, max(real.cfg.clusters.rays_per_path, len(freqs))):
        yield _ctf_block(evaluate_ctf(real, chunk))


def _cmd_simulate(args, cfg):
    n = cfg.realizations
    times, freqs = cfg.signal.time_grid, cfg.signal.freq_offsets
    resamples = []
    if args.taps:
        header, realization_blocks = ["t_s", "f_offset_hz", "delay_s", "re", "im", "path"], _tap_blocks
    else:
        header, realization_blocks = ["t_s", "f_offset_hz", "re", "im", "realization"], _ctf_blocks

    def blocks():
        # Each realization is built once, as the CSV is written, and evaluated
        # a chunk at a time: a chunk is dropped before the next is evaluated.
        for r in range(n):
            real = build_realization(cfg, r)
            resamples.append(real.resample_count)
            yield from realization_blocks(real, times, freqs)

    written = _write_csv(args.out, header, blocks())
    return written, {"realizations": n, "taps": bool(args.taps)}, resamples


# Each statistic's CSV columns, in order, for its own command and for `preset`.
_COLUMNS = {
    "acf": ["lag_s", "abs", "re", "im"],
    "pdp": ["delay_s", "power", "label"],
    "delay-stats": ["metric", "ensemble_mean_s", "ensemble_std_s", "realizations"],
}


def _block(statistic: str, *columns) -> tuple:
    """A block of ``statistic``'s rows from its columns in ``_COLUMNS`` order: a list
    of strings is written as text, any other column as numbers checked finite."""
    return tuple(
        _texts(values) if isinstance(values, list) else _column(values, name)
        for values, name in zip(columns, _COLUMNS[statistic])
    )


def _acf_block(lags, estimate: stats.Estimate) -> tuple:
    return _block("acf", lags, estimate.norm, estimate.values.real, estimate.values.imag)


def _pdp_block(profile: stats.PdpResult) -> tuple:
    return _block("pdp", profile.delays, profile.powers, profile.labels)


def _delay_stat_block(moments: stats.DelayStats) -> tuple:
    """One row per moment, each labelled with the number of profiles averaged:
    one for a cluster profile."""
    metrics, means, stds = zip(*moments.summary())
    return _block("delay-stats", list(metrics), means, stds, [str(moments.n)] * len(metrics))


# A preset curve's rows, by statistic: result -> block.
_BLOCKS = {
    "acf": lambda result: _acf_block(result.lags_t, result.expectation),
    "pdp": _pdp_block,
    "delay-stats": _delay_stat_block,
}


def _acf_lags(args) -> np.ndarray:
    if args.lag_count < 2:
        raise CliError("--lag-count must be >= 2")
    if not math.isfinite(args.lag_max):  # linspace would spread it into NaN lags
        raise CliError(f"--lag-max must be finite, got {args.lag_max!r}")
    return np.linspace(0.0, args.lag_max, args.lag_count)


def _cmd_acf(args, cfg):
    lags = _acf_lags(args)
    result = stats.acf(cfg, args.t, args.f, lags, jobs=args.jobs)
    estimate = getattr(result, args.estimator)
    block = (*_acf_block(result.lags_t, estimate), _column(estimate.stderr, "se"))
    written = _write_csv(args.out, [*_COLUMNS["acf"], "se"], [block])
    fields = {"t": args.t, "f": args.f, "estimator": args.estimator, "max_se": float(estimate.stderr.max())}
    return written, fields, result.resamples


def _cmd_pdp(args, cfg):
    if args.mode != "ray" and args.realization is not None:
        raise CliError("--realization needs --mode ray")
    fields, source, resamples = {"t": args.t, "f": args.f, "mode": args.mode}, cfg, None
    if args.mode == "ray":
        fields["realization"] = args.realization or 0
        source = build_realization(cfg, fields["realization"])
        resamples = [source.resample_count]
    profile = stats.pdp(source, args.t, args.f)
    written = _write_csv(args.out, _COLUMNS["pdp"], [_pdp_block(profile)])
    p50, p99 = np.percentile(profile.delays, [50, 99])
    fields["excess_delay"] = {"p50": float(p50), "p99": float(p99), "max": float(profile.delays.max())}
    return written, fields, resamples


def _cmd_delay_stats(args, cfg):
    if args.mode == "ray":  # each realization's ray profile
        moments = stats.ensemble_delay_stats(cfg, args.t, args.f, jobs=args.jobs)
    else:  # the scenario's one cluster profile
        moments = stats.delay_stats(stats.pdp(cfg, args.t, args.f))
    written = _write_csv(args.out, _COLUMNS["delay-stats"], [_delay_stat_block(moments)])
    return written, {"t": args.t, "f": args.f, "mode": args.mode}, moments.resamples  # none for a cluster profile


def _cmd_validate() -> int:
    tol = presets.TABLE1_TARGETS["tolerance"]
    checks = presets.table1_check(presets.evaluate_curves("table1")["table1"])
    for metric, value, target, passed in checks:
        print(
            f"{metric}: {value * 1e3:.4f} ms vs reference {target * 1e3:.3f} ms "
            f"(tolerance {tol:.0%}): {'PASS' if passed else 'FAIL'}"
        )
    return 0 if all(check[3] for check in checks) else 1


def _cmd_preset(args, cfg):
    statistic = presets.EXPERIMENTS[args.preset][0]
    results = presets.evaluate_curves(args.preset, cfg=cfg, jobs=args.jobs)
    header, blocks = _COLUMNS[statistic], [_BLOCKS[statistic](r) for r in results.values()]
    if len(results) > 1:  # a curve column tells the curves apart
        header = ["curve", *header]
        blocks = [(_repeated(_texts([label]), len(b[0])), *b) for label, b in zip(results, blocks)]
    written = _write_csv(args.out, header, blocks)
    if statistic != "acf":  # fig5 and table1 are cluster-mode results: no draws, no standard error
        return written, {}, None
    max_se = {label: float(r.expectation.stderr.max()) for label, r in results.items()}
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


def _check_fields(fields: dict, prefix: str = "") -> None:
    """Check every float of the sidecar ``fields``, naming a non-finite one by its dotted key."""
    for key, value in fields.items():
        if isinstance(value, dict):
            _check_fields(value, f"{prefix}{key}.")
        elif isinstance(value, float):
            _checked(value, f"sidecar field {prefix + key!r}")


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
        statistic, _, curves = presets.EXPERIMENTS[args.preset]
        command = f"preset {args.preset}"
        rows = "group rows by 'curve'" if len(curves) > 1 else _PLOT_HINTS[statistic]
        hint = f"{command}; {rows}"
    if args.meta:
        if resamples:
            fields["resamples"] = {"mean": sum(resamples) / len(resamples), "max": max(resamples)}
        _check_fields(fields)
        meta = {"command": command, "version": __version__, "scenario": scenario_to_dict(cfg), **fields}
        text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
            "cluster-mode results: both ignore --seed, --realizations and --jobs."
        ),
    )
    p.add_argument("preset", metavar="name", help=f"one of: {', '.join(PRESET_NAMES)}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy prints no warning: `_checked` rejects a non-finite result with the JSON error
        with np.errstate(all="ignore"):
            if args.command == "validate":
                return _cmd_validate()
            if getattr(args, "jobs", 1) < 1:
                raise CliError(f"--jobs must be >= 1, got {args.jobs}")
            return _run(args)
    except (CliError, ScenarioError, ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
