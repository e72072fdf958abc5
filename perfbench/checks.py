"""Workload inputs and output checks, run in a process of their own.

    python3 perfbench/checks.py scenario PATH
    python3 perfbench/checks.py acf OUT PRESET CURVE[,CURVE...]
    python3 perfbench/checks.py taps OUT SCENARIO SEED REALIZATIONS

``scenario`` writes the tap dump's scenario file. The checks print
``{"problems": [...], "rows": n}``; an empty list means the output is right.
They hold whatever order the program draws its random numbers in: none
compares against a stored number. The ACF check tests the shape of the
curves and the normalisation at lag 0, the tap check recomputes the transfer
function from a fresh realization and compares it with the sum of the taps.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

from uwachan import build_realization, dump_scenario, evaluate_ctf, geometry, load_scenario, validate
from uwachan.presets import FIG3_LAGS, FIG4_LAGS, preset_scenario

ACF_HEADER = ["curve", "lag_s", "abs", "re", "im"]
TAPS_HEADER = ["t_s", "f_offset_hz", "delay_s", "re", "im", "path"]
TAP_SUM_RTOL = 1e-9
ACF_LAGS = {"fig3": FIG3_LAGS, "fig4-time": FIG4_LAGS}


def write_taps_scenario(path) -> None:
    """The fig3 preset on a dense time grid with several baseband offsets."""
    fig3 = preset_scenario("fig3")
    signal = dataclasses.replace(
        fig3.signal,
        time_grid=tuple(0.05 * i for i in range(20)),
        freq_offsets=(-1500.0, -500.0, 500.0, 1500.0),
    )
    dump_scenario(dataclasses.replace(fig3, signal=signal), str(path))


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def check_acf(path, curves: tuple[str, ...], lags: np.ndarray) -> tuple[list[str], int]:
    """Curves in order, each on the full lag axis, finite, |R| exactly 1 at lag 0."""
    header, rows = _read_csv(path)
    if header != ACF_HEADER:
        return [f"header {header} != {ACF_HEADER}"], len(rows)
    expected_rows = len(curves) * lags.size
    if len(rows) != expected_rows or any(len(r) != len(ACF_HEADER) for r in rows):
        return [f"{len(rows)} rows, expected {expected_rows} of {len(ACF_HEADER)} fields"], len(rows)
    problems = []
    labels = [r[0] for r in rows]
    values = np.array([[float(v) for v in r[1:]] for r in rows]).reshape(len(curves), lags.size, 4)
    for i, curve in enumerate(curves):
        block = labels[i * lags.size : (i + 1) * lags.size]
        if set(block) != {curve}:
            problems.append(f"rows {i * lags.size}..: labels {sorted(set(block))}, expected {curve!r}")
        lag_s, abs_r = values[i, :, 0], values[i, :, 1]
        if not np.array_equal(lag_s, lags):
            problems.append(f"{curve}: lag axis differs from the preset's")
        if not np.all(np.isfinite(values[i])):
            problems.append(f"{curve}: non-finite values")
        if abs_r[0] != 1.0:
            problems.append(f"{curve}: |R| at lag 0 is {abs_r[0]!r}, not exactly 1.0")
    return problems, len(rows)


def check_taps(path, cfg, realizations: int) -> tuple[list[str], int]:
    """Per (realization, t, f), the dumped taps sum to ``evaluate_ctf`` there.

    The tolerance is relative to the sum of tap magnitudes, the scale of the
    rounding error of the sum, so a deep fade does not make it meaningless.
    """
    header, rows = _read_csv(path)
    if header != TAPS_HEADER:
        return [f"header {header} != {TAPS_HEADER}"], len(rows)
    times = np.asarray(cfg.signal.time_grid)
    freqs = np.asarray(cfg.signal.freq_offsets)
    per_instant = (1 if cfg.power.rice_k > 0 else 0) + cfg.clusters.rays_per_path * len(
        geometry.enumerate_paths(cfg.clusters)
    )
    shape = (realizations, times.size, freqs.size, per_instant)
    if len(rows) != int(np.prod(shape)) or any(len(r) != len(TAPS_HEADER) for r in rows):
        return [f"{len(rows)} rows, expected {int(np.prod(shape))} of {len(TAPS_HEADER)} fields"], len(rows)
    cols = np.array([[float(v) for v in r[:5]] for r in rows]).T.reshape(5, *shape)
    t_col, f_col, delay, re, im = cols
    problems = []
    if not np.all(np.isfinite(cols)):
        problems.append("non-finite values")
    if not (np.all(t_col == times[None, :, None, None]) and np.all(f_col == freqs[None, None, :, None])):
        problems.append("taps are not grouped by (realization, t, f) on the scenario grid")
    if not np.all(delay > 0):
        problems.append("non-positive tap delay")
    amps = re + 1j * im
    for r in range(realizations):
        ctf = evaluate_ctf(build_realization(cfg, r)).values
        err = np.abs(amps[r].sum(axis=-1) - ctf)
        scale = np.abs(amps[r]).sum(axis=-1)
        worst = float((err / scale).max())
        if not worst <= TAP_SUM_RTOL:
            problems.append(f"realization {r}: tap sum differs from the CTF by {worst:.3g} relative")
    return problems, len(rows)


def main(argv: list[str]) -> int:
    command, *args = argv
    if command == "scenario":
        write_taps_scenario(args[0])
        return 0
    try:
        if command == "acf":
            out, preset, curves = args
            problems, rows = check_acf(out, tuple(curves.split(",")), ACF_LAGS[preset])
        elif command == "taps":
            out, scenario, seed, realizations = args
            cfg = validate(dataclasses.replace(load_scenario(scenario), master_seed=int(seed)))
            problems, rows = check_taps(out, cfg, int(realizations))
        else:
            raise SystemExit(f"unknown command {command!r}")
    except ValueError as exc:  # a field that does not parse is a wrong output
        problems, rows = [f"unreadable output: {exc}"], 0
    print(json.dumps({"problems": problems, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
