"""The names the benchmark tracer (``perfbench/tracing.py``) patches stay live.

The tracer replaces module attributes with ``setattr`` and counts what the
program calls through them. A caller that binds one of these names locally
(``from .geometry import segment_lengths``, a default argument, a cached
reference) would bypass the patch and leave that layer's counter at zero,
and would bypass the unit-loss double in ``conftest.py``, which patches
``propagation.path_gain`` the same way.
"""
import dataclasses
from collections import Counter

import numpy as np

from uwachan import channel, cli, geometry, propagation, stats
from uwachan.presets import preset_scenario

# Every (module, name) that perfbench/tracing.py replaces.
SITES = [
    (stats, "build_realization"),
    (cli, "build_realization"),
    (stats, "component_table"),
    (channel, "component_table"),
    (stats, "subpath_gains"),
    (channel, "subpath_gains"),
    (stats, "_collect_rows"),
    (cli, "tap_list"),
    (cli, "_write_csv"),
    (cli, "_resolve_scenario"),
    (cli, "_cmd_simulate"),
    (geometry, "sample_micro_ray_sb"),
    (geometry, "sample_micro_ray_mb"),
    (geometry, "micro_ray_distances"),
    (geometry, "segment_lengths"),
    (propagation, "path_gain"),
]


def test_patched_names_are_reached_at_call_time(monkeypatch, tmp_path):
    counts = Counter()

    def counting(site, fn):
        def wrapper(*args, **kwargs):
            counts[site] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in SITES:
        site = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, counting(site, getattr(module, name)))
    cfg = dataclasses.replace(preset_scenario("fig3"), realizations=1)
    stats.acf(cfg, 0.0, 0.0, np.linspace(0.0, 0.1, 3))
    out = tmp_path / "taps.csv"
    assert cli.main(["simulate", "--taps", "--preset", "fig3", "--realizations", "1", "--out", str(out)]) == 0
    missed = [f"{module.__name__}.{name}" for module, name in SITES if not counts[f"{module.__name__}.{name}"]]
    assert not missed, missed


def test_tap_dump_counts_one_tap_list_per_realization(monkeypatch, tmp_path):
    # The tracer's tap_list.taps sums len() over cli.tap_list results; it must
    # equal the rows the dump writes.
    tap_list, write_csv = cli.tap_list, cli._write_csv
    results, rows = [], []

    def counting_taps(*args, **kwargs):
        results.append(tap_list(*args, **kwargs))
        return results[-1]

    def counting_csv(*args, **kwargs):
        rows.append(write_csv(*args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(cli, "tap_list", counting_taps)
    monkeypatch.setattr(cli, "_write_csv", counting_csv)
    out = tmp_path / "taps.csv"
    assert cli.main(["simulate", "--taps", "--preset", "fig3", "--realizations", "2", "--out", str(out)]) == 0
    assert len(results) == 2
    assert rows == [sum(len(taps) for taps in results)]
    assert rows[0] == len(out.read_text().splitlines()) - 1
