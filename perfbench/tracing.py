"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps public functions of ``uwachan`` at the module attribute
through which the caller looks them up (``stats.build_realization`` is the
name ``stats._corr_realization`` calls, ``cli.tap_list`` the one
``_cmd_simulate`` calls, ``geometry.segment_lengths`` the one both
``channel`` and ``geometry`` resolve at call time). Nothing in ``src/``
changes; uninstalling puts every original back.

Timed wrappers record one span per call: name, duration and self time (the
duration minus its directly nested timed spans). Geometry and propagation
wrappers only count calls. Spans stay in memory until the benchmark reduces
them.

``stats._corr_realization`` itself is never replaced, because the pool
pickles the worker by reference and a wrapper does not pickle. Instead the
``_collect_rows`` wrapper hands the pool :func:`_task`, a module-level
function that times the original worker in whichever process runs it and,
in a worker, ships that process's spans back with the result.
"""
from __future__ import annotations

import functools
import os
import pickle
import resource
import statistics
import time
from collections import Counter

import numpy as np

from uwachan import channel, cli, geometry, propagation, stats

# The tracer of this process while installed. Forked pool workers inherit it
# together with the patched module attributes; _task needs it there.
_current: "Tracer | None" = None


class Tracer:
    """Owns the spans and counters of one traced command and its patches."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple[str, float, float]] = []  # name, s, self s
        self.counts: Counter = Counter()
        # per _collect_rows call: jobs, wall s, child CPU s, task bytes, summed task s
        self.pool_calls: list[tuple[int, float, float, int, float]] = []
        self._stack: list[float] = []  # time covered by direct children, per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def timed(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before(args)``/``after(result, args)`` count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.spans.append((name, elapsed, elapsed - children))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def drain(self):
        """Return and forget everything recorded so far."""
        spans, counts, pool_calls = self.spans, self.counts, self.pool_calls
        self.spans, self.counts, self.pool_calls, self._stack = [], Counter(), [], []
        return spans, counts, pool_calls

    # -- counters fed from arguments and results ---------------------------

    def _after_build(self, real, args):
        self.counts["rays"] += sum(sp.phases.size for sp in real.subpaths)
        self.counts["resamples"] += real.resample_count

    def _before_table(self, args):
        times = np.atleast_1d(np.asarray(args[1], dtype=float))
        self.counts["table_instants"] += times.size
        self.counts["table_unique_instants"] += np.unique(times).size

    def _after_taps(self, taps, args):
        self.counts["taps"] += len(taps)

    def _after_write(self, rows, args):
        self.counts["csv_rows"] += rows
        self.counts["csv_bytes"] += os.path.getsize(args[0])

    def _collect_rows(self, original):
        @functools.wraps(original)
        def wrapper(worker, arglist, jobs):
            packed = [(worker, args) for args in arglist]
            task_bytes = len(pickle.dumps(packed)) if jobs > 1 else 0
            cpu_before = _children_cpu()
            outputs = self.timed("collect_rows", original)(_task, packed, jobs)
            wall = self.spans[-1][1]
            results, busy = [], 0.0
            for result, task_s, shipped in outputs:
                results.append(result)
                busy += task_s
                if shipped is not None:
                    spans, counts, _ = shipped
                    self.spans.extend(spans)
                    self.counts.update(counts)
            self.pool_calls.append((jobs, wall, _children_cpu() - cpu_before, task_bytes, busy))
            return results

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        global _current
        if self._patches:
            raise RuntimeError("tracer already installed")
        build = self.timed("build_realization", channel.build_realization, after=self._after_build)
        table = self.timed("component_table", channel.component_table, before=self._before_table)
        gains = self.timed("subpath_gains", channel.subpath_gains)
        sites = [
            (stats, "build_realization", build),
            (cli, "build_realization", build),
            (stats, "component_table", table),
            (channel, "component_table", table),
            (stats, "subpath_gains", gains),
            (channel, "subpath_gains", gains),
            (stats, "_collect_rows", self._collect_rows(stats._collect_rows)),
            (cli, "tap_list", self.timed("tap_list", cli.tap_list, after=self._after_taps)),
            (cli, "_write_csv", self.timed("write_csv", cli._write_csv, after=self._after_write)),
            (cli, "_resolve_scenario", self.timed("resolve_scenario", cli._resolve_scenario)),
            (cli, "_cmd_simulate", self.timed("simulate", cli._cmd_simulate)),
            (geometry, "sample_micro_ray_sb", self.counted("sampler", geometry.sample_micro_ray_sb)),
            (geometry, "sample_micro_ray_mb", self.counted("sampler", geometry.sample_micro_ray_mb)),
            (geometry, "micro_ray_distances", self.counted("micro_ray_distances", geometry.micro_ray_distances)),
            (geometry, "segment_lengths", self.counted("segment_lengths", geometry.segment_lengths)),
            (propagation, "path_gain", self.counted("path_gain", propagation.path_gain)),
        ]
        for module, name, wrapper in sites:
            self._patches.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)
        _current = self

    def uninstall(self):
        global _current
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []
        _current = None


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _task(packed):
    """Pool task: run one worker call inside a span of the running process.

    Returns (result, task seconds, shipped). In a pool worker the tracer is
    the forked copy of the parent's; it is emptied first (it holds whatever
    the parent had recorded at fork time) and ``shipped`` carries its spans
    and counts for this call back to the parent.
    """
    worker, args = packed
    tracer = _current
    if tracer is None:
        raise RuntimeError("traced pool workers must be forked from the traced process")
    in_worker = os.getpid() != tracer.pid
    if in_worker:
        tracer.drain()
    result = tracer.timed(worker.__name__.lstrip("_"), worker)(args)
    task_s = tracer.spans[-1][1]
    return result, task_s, (tracer.drain() if in_worker else None)


def _tail(values: list[float]) -> float:
    """The highest sample with at least ten samples above it (the max below 11)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(traced) -> dict:
    """Reduce traced commands, ``[(wall s, spans, counts, pool_calls)]``.

    ``trace.overhead_ratio`` needs the untraced walls and is left to the caller.
    """
    commands = len(traced)
    durations: dict[str, list[float]] = {}
    self_times: dict[str, list[float]] = {}
    counts: Counter = Counter()
    pools = []
    for _, spans, command_counts, pool_calls in traced:
        for name, elapsed, self_s in spans:
            durations.setdefault(name, []).append(elapsed)
            self_times.setdefault(name, []).append(self_s)
        counts.update(command_counts)
        pools.extend(pool_calls)
    busy = sum(t[0] for t in traced)
    busy += sum(task_s - wall for jobs, wall, _, _, task_s in pools if jobs > 1)

    def total(name):
        return sum(durations.get(name, ()))

    def per_call_ms(name):
        calls = durations.get(name)
        return 1e3 * sum(calls) / len(calls) if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    builds = len(durations.get("build_realization", ()))
    build_ms = [1e3 * d for d in durations.get("build_realization", ())]
    corr_ms = [1e3 * d for d in self_times.get("corr_realization", ())]
    return {
        "build_realization.ms_p50": statistics.median(build_ms) if build_ms else 0.0,
        "build_realization.ms_tail": _tail(build_ms) if build_ms else 0.0,
        "build_realization.calls": builds / commands,
        "build_realization.share": total("build_realization") / busy,
        "build_realization.ray_accept_ratio": ratio(counts["rays"], counts["rays"] + counts["resamples"]),
        "component_table.ms_per_call": per_call_ms("component_table"),
        "component_table.calls": len(durations.get("component_table", ())) / commands,
        "component_table.instants": counts["table_instants"] / commands,
        "component_table.unique_instant_ratio": ratio(
            counts["table_unique_instants"], counts["table_instants"]
        ),
        "subpath_gains.ms_per_call": per_call_ms("subpath_gains"),
        "subpath_gains.calls": len(durations.get("subpath_gains", ())) / commands,
        "tap_list.ms_per_call": per_call_ms("tap_list"),
        "tap_list.taps": counts["taps"] / commands,
        "tap_list.share": total("tap_list") / busy,
        "corr_realization.self_ms_p50": statistics.median(corr_ms) if corr_ms else 0.0,
        "corr_realization.self_ms_tail": _tail(corr_ms) if corr_ms else 0.0,
        "corr_realization.share": sum(self_times.get("corr_realization", ())) / busy,
        "collect_rows.wall_s": sum(p[1] for p in pools) / commands,
        "collect_rows.child_cpu_s": sum(p[2] for p in pools) / commands,
        "collect_rows.parallel_efficiency": ratio(sum(p[4] for p in pools), sum(p[0] * p[1] for p in pools)),
        "collect_rows.task_bytes": sum(p[3] for p in pools) / commands,
        "collect_rows.pools": sum(1 for p in pools if p[0] > 1) / commands,
        "geometry.sampler_calls": ratio(counts["sampler"], builds),
        "geometry.micro_ray_distances.calls": ratio(counts["micro_ray_distances"], builds),
        "geometry.segment_lengths.calls": ratio(counts["segment_lengths"], builds),
        "propagation.path_gain.calls": ratio(counts["path_gain"], builds),
        "write_csv.ms": 1e3 * total("write_csv") / commands,
        "write_csv.rows": counts["csv_rows"] / commands,
        "write_csv.bytes": counts["csv_bytes"] / commands,
        "write_csv.share": total("write_csv") / busy,
        "simulate.self_ms": 1e3 * sum(self_times.get("simulate", ())) / commands,
    }
