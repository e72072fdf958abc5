#!/usr/bin/env python3
"""Benchmark of the ``uwachan`` CLI: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig4-acf --seed 1 --seconds 25 --trace 0

``--trace 0`` starts the command as a subprocess, again and again for
``--seconds`` seconds (a closed loop, one command at a time), and reports the
end-to-end metrics as medians over those repeats.

``--trace 1`` runs the command inside this process instead, alternating
untraced and traced repeats, and reports per-layer metrics recorded by
``tracing.Tracer`` around the program's public functions; nothing in
``src/`` is changed for it.

Every output is hashed and its first copy checked (``checks.py``): repeats
within a run must be byte-identical, and once per run the ``fig3`` preset
at a reduced ensemble must write the same bytes at ``--jobs 2`` as at
``--jobs 1``. A nonzero exit, an exception or a failed check counts as a
failed command.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. The line before it, ``record {...}``, carries the full record:
environment (git SHA, nproc, CPU, Python and numpy versions), sample counts,
fail ratio, output hashes and any problems. ``--record FILE`` also appends
that record to a JSON list in FILE.

The benchmark needs ``src/uwachan`` next to this directory and exits with
code 2 without a result when it is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMAND_TIMEOUT_S = 120.0
MIN_REPEATS = 3
JOBS_CHECK_REALIZATIONS = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments; "{scenario}" is the generated scenario file
    realizations: int  # --realizations per command
    curves: tuple[str, ...]  # expected ACF curve labels; empty for the tap dump
    why: str


# Why each workload is here. Realization counts keep one command near a
# second, so a run holds a dozen or more repeats to take medians over.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig4-acf",
            ("preset", "fig4-time", "--jobs", "1"),
            8,
            ("t0", "t5", "t10"),
            "3 anchors x 153 lags: the largest post-build correlation share (~25% of a "
            "realization), so correlation-kernel work (dedup, one exp, batching) shows here",
        ),
        Workload(
            "fig3-acf-jobs2",
            ("preset", "fig3", "--jobs", "2"),
            16,
            ("k5_a1", "k0_a1", "k5_a2", "k0_a2"),
            "4 variants x 21 lags with drift and surface motion: sampler-bound, the only "
            "ProcessPoolExecutor path, and the few-lag bypass case for the kernel",
        ),
        Workload(
            "taps-dump",
            ("simulate", "--taps", "--scenario", "{scenario}"),
            2,
            (),
            "dense (t, f) grid, 2 realizations, 64k rows: output-bound (tap_list + CSV), "
            "one component_table call per instant, so per-call overhead regresses here",
        ),
    )
}

# (name, unit) of the metrics each mode reports; BENCHMARK.json lists the same.
END_TO_END = (
    ("wall_s", "s"),
    ("realizations_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Counts are per command unless the unit says per realization; shares are of
# busy time (command wall outside pools plus task time inside them).
PER_LAYER = (
    ("build_realization.ms_p50", "ms"),
    ("build_realization.ms_tail", "ms"),
    ("build_realization.calls", "count"),
    ("build_realization.share", "ratio"),
    ("build_realization.ray_accept_ratio", "ratio"),
    ("component_table.ms_per_call", "ms"),
    ("component_table.calls", "count"),
    ("component_table.instants", "count"),
    ("component_table.unique_instant_ratio", "ratio"),
    ("subpath_gains.ms_per_call", "ms"),
    ("subpath_gains.calls", "count"),
    ("tap_list.ms_per_call", "ms"),
    ("tap_list.taps", "count"),
    ("tap_list.share", "ratio"),
    ("corr_realization.self_ms_p50", "ms"),
    ("corr_realization.self_ms_tail", "ms"),
    ("corr_realization.share", "ratio"),
    ("collect_rows.wall_s", "s"),
    ("collect_rows.child_cpu_s", "s"),
    ("collect_rows.parallel_efficiency", "ratio"),
    ("collect_rows.task_bytes", "bytes"),
    ("collect_rows.pools", "count"),
    ("geometry.sampler_calls", "count/real"),
    ("geometry.micro_ray_distances.calls", "count/real"),
    ("geometry.segment_lengths.calls", "count/real"),
    ("propagation.path_gain.calls", "count/real"),
    ("write_csv.ms", "ms"),
    ("write_csv.rows", "count"),
    ("write_csv.bytes", "bytes"),
    ("write_csv.share", "ratio"),
    ("simulate.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class SetupError(Exception):
    """The benchmark cannot run here; it exits 2 without a result."""


# ---------------------------------------------------------------------------
# environment and helper processes


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def helper(*args: str) -> dict:
    """Run ``checks.py`` in its own interpreter and return its JSON answer."""
    out = subprocess.run(
        [sys.executable, str(HERE / "checks.py"), *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise SetupError(f"checks.py {args[0]} failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout) if out.stdout.strip() else {}


# ---------------------------------------------------------------------------
# running commands


@dataclasses.dataclass
class Command:
    ok: bool
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    error: str = ""


def run_subprocess(args: list[str]) -> Command:
    """One CLI command as its own process; CPU and RSS include its pool workers.

    In end-to-end mode this process imports neither numpy nor uwachan: on
    Linux a child's ru_maxrss includes the peak RSS its parent had when the
    child started, which would otherwise hide the command's own peak.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "uwachan.cli", *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        err = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(
        ok=proc.returncode == 0,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        error="" if proc.returncode == 0 else f"exit {proc.returncode}: {err.strip()[-500:]}",
    )


def run_in_process(args: list[str]) -> Command:
    """One CLI command through ``cli.main`` in this process (for tracing)."""
    from uwachan import cli

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(args)
    except Exception as exc:  # the command's failure is a result, not a benchmark crash
        return Command(ok=False, wall_s=time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return Command(ok=code == 0, wall_s=wall, error="" if code == 0 else f"exit {code}: {err.getvalue().strip()}")


SETUP_PROBE = """
import argparse, json, sys, time
start = time.perf_counter()
from uwachan import cli
cli._resolve_scenario(argparse.Namespace(**json.loads(sys.argv[1])))
print(time.perf_counter() - start)
"""


def setup_probe(w: Workload, scenario: Path, seed: int) -> float:
    """Time to import the package and resolve the workload's scenario.

    The probe is a fresh interpreter, timed from inside.
    """
    preset = w.argv[1] if w.argv[0] == "preset" else None
    fields = {
        "preset": preset,
        "scenario": None if preset else str(scenario),
        "seed": seed,
        "realizations": w.realizations,
    }
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, json.dumps(fields)],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=COMMAND_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the run


class Run:
    """Commands, checks and failures of one benchmark invocation."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.work = work
        self.scenario = work / "taps-scenario.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: list[str] = []
        self.rows = 0
        # The tap dump's input; the command receives only this file and --seed.
        helper("scenario", str(self.scenario))

    def args(self, out: Path, realizations: int | None = None, argv=None) -> list[str]:
        argv = argv or self.w.argv
        n = realizations if realizations is not None else self.w.realizations
        return [
            *(str(self.scenario) if a == "{scenario}" else a for a in argv),
            "--seed", str(self.seed), "--realizations", str(n), "--out", str(out),
        ]

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def attempt(self, command: Command) -> bool:
        self.attempted += 1
        if not command.ok:
            self.fail(command.error)
        return command.ok

    def check_output(self, out: Path) -> None:
        """Full check of the first output; later ones must match it byte for byte."""
        digest = sha256(out)
        self.hashes.append(digest)
        if len(self.hashes) > 1:
            if digest != self.hashes[0]:
                self.fail(f"repeat wrote different bytes: {digest} != {self.hashes[0]}")
            return
        if self.w.curves:
            answer = helper("acf", str(out), self.w.argv[1], ",".join(self.w.curves))
        else:
            answer = helper("taps", str(out), str(self.scenario), str(self.seed), str(self.w.realizations))
        self.rows = answer["rows"]
        if answer["problems"]:
            self.fail("output check: " + "; ".join(answer["problems"]))

    def check_jobs_determinism(self) -> None:
        """fig3 at a reduced ensemble writes the same bytes at --jobs 1 and --jobs 2."""
        digests = []
        for jobs in ("1", "2"):
            out = self.work / f"jobs{jobs}.csv"
            argv = ("preset", "fig3", "--jobs", jobs)
            if self.attempt(run_subprocess(self.args(out, JOBS_CHECK_REALIZATIONS, argv))):
                digests.append(sha256(out))
        if len(digests) == 2 and digests[0] != digests[1]:
            self.fail("fig3 output differs between --jobs 1 and --jobs 2")

    def repeat(self, run_one, seconds: float) -> list[Command]:
        """Run the workload command until ``seconds`` have elapsed."""
        done: list[Command] = []
        start = time.perf_counter()
        while len(done) < MIN_REPEATS or time.perf_counter() - start < seconds:
            out = self.work / f"out-{len(done)}.csv"
            command = run_one(self.args(out))
            if self.attempt(command):
                done.append(command)
                self.check_output(out)
            elif not done:
                break  # the command cannot run at all; do not spin on it
            out.unlink(missing_ok=True)
        return done


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    w = run.w
    run.attempt(run_subprocess(run.args(run.work / "warmup.csv", realizations=1)))  # compiles, fills caches
    setups: list[float] = []

    def probe_then_run(args):  # set-up is sampled once per repeat, across the run
        setups.append(setup_probe(w, run.scenario, run.seed))
        return run_subprocess(args)

    done = run.repeat(probe_then_run, seconds)
    run.check_jobs_determinism()
    if not done:
        raise SetupError("no command succeeded: " + "; ".join(run.problems[:3]))
    built = w.realizations * max(1, len(w.curves))
    median = statistics.median
    return {
        "wall_s": median([c.wall_s for c in done]),
        "realizations_per_s": median([built / c.wall_s for c in done]),
        "rows_per_s": median([run.rows / c.wall_s for c in done]),
        "cpu_s": median([c.cpu_s for c in done]),
        "setup_s": median(setups),
        "peak_rss_mb": median([c.rss_mb for c in done]),
    }, {"repeats": len(done)}


def measure_per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    sys.path[:0] = [str(SRC), str(HERE)]
    import uwachan
    from tracing import Tracer, layer_metrics

    if Path(uwachan.__file__).resolve().parent != SRC / "uwachan":
        raise SetupError(f"imported uwachan from {uwachan.__file__}, not from {SRC}")
    w = run.w
    run.attempt(run_in_process(run.args(run.work / "warmup.csv", realizations=1)))
    expected_builds = w.realizations * max(1, len(w.curves))
    untraced: list[float] = []
    traced = []

    def untraced_then_traced(args):
        command = run_in_process(args)
        if not run.attempt(command):
            return command
        untraced.append(command.wall_s)
        run.check_output(Path(args[-1]))
        tracer = Tracer()
        tracer.install()
        try:
            command = run_in_process(args)
        finally:
            tracer.uninstall()
        recorded = tracer.drain()
        builds = sum(1 for span in recorded[0] if span[0] == "build_realization")
        if command.ok and builds != expected_builds:
            error = f"traced command built {builds} realizations, expected {expected_builds}"
            command = dataclasses.replace(command, ok=False, error=error)
        traced.append((command.wall_s, *recorded))
        return command

    done = run.repeat(untraced_then_traced, seconds)
    run.check_jobs_determinism()
    if not done:
        raise SetupError("no command succeeded: " + "; ".join(run.problems[:3]))
    metrics = layer_metrics(traced)
    metrics["trace.overhead_ratio"] = statistics.median(t[0] for t in traced) / statistics.median(untraced)
    return metrics, {"repeats": len(done), "untraced_wall_s": statistics.median(untraced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record to this JSON list file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not (SRC / "uwachan" / "cli.py").is_file():
            raise SetupError(f"no uwachan sources under {SRC}")
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            run = Run(WORKLOADS[args.workload], args.seed, work)
            measure = measure_per_layer if args.trace else measure_end_to_end
            values, samples = measure(run, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()  # only when no other run is using it
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "samples": samples,
        "fail_ratio": run.failed / run.attempted,
        "output_sha256": sorted(set(run.hashes)),
        "problems": run.problems,
        "metrics": metrics,
    }
    if args.record:
        path = Path(args.record)
        history = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(history + [record], indent=1) + "\n")
    print("record " + json.dumps(record))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
