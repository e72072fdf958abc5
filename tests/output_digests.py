"""Digests of the CLI's outputs, to check that a change leaves them byte-identical.

Runs a fixed list of commands through ``uwachan.cli.main``, each with
``--meta`` and ``--plot-script`` in a temporary directory of its own, and
prints one line per command: the first 16 hex digits of the sha256 of its
CSV, then those of its sidecar with the ``version`` field removed (a release
changes it on purpose), then those of its plot companion with the CSV's
temporary path on its ``# data:`` line replaced by a fixed placeholder, then
the command. A command that fails prints its exit code and the digest of
its JSON error in their place, so a diff shows which messages changed. A
command's ``--scenario KEY`` names a document of ``SCENARIOS``, written to
the command's temporary directory. A last line digests ``validate``: its
stdout and its exit code. Run it on two checkouts and diff the two listings:

    PYTHONPATH=src python tests/output_digests.py > digests.txt

pytest does not collect this file. The twenty-two commands and ``validate``
take about a second.
"""
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile

from uwachan import cli

COMMANDS = [
    "preset fig3 --jobs 2 --realizations 16",
    "preset fig4-time --realizations 4",
    "preset fig4-freq --realizations 4",
    "preset fig5",
    "preset table1",
    "simulate --preset fig3 --taps --realizations 2",
    "simulate --preset table1 --realizations 3",
    "acf --preset fig3 --realizations 16",
    "acf --preset fig3 --realizations 16 --estimator empirical --t 3.0",
    "delay-stats --preset table1 --mode ray --realizations 20 --jobs 2",
    "delay-stats --preset fig3",
    "delay-stats --preset table1 --realizations 7",
    "delay-stats --preset fig4-freq --t 60",
    "pdp --preset fig3 --mode ray --realization 3 --t 12.5",
    "pdp --preset table1",
    "pdp --preset fig4-time --t 10",
    "pdp --preset fig3 --t 5 --f 500",
    # errors: each prints its exit code and a digest of its message
    "simulate --preset fig3 --scenario drift-1e15",
    "simulate --preset fig3 --scenario offset-1e300",
    "acf --preset fig3 --lag-max -0.1",
    "acf --preset fig3 --realizations 2 --lag-count 1000000000000000",
    "pdp --preset fig4-time --t 200",
]

# Documents merged over a command's --preset, by the key its --scenario names.
SCENARIOS = {
    "drift-1e15": {"drift": {"change_freq": 1e15}, "signal": {"time_grid": [0.0, 1.0]}},
    "offset-1e300": {"signal": {"freq_offsets": [1e300]}},
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digests(command: str) -> str:
    """``"<csv digest>  <sidecar digest>  <plot digest>"`` of one command, or
    ``"exit <code>  <error digest>"`` if it failed."""
    with tempfile.TemporaryDirectory() as tmp:
        out, plot = os.path.join(tmp, "out.csv"), os.path.join(tmp, "plot.txt")
        argv = shlex.split(command)
        if "--scenario" in argv:
            at = argv.index("--scenario") + 1
            document, argv[at] = SCENARIOS[argv[at]], os.path.join(tmp, "scenario.json")
            with open(argv[at], "w") as fh:
                json.dump(document, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", out, "--meta", "--plot-script", plot])
        if code != 0:
            return f"exit {code}  {_digest(stderr.getvalue().encode())}"
        with open(out, "rb") as fh:
            csv = fh.read()
        with open(out + ".meta.json") as fh:
            meta = json.load(fh)
        with open(plot, "rb") as fh:
            hint = fh.read().replace(f"# data: {out}\n".encode(), b"# data: <out>\n")
    meta.pop("version")
    return f"{_digest(csv)}  {_digest(json.dumps(meta, indent=2, sort_keys=True).encode())}  {_digest(hint)}"


def validate_digest() -> str:
    """``"<stdout digest>  exit <code>"`` of the ``validate`` command."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["validate"])
    return f"{_digest(stdout.getvalue().encode())}  exit {code}"


def main() -> int:
    for command in COMMANDS:
        print(f"{digests(command)}  {command}", flush=True)
    print(f"{validate_digest()}  validate", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
