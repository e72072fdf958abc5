"""uwachan calls no BLAS, so importing it gives OpenBLAS a single thread."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uwachan

SRC = Path(uwachan.__file__).parent
BLAS_CALLS = {"dot", "vdot", "matmul", "tensordot", "einsum", "inner"}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_uses(source: str) -> list[str]:
    """Each matrix product, BLAS-backed call or ``linalg`` use in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append(f"line {node.lineno}: {name}()")
        names = (getattr(node, field, None) for field in ("attr", "id", "module", "name"))
        if any(isinstance(n, str) and "linalg" in n.split(".") for n in names):
            found.append(f"line {node.lineno}: linalg")
    return found


def test_the_guard_sees_each_kind_of_blas_use():
    for snippet in ["c = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.einsum('i,i', a, b)",
                    "inner(a, b)", "np.linalg.norm(a)", "from numpy.linalg import norm",
                    "from numpy import linalg"]:
        assert blas_uses(snippet), snippet
    assert not blas_uses("c = (a * np.conj(b)).mean(axis=1)")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_blas(path):
    # The one-thread import in __init__ rests on this: a BLAS call here
    # would run single-threaded.
    assert blas_uses(path.read_text()) == []


def import_uwachan(**variables) -> dict:
    """Import uwachan in a fresh interpreter with only ``variables`` of the
    OpenBLAS thread settings; return its thread count and the variable."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    code = (
        "import json, os, uwachan\n"
        "status = open('/proc/self/status').read().split('\\n')\n"
        "threads = next(int(l.split()[1]) for l in status if l.startswith('Threads:'))\n"
        "print(json.dumps({'threads': threads, 'variable': os.environ.get('OPENBLAS_NUM_THREADS')}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**env, **variables})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/status and at least 2 CPUs, where OpenBLAS would start a second thread",
)
@pytest.mark.skipif(
    "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
    reason="numpy is not built on OpenBLAS",
)
def test_importing_uwachan_gives_openblas_one_thread_unless_the_user_set_one():
    assert import_uwachan() == {"threads": 1, "variable": None}
    assert import_uwachan(OPENBLAS_NUM_THREADS="2") == {"threads": 2, "variable": "2"}
