"""The benchmark's traced run, end to end.

``perfbench/spans.py`` rebinds kronblock functions by name from outside the
package, so a renamed or removed one ends a ``--trace 1`` run. Each workload
of ``BENCHMARK.json`` runs for one second, traced, in a fresh process at one
OpenBLAS thread; its last line must report a correct run with no failed
operation. ``run.py`` removes its ``.perfbench/`` work directory at exit.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    WORKLOADS = [wl["name"] for wl in json.load(_fh)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct(workload):
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
