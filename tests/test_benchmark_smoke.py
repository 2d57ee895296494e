"""The benchmark's own smoke test, run as part of the suite.

``perfbench/smoke_test.py`` runs every workload once at a tiny size,
traced and untraced, and checks each run reports every metric of
``BENCHMARK.json`` with no failed item; a change that breaks a workload
fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    done = subprocess.run([sys.executable, "perfbench/smoke_test.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
