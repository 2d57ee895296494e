"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py        # or: python -m pytest perfbench

Every workload runs once untraced and once traced with ``--tiny`` (one
item from each small stratum, a single pass).  Each run must report
exactly the metrics ``BENCHMARK.json`` names for its mode, with no failed
item; ``dense_verify`` must record no early exit.  One run uses
``--holdout-seed``.  Finally the benchmark must refuse to run, without
printing a result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, *extra, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
            *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_run(workload, trace, *extra):
    res = result_of(run(workload, trace, *extra))
    section = "per_layer" if trace else "end_to_end"
    names = {m["name"] for m in SPEC[section]}
    assert set(res["metrics"]) == names, set(res["metrics"]) ^ names
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name], name
    assert res["correct"] and res["failed"] == 0, res
    assert res["attempted"] >= 1
    if trace:
        assert res["metrics"]["failed_frac"]["value"] == 0
        if workload == "dense_verify":
            assert res["metrics"]["report.early_exit_frac"]["value"] == 0
    return res


def test_every_workload_reports_every_metric():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            check_run(workload, trace)


def test_holdout_seed():
    check_run("oracle_sweep", 0, "--holdout-seed", "3")


def test_refuses_without_the_program():
    bare = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run("dense_verify", 0, cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()


if __name__ == "__main__":
    for test in (test_every_workload_reports_every_metric, test_holdout_seed,
                 test_refuses_without_the_program):
        test()
        print(f"ok  {test.__name__}")
