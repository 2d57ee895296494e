"""ternalg benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_verify --seed 1 \
        --seconds 25 --trace 0

Workloads (see ``workloads.py`` for the corpora):

* ``dense_verify`` decides every law of seeded passing structures at
  dims 3-6 with no violation cap, so the scalar, linalg and checker inner
  loops do the work and no early exit hides it.
* ``oracle_sweep`` compares many small random instances (dims 1-3) with
  their independent oracles at ``max_violations=1``; per-call set-up,
  the constructions and early exit dominate.
* ``cli_mix`` calls ``ternalg.cli.main`` in-process over a seeded file
  corpus: ``check --json`` on small files beside constructions that read
  and write large canonical files, so parsing and formatting dominate.

Each run is a closed loop with one client in one process and one thread,
with ``TERNALG_THREADS`` removed from the environment.  The loop runs
whole passes over the corpus until ``--seconds`` have elapsed and at
least ``MIN_ITEMS`` items are timed; throughput, p50 and p90 are medians
over the passes.  ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups,
each a warm re-import of ternalg in a child interpreter plus generating
the corpus; the cold import in a fresh interpreter is the per-layer
``cli.import_s``.  Every item's output is compared with ``reference.json``,
recorded from a known-good version by ``record_reference.py``; an item
that raises or differs counts as failed, and ``correct`` is false when
any did.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the run also makes one traced pass over the corpus
(spans around calls into each module), one pass counting scalar
operations, a scalar micro-loop and fresh-interpreter imports, and the
last line holds the per-layer metrics.  Results and spans are written to
``.bench_results/`` in the checkout.

Exit status is 0 when the run completed, whether or not outputs were
correct (``correct`` in the result says that), and non-zero when it could
not run, for instance when ``src/ternalg`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

MIN_ITEMS = 100  # so that at least ten samples lie above p90
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
MICRO_OPS = 20000
MICRO_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--holdout-seed", type=int, default=None,
                   help="draw the corpus from the held-out slots with this "
                        "seed instead of --seed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one item per small stratum and a single pass; "
                        "for the smoke test")
    return p.parse_args(argv)


# -- set-up ----------------------------------------------------------------


def _import_script(module, warm_repeats):
    """Python source that times ``import module`` and prints each time.

    With ``warm_repeats`` the module is first imported once, then removed
    from ``sys.modules`` and imported again that many times: those times
    cover ternalg's own module code without interpreter start-up and the
    standard-library modules it pulls in.
    """
    return (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"if {warm_repeats}:\n"
        f"    import {module}\n"
        f"for _ in range({max(warm_repeats, 1)}):\n"
        "    for name in [m for m in sys.modules\n"
        "                 if m.split('.')[0] == 'ternalg']:\n"
        "        del sys.modules[name]\n"
        "    t = time.perf_counter()\n"
        f"    import {module}\n"
        "    print(time.perf_counter() - t)\n")


def import_times(module: str, warm_repeats: int = 0) -> list:
    """Seconds ``import module`` takes in a child interpreter.

    With no ``warm_repeats`` the child is fresh: one cold import.
    """
    env = {k: v for k, v in os.environ.items() if k != "TERNALG_THREADS"}
    done = subprocess.run(
        [sys.executable, "-c", _import_script(module, warm_repeats)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return [float(line) for line in done.stdout.split()]


def setup(workloads, args, seed, holdout, classes, work_dir):
    """Build the corpus SETUP_REPEATS times; return it and the median cost.

    One set-up is one warm import of the module the workload enters
    through plus generating (and, for cli_mix, writing) the corpus.
    """
    entry = "ternalg.cli" if args.workload == "cli_mix" else "ternalg"
    imports = import_times(entry, SETUP_REPEATS)
    costs = []
    items = previous = None
    for rep, imported in enumerate(imports):
        # each set-up writes new files: truncating and rewriting the last
        # set-up's files can make the file system flush them on close
        rep_dir = work_dir / f"setup{rep}"
        rep_dir.mkdir()
        t = time.perf_counter()
        items = workloads.build_corpus(args.workload, seed, holdout,
                                       rep_dir, args.tiny, classes)
        costs.append(imported + time.perf_counter() - t)
        if previous is not None:
            shutil.rmtree(previous)
        previous = rep_dir
    return items, statistics.median(costs)


# -- timed loop ------------------------------------------------------------


class Outcome:
    """Per-item verdicts of a loop: attempts, failures, reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reports = []
        self.first_error = None

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def verify(workloads, workload, item, out, reference, outcome, keep_reports):
    projection, reports, ok = item.check(out)
    key = workloads.reference_key(workload, item.key)
    expected = reference.get(key)
    if expected is None or expected[0] != workloads.digest(projection):
        ok = False
        if outcome.first_error is None:
            outcome.first_error = f"{key}: output differs from the reference"
    if keep_reports:
        outcome.reports.extend(reports)
    return ok


def run_item(workloads, workload, item, reference, outcome, latencies,
             keep_reports=False):
    outcome.attempted += 1
    t = time.perf_counter_ns()
    try:
        out = item.run()
    except Exception:  # an item that raises counts as failed
        latencies.append(time.perf_counter_ns() - t)
        outcome.failed += 1
        if outcome.first_error is None:
            outcome.first_error = traceback.format_exc()
        return
    latencies.append(time.perf_counter_ns() - t)
    if not verify(workloads, workload, item, out, reference, outcome,
                  keep_reports):
        outcome.failed += 1


def timed_loop(workloads, workload, items, seconds, reference, min_items):
    """Whole passes until ``seconds`` and ``min_items``; per-pass timings."""
    outcome = Outcome()
    passes = []  # (wall seconds, item latencies in ns)
    start = time.perf_counter()
    while True:
        latencies = []
        t = time.perf_counter()
        for item in items:
            run_item(workloads, workload, item, reference, outcome, latencies)
        passes.append((time.perf_counter() - t, latencies))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(passes) * len(items) >= min_items:
            return passes, outcome, elapsed


def end_to_end(passes, setup_s):
    """The timing metrics as medians over passes.

    Every pass runs the same items, so each pass yields a full estimate
    of throughput, p50 and p90; taking the median over passes keeps a
    burst of contention from other tenants of the machine out of them.
    """
    def per_pass(stat):
        return statistics.median(stat(lat) for _, lat in passes)

    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (per_pass(len) / statistics.median(
            wall for wall, _ in passes), "1/s"),
        "verdict_ms_p50": (per_pass(statistics.median) / 1e6, "ms"),
        "verdict_ms_p90": (per_pass(_p90) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def pass_summary(wall, latencies):
    """Wall seconds, p50 ms and p90 ms of one pass, for the result file."""
    return [wall, statistics.median(latencies) / 1e6,
            _p90(latencies) / 1e6]


def _p90(latencies):
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced run ------------------------------------------------------------


def traced_pass(workloads, workload, items, reference):
    import tracing

    tracer = tracing.Tracer()
    outcome = Outcome()
    latencies = []
    tracer.install()
    start = time.perf_counter()
    try:
        for index, item in enumerate(items):
            tracer.item = index
            run_item(workloads, workload, item, reference, outcome,
                     latencies, keep_reports=True)
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
    return tracer, outcome, elapsed


def scalar_pass(workloads, workload, items, reference):
    import tracing

    counter = tracing.ScalarCounter()
    outcome = Outcome()
    counter.install()
    try:
        for item in items:
            run_item(workloads, workload, item, reference, outcome, [])
    finally:
        counter.uninstall()
    return counter.counts, outcome


def scalar_micro_ns(workloads, items, seed) -> float:
    """Median ns of one ``acc + a * b`` over the corpus's own coefficients."""
    from ternalg.scalars import ZERO

    coeffs = workloads.coefficients(items)
    rng = random.Random(seed)
    pairs = [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(256)]
    rounds = MICRO_OPS // len(pairs)
    samples = []
    for _ in range(MICRO_REPEATS):
        acc = ZERO
        t = time.perf_counter_ns()
        for _ in range(rounds):
            for a, b in pairs:
                acc = acc + a * b
        samples.append((time.perf_counter_ns() - t) / (rounds * len(pairs)))
    return statistics.median(samples)


def layer_metrics(tracer, t_outcome, counts, base_rate, traced_rate,
                  micro_ns, import_s, failed_frac):
    s = tracer.self_s
    c = tracer.calls
    reports = t_outcome.reports
    laws = [law for rep in reports for law in _laws(rep)]
    truncated = sum(1 for law in laws if law[0])
    mu_calls = c("algebra.mu_vec")
    return {
        "scalars.mul_add_ns": (micro_ns, "ns"),
        "scalars.ops": (counts["ops"], "count"),
        "scalars.parse_scalar.calls": (counts["parse_scalar"], "count"),
        "scalars.format_scalar.calls": (counts["format_scalar"], "count"),
        "linalg.vec_add_into.calls": (c("linalg.vec_add_into"), "count"),
        "linalg.vec_add_into.self_s": (s("linalg.vec_add_into"), "s"),
        "linalg.mat_apply.calls": (c("linalg.mat_apply"), "count"),
        "linalg.mat_apply.self_s": (s("linalg.mat_apply"), "s"),
        "linalg.mat_invertible.calls": (c("linalg.mat_invertible"), "count"),
        "algebra.mu_vec.calls": (mu_calls, "count"),
        "algebra.mu_vec.empty_frac": (
            tracer.counters["algebra.mu_vec.empty"] / mu_calls
            if mu_calls else 0.0, "ratio"),
        "algebra.check_associativity.self_s": (
            s("algebra.check_associativity"), "s"),
        "algebra.check_multiplicativity.self_s": (
            s("algebra.check_multiplicativity"), "s"),
        "algebra.check_algebra_morphism.self_s": (
            s("algebra.check_algebra_morphism"), "s"),
        "algebra.yau_twist.self_s": (s("algebra.yau_twist"), "s"),
        "coalgebra.check_coassociativity.self_s": (
            s("coalgebra.check_coassociativity"), "s"),
        "coalgebra.structure_identity_check.self_s": (
            s("coalgebra.structure_identity_check"), "s"),
        "coalgebra.delta_vec.calls": (c("coalgebra.delta_vec"), "count"),
        "bialgebra.check_compatibility.self_s": (
            s("bialgebra.check_compatibility"), "s"),
        "bialgebra.check_compatibility_sigma_form.self_s": (
            s("bialgebra.check_compatibility_sigma_form"), "s"),
        "bialgebra.compatibility_identity_check.self_s": (
            s("bialgebra.compatibility_identity_check"), "s"),
        "trimodule.check_trimodule.self_s": (
            s("trimodule.check_trimodule"), "s"),
        "trimodule.op_calls": (c("trimodule.op_L") + c("trimodule.op_R")
                               + c("trimodule.op_M"), "count"),
        "trimodule.semidirect_product.self_s": (
            s("trimodule.semidirect_product"), "s"),
        "matched_pair.check_matched_pair.self_s": (
            s("matched_pair.check_matched_pair"), "s"),
        "matched_pair.bicrossed_product.self_s": (
            s("matched_pair.bicrossed_product"), "s"),
        "duality.dualize.self_s": (
            s("duality.dualize_algebra") + s("duality.dualize_coalgebra")
            + s("duality.dualize_linear_map"), "s"),
        "report.violations_recorded": (
            sum(law[1] for law in laws), "count"),
        "report.early_exit_frac": (
            truncated / len(laws) if laws else 0.0, "ratio"),
        "serialization.load_file.self_s": (
            s("serialization.load_file"), "s"),
        "serialization.dump_text.self_s": (
            s("serialization.dump_text"), "s"),
        "serialization.bytes_read": (
            tracer.counters["serialization.bytes_read"], "B"),
        "serialization.bytes_written": (
            tracer.counters["serialization.bytes_written"], "B"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_frac": (1.0 - traced_rate / base_rate, "ratio"),
        "trace.items_per_s": (traced_rate, "1/s"),
        "trace.base_items_per_s": (base_rate, "1/s"),
        "failed_frac": (failed_frac, "ratio"),
    }


def _laws(report):
    """(truncated, violations) per law of a Report or a ``--json`` doc."""
    if isinstance(report, dict):
        return [(law["truncated"], len(law["violations"]))
                for law in report["laws"]]
    return [(law.truncated, len(law.violations)) for law in report.laws]


# -- driver ----------------------------------------------------------------


def provenance(workloads, args, seed, items):
    from ternalg import scalars

    return {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.holdout_seed,
        "corpus_digest": workloads.corpus_digest(items),
        "corpus_items": len(items),
        "backend": scalars.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def write_result(name, doc):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def metric_block(values):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ternalg" / "__init__.py").is_file():
        print(f"error: {SRC / 'ternalg'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} missing; run record_reference.py",
              file=sys.stderr)
        return 2
    os.environ.pop("TERNALG_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    holdout = args.holdout_seed is not None
    seed = args.holdout_seed if holdout else args.seed
    reference = workloads.load_reference(REFERENCE)
    classes = {key: entry[1] for key, entry in reference.items()}
    tag = f"{args.workload}-seed{seed}{'-holdout' if holdout else ''}"
    work_dir = WORK / str(os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        items, setup_s = setup(workloads, args, seed, holdout, classes,
                               work_dir)
        # collections the program triggers should not scan the harness's
        # corpus and reference, which a real process would not hold
        gc.collect()
        gc.freeze()
        min_items = 1 if args.tiny else MIN_ITEMS
        seconds = 0.0 if args.tiny else args.seconds
        passes, outcome, elapsed = timed_loop(
            workloads, args.workload, items, seconds, reference, min_items)
        e2e = end_to_end(passes, setup_s)
        rate = e2e["items_per_s"][0]
        prov = provenance(workloads, args, seed, items)
        if outcome.first_error:
            print(f"first failure: {outcome.first_error}", file=sys.stderr)
        samples = [x for _, lat in passes for x in lat]
        above = sum(1 for x in samples if x / 1e6 > e2e["verdict_ms_p90"][0])
        print(f"{args.workload} seed={seed}: {len(samples)} items in "
              f"{elapsed:.2f} s ({len(passes)} passes of {len(items)}), "
              f"failed {outcome.failed}")
        for name, (value, unit) in e2e.items():
            extra = (f"  (n={len(samples)} samples, {above} above p90)"
                     if name == "verdict_ms_p90" else "")
            print(f"  {name:16s} {value:12.4f} {unit}{extra}")
        print(f"  {'failed_frac':16s} {outcome.failed_frac:12.4f} ratio")
        result = {"provenance": prov, "samples": len(samples),
                  "failed_frac": outcome.failed_frac,
                  "end_to_end": metric_block(e2e),
                  "passes": [pass_summary(wall, lat) for wall, lat in passes]}
        attempted, failed = outcome.attempted, outcome.failed
        metrics = metric_block(e2e)
        if args.trace:
            tracer, t_outcome, t_elapsed = traced_pass(
                workloads, args.workload, items, reference)
            counts, s_outcome = scalar_pass(workloads, args.workload, items,
                                            reference)
            micro = scalar_micro_ns(workloads, items, seed)
            import_s = statistics.median(
                import_times("ternalg.cli")[0] for _ in range(IMPORT_REPEATS))
            attempted += t_outcome.attempted + s_outcome.attempted
            failed += t_outcome.failed + s_outcome.failed
            layers = layer_metrics(tracer, t_outcome, counts, rate,
                                   len(items) / t_elapsed, micro, import_s,
                                   failed / attempted)
            metrics = metric_block(layers)
            result["per_layer"] = metrics
            spans = write_result(f"{tag}-spans.json",
                                 {"provenance": prov, **tracer.dump()})
            for name, (value, unit) in layers.items():
                print(f"  {name:48s} {value:14.6g} {unit}")
            print(f"spans written to {spans}")
        write_result(f"{tag}-trace{args.trace}.json", result)
        print(json.dumps({"provenance": prov}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
