"""Record ``reference.json``: the expected output of every corpus slot.

Run from the root of a checkout whose program is known to be right:

    python3 perfbench/record_reference.py

Every slot of every stratum (including the held-out ones) and every
fixture command is run once.  For each the file keeps the digest of the
output projection and the digest of its outcome class, which
``build_corpus`` uses to give every seed the same mix of outcomes.

Recording refuses to write a reference that breaks the workloads' own
invariants: every ``dense_verify`` structure passes every law it is
timed on, every oracle agrees with its checker, and every construction
command exits with 0.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from ternalg import scalars  # noqa: E402


def record(workload, work):
    fixtures = workloads.load_fixtures()
    items = []
    for name, count, make in workloads.strata(workload, fixtures, work):
        for slot in range(workloads.pool_size(count)):
            items.append(workloads.make_slot(workload, name, make, slot))
    if workload == "cli_mix":
        items += workloads.fixture_items()
    slots = {}
    for item in items:
        projection, _, ok = item.check(item.run())
        if not ok:
            raise SystemExit(f"{workload}/{item.key}: invariant broken: "
                             f"{projection!r}")
        slots[workloads.reference_key(workload, item.key)] = [
            workloads.digest(projection),
            workloads.digest(item.outcome(projection))[:8]]
    return slots


def main() -> int:
    work = ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        slots = {}
        for workload in workloads.WORKLOADS:
            got = record(workload, work)
            print(f"{workload}: {len(got)} slots", flush=True)
            slots.update(got)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    recorded_with = {"backend": scalars.BACKEND,
                     "python": platform.python_version()}
    # one slot per line keeps the file readable and its diffs small
    lines = [f"{json.dumps(key)}: {json.dumps(value)}"
             for key, value in sorted(slots.items())]
    text = ('{"recorded_with": ' + json.dumps(recorded_with, sort_keys=True)
            + ',\n"slots": {\n' + ",\n".join(lines) + "\n}}\n")
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
