"""Record ``reference.json``: each workload's summary values at the reference seed.

Run once on a commit whose outputs are known to be right::

    python3 perfbench/record_reference.py

``run.py`` compares every child run at the reference seed against this file:
exact fields (best rates, statuses, check names) must match, and medians
must agree within ``workloads.REFERENCE_RTOL``.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

from run import HERE, WORK, run_child
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        shutil.rmtree(WORK / workload.name, ignore_errors=True)
        now = time.monotonic()
        result, out = run_child(workload, REFERENCE_SEED, "plain", 0, deadline=now, kill_at=now + 600)
        if result is None or any(result["codes"]):
            print(f"{workload.name}: run failed, see {out.parent / 'child.log'}", file=sys.stderr)
            return 1
        reference[workload.name] = workload.summary(out)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
