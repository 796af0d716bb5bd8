"""Freeze the default-seed reference tables of the scan workloads.

    python3 perfbench/freeze_reference.py

Run from the root of a source checkout.  Writes perfbench/reference/
<workload>.csv from run_scan at seed 0; run.py compares every default-seed
table against them field by field.  Re-freeze only when a workload's
definition changes, never to absorb a change in the library's numbers.
"""

from run import REFERENCE, run_child
from workloads import DEFAULT_SEED, SCAN, WORKLOADS

if __name__ == "__main__":
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        if workload.kind == SCAN:
            rep = run_child("scan", workload.name, DEFAULT_SEED)
            (REFERENCE / f"{workload.name}.csv").write_text(rep["payload"])
            print(f"{workload.name}: {rep['rows']} rows in {rep['wall_s']:.2f} s")
