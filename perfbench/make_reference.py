"""Regenerate the stored cost traces that the plan_* output check compares
against: one untraced unit per (workload, seed) for seeds 0..63, costs
written in full precision.

    python3 perfbench/make_reference.py

Run it only when the workload definition changes, never to absorb a change
of the program's results.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from workloads import make_workload  # noqa: E402

STORED_SEEDS = 64


def main():
    doc = {}
    for name in ("plan_ms", "plan_ss"):
        traces = {}
        for seed in range(STORED_SEEDS):
            unit = bench.plan_unit(make_workload(name, seed), ())
            traces[str(seed)] = list(unit.costs)
            print(f"{name} seed {seed}: {unit.failed} failed solve(s)",
                  flush=True)
        doc[name] = traces
    bench.REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    bench.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
