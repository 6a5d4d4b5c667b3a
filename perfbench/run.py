"""Benchmark of the safemanip pipeline: closed loop and planner.

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --trace 1            # per-layer table as well
    python3 perfbench/run.py --workload loop_push --seed 3 --seconds 25

Prints a table per workload, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics when untraced, the per-layer metrics when traced.  Exits 1 when an
output check fails, and with a traceback and no result when a hook is
missing or a required hook never ran.  See README.md beside this file.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one process and no worker threads: pin the BLAS pool before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import safemanip  # noqa: E402

if Path(safemanip.__file__).resolve().parent != ROOT / "src" / "safemanip":
    raise SystemExit(f"safemanip imported from {safemanip.__file__}, "
                     f"not from {ROOT / 'src'}")

import bench  # noqa: E402
import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench_out"


def _environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, BLAS {blas.get('name')} "
            f"{blas.get('version')}, BLAS threads "
            f"{os.environ['OPENBLAS_NUM_THREADS']}, cpus {os.cpu_count()}")


def _report(result) -> dict:
    print(f"== {result.workload} (seed {result.seed}) ==")
    for line in result.lines:
        print(f"  {line}")
    if not result.trace:
        print("  end-to-end:")
        for name, unit in bench.END_TO_END:
            print(f"    {name:<18} {result.e2e[name]:>14.6g} {unit}")
    else:
        print("  spans (busy time; waiting is zero: one synchronous thread):")
        print(f"    {'span':<34} {'calls':>8} {'total ms':>11} "
              f"{'mean us':>11} {'self ms':>11}")
        for name, calls, total, mean, own in result.span_rows:
            print(f"    {name:<34} {calls:>8} {total:>11.2f} {mean:>11.1f} "
                  f"{own:>11.2f}")
        print("  per-layer:")
        for name, unit in layers.PER_LAYER:
            print(f"    {name:<40} {result.per_layer[name]:>12.6g} {unit}")
    print("  checks:")
    for check in result.checks:
        print(f"    [{'ok' if check.ok else 'FAIL'}] {check.name}: "
              f"{check.detail}")
    table = layers.PER_LAYER if result.trace else bench.END_TO_END
    values = result.per_layer if result.trace else result.e2e
    return {
        "correct": all(c.ok for c in result.checks),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"environment: {_environment()}")
    correct = True
    for name in names:
        result = bench.run_workload(name, args.seed, args.seconds,
                                    bool(args.trace), OUT)
        summary = _report(result)
        correct = correct and summary["correct"]
        print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
