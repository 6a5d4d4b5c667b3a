"""Time the set-up of one fresh process: import safemanip, build the
workload's scenario, construct the Planner.  Prints the seconds taken.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from safemanip.planner import Planner  # noqa: E402

from workloads import make_workload  # noqa: E402


def main(argv):
    workload = make_workload(argv[0], int(argv[1]))
    Planner(workload.scenario.model, workload.scenario.planner)
    print(f"{time.perf_counter() - _T0:.6f}")


if __name__ == "__main__":
    main(sys.argv[1:])
