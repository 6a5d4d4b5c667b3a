"""Command-line front end.

Subcommands::

    safemanip run SCENARIO [-o DIR] [--set section.key=value ...]
    safemanip compare SCENARIO_A SCENARIO_B [-o DIR] [--set ...]

Exit codes are a contract: 0 on success, 1 on configuration errors (bad
paths, malformed scenario or robot files, bad overrides), 2 when the planner
aborts beyond its fallback budget.  Nothing is written to stderr on success;
diagnostics go to stdout.
"""

import argparse
import logging
import sys
from pathlib import Path

from .robots import InputFileError
from .scenario import load_scenario
from .sim import (SolverAbort, check_comparable, compare_runs, run,
                  run_schedule)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors, hence exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="safemanip",
                     description="Closed-loop manipulator safety pipeline")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for info, -vv for debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("-o", "--output", default="out",
                       help="output directory (default: out)")
    p_run.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override a scenario field, e.g. planner.N=10")

    p_cmp = sub.add_parser("compare", help="run two scenarios and diff them")
    p_cmp.add_argument("scenario_a")
    p_cmp.add_argument("scenario_b")
    p_cmp.add_argument("-o", "--output", default="out")
    p_cmp.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override applied to both scenarios")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, args.overrides)
    out = Path(args.output)
    try:
        report = run(scenario, out_dir=out)
    except SolverAbort as exc:
        report = exc.report
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.as_text())
        print(report.as_text(), end="")
        return EXIT_SOLVER
    (out / "report.txt").write_text(report.as_text())
    print(report.as_text(), end="")
    return EXIT_OK


def _cmd_compare(args) -> int:
    sa = load_scenario(args.scenario_a, args.overrides)
    sb = load_scenario(args.scenario_b, args.overrides)
    try:
        check_comparable(run_schedule(sa), run_schedule(sb))
    except ValueError as exc:
        raise InputFileError(f"cannot compare {args.scenario_a} with "
                             f"{args.scenario_b}: {exc}") from exc
    out = Path(args.output)
    code = EXIT_OK
    reports = []
    for tag, sc in (("a", sa), ("b", sb)):
        try:
            rep = run(sc, out_dir=out / tag)
        except SolverAbort as exc:
            rep = exc.report
            code = EXIT_SOLVER
        (out / tag / "report.txt").write_text(rep.as_text())
        reports.append(rep)
    if code == EXIT_SOLVER:
        # an aborted run covers only part of the schedule: nothing to diff
        print("compare: a run aborted, see its report.txt")
        return code
    cmp = compare_runs(reports[0], reports[1])
    lines = [f"compare: {sa.name} (a) vs {sb.name} (b), deltas are a - b"]
    for t, d in zip(cmp.waypoint_times, cmp.waypoint_error_delta):
        lines.append(f"waypoint t={t:.2f} s: ee error delta {d:+.5f}")
    lines.append("clearance delta per link: "
                 + ", ".join(f"{d:+.4f}" for d in cmp.clearance_delta_per_link))
    lines.append(f"min clearance delta: {cmp.min_clearance_delta:+.4f} m")
    lines.append(f"ee error rms delta: {cmp.ee_error_rms_delta:+.5f}")
    lines.append(f"solve time mean delta: "
                 f"{1e3 * cmp.solve_time_mean_delta:+.2f} ms")
    text = "\n".join(lines) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.txt").write_text(text)
    print(text, end="")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = (logging.WARNING, logging.INFO,
             logging.DEBUG)[min(args.verbose, 2)]
    # stdout keeps the error stream silent on successful runs
    logging.basicConfig(level=level, stream=sys.stdout,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
