"""Runs of the three workloads: timing, output checks, end-to-end metrics.

A run does a fixed number of units of work, set by ``--seconds`` through the
nominal unit times in ``UNIT_SECONDS``, so two commits compared on the same
settings do the same work and their tail percentiles have the same rank.
A ``loop_push`` unit is one ``sim.run`` of the scenario; a ``plan_*`` unit is
``PLAN_CYCLES`` open-loop cycles of a fresh ``Planner``, each planning from
the state its previous plan reached after one node (tracked perfectly).

Every run also does one unit in the other mode: the untraced run (measured)
does one traced unit, and the traced run one untraced unit.  The pair checks
that the hooks change no output and gives the tracing overhead.  The untraced
run carries two probes only: the return of ``sim.rk4_step`` (tick edges) and
``Planner.plan_step`` (solve times).
"""

import csv
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from safemanip import sim
from safemanip.geometry import closest_pair_per_link
from safemanip.model import forward_kinematics
from safemanip.planner import Planner
from safemanip.se3 import pose_error_norm

import layers
from tracing import Installed, Tracer, merge, tail_percentile, tick_times
from workloads import PLAN_CYCLES, draws, make_workload

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "plan_costs.json"
COST_REL_TOL = 1e-6
SETUP_REPEATS = 5
# wall seconds of one unit on a 2-core x86-64 machine (Python 3.11, numpy 2.4,
# one BLAS thread); only the number of units per run derives from them
UNIT_SECONDS = {"loop_push": 9.0, "plan_ms": 3.0, "plan_ss": 5.5}
# a loop_push unit has 10 solves; two units give the 20 a tail needs
MIN_UNITS = {"loop_push": 2, "plan_ms": 1, "plan_ss": 1}

# name, unit: every end-to-end metric, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("rtf", "ratio"),
    ("tick_ms_p50", "ms"),
    ("tick_ms_tail", "ms"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_tail", "ms"),
    ("ee_err_rms", "1"),
    ("min_clearance_m", "m"),
)


def units_for(workload: str, seconds: float) -> int:
    return max(MIN_UNITS[workload],
               int(round(seconds / UNIT_SECONDS[workload])))


@dataclass
class Unit:
    """One unit of work and what was measured on it."""

    wall: float
    tracer: Tracer
    solve_s: np.ndarray          # wall time of each plan_step
    tick_s: np.ndarray           # loop iterations minus their solves
    attempted: int
    failed: int
    ticks: int = 0               # loop iterations: control ticks or cycles
    ok: tuple = ()               # per plan_* solve: converged, no fallback
    costs: tuple = ()
    sim_stats: tuple = ()        # deterministic outputs, equal across units
    report: object = None
    aborted: bool = False
    feasible_clearance: float = math.inf
    ee_err_rms: float = math.nan
    min_clearance: float = math.nan
    files: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _spans(tracer, name):
    names, _, start, end, tags = tracer.spans()
    m = names == name
    return start[m], end[m], [t for t, k in zip(tags, m) if k]


def _failed(tag) -> bool:
    iterations, converged, fallback, status = tag
    return not converged or bool(fallback) or status == "infeasible"


def _loop_clearance_while_feasible(log_path, solves_path, n):
    """Minimum logged link distance over ticks whose latest solve was
    neither infeasible nor a fallback."""
    bad_from = []
    with open(solves_path, newline="") as fh:
        for row in csv.DictReader(fh):
            bad = row["status"] == "infeasible" or row["fallback"] == "1"
            bad_from.append((float(row["t"]), bad))
    best = math.inf
    with open(log_path, newline="") as fh:
        k = -1
        for row in csv.DictReader(fh):
            t = float(row["t"])
            while k + 1 < len(bad_from) and bad_from[k + 1][0] <= t:
                k += 1
            if k >= 0 and bad_from[k][1]:
                continue
            for j in range(n):
                best = min(best, float(row[f"dist_link_{j}"]))
    return best


def loop_unit(workload, hooks, out_dir: Path) -> Unit:
    sc = workload.scenario
    tracer = Tracer()
    with Installed(tracer, hooks):
        t0 = time.perf_counter()
        try:
            report = sim.run(sc, out_dir)
            aborted = False
        except sim.SolverAbort as exc:
            report, aborted = exc.report, True
        wall = time.perf_counter() - t0
    s0, s1, plan_tags = _spans(tracer, "planner.plan_step")
    _, rk4_end, _ = _spans(tracer, "sim.rk4_step")
    n_ticks = int(round(sc.duration * sc.control_rate))
    div = sc.control_rate // sc.planner_rate
    planned = -(-n_ticks // div)
    failed = sum(_failed(t) for t in plan_tags) + (planned - len(plan_tags))
    files = {Path(p).name: Path(p).read_bytes()
             for p in (report.log_path, report.solves_path)}
    clearance = _loop_clearance_while_feasible(
        report.log_path, report.solves_path, sc.model.n)
    stats = (report.ee_error_rms, report.min_clearance,
             report.min_clearance_per_link, report.detections,
             report.mode_timeline, report.iterations_mean,
             report.iterations_max, report.ticks)
    return Unit(wall=wall, tracer=tracer, solve_s=s1 - s0,
                tick_s=tick_times(rk4_end, s0, s1), ticks=report.ticks,
                attempted=planned,
                failed=failed, sim_stats=stats, report=report,
                aborted=aborted, feasible_clearance=clearance,
                ee_err_rms=report.ee_error_rms,
                min_clearance=report.min_clearance, files=files)


def plan_unit(workload, hooks) -> Unit:
    sc = workload.scenario
    model = sc.model
    tracer = Tracer()
    solve_s, tick_s, costs, tags = [], [], [], []
    err_sq, clearance, feasible_clearance = 0.0, math.inf, math.inf
    with Installed(tracer, hooks):
        planner = Planner(model, sc.planner)
        x = np.concatenate([sc.q0, sc.qd0])
        t_start = time.perf_counter()
        for c in range(PLAN_CYCLES):
            c0 = time.perf_counter()
            t = c / sc.planner_rate
            T_ref = sc.reference_pose(t)
            obstacles = sc.obstacles_at(t)
            s0 = time.perf_counter()
            step = planner.plan_step(x, T_ref, obstacles)
            s1 = time.perf_counter()
            x = np.concatenate([step.q_des, step.qd_des])
            fk = forward_kinematics(model, step.q_des)
            err = pose_error_norm(fk[-1], T_ref)
            d = closest_pair_per_link(model, step.q_des, obstacles,
                                      fk=fk).min_distance
            c1 = time.perf_counter()
            sol = step.solution
            tag = layers.plan_tag(step)
            solve_s.append(s1 - s0)
            tick_s.append((c1 - c0) - (s1 - s0))
            costs.append(sol.cost)
            tags.append(tag)
            err_sq += err * err
            clearance = min(clearance, d)
            if not step.used_fallback and sol.status != "infeasible":
                feasible_clearance = min(feasible_clearance, d)
        wall = time.perf_counter() - t_start
    ee_rms = math.sqrt(err_sq / PLAN_CYCLES)
    iters = tuple(t[0] for t in tags)
    return Unit(wall=wall, tracer=tracer, solve_s=np.asarray(solve_s),
                tick_s=np.asarray(tick_s), ticks=PLAN_CYCLES,
                attempted=PLAN_CYCLES, failed=sum(_failed(t) for t in tags),
                ok=tuple(not _failed(t) for t in tags), costs=tuple(costs),
                sim_stats=(tuple(costs), iters, ee_rms, clearance),
                feasible_clearance=feasible_clearance, ee_err_rms=ee_rms,
                min_clearance=clearance)


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """Set-up times of fresh processes: import, scenario, Planner."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(repeats):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def stored_costs(workload: str, seed: int):
    """Reference cost trace for (workload, seed), or None if not stored."""
    if not REFERENCE.exists():
        return None
    doc = json.loads(REFERENCE.read_text())
    return doc.get(workload, {}).get(str(seed))


def cost_mismatch(costs, reference, only=None) -> float:
    """Largest relative cost difference; ``only`` masks which solves count."""
    a = np.asarray(costs, dtype=float)
    b = np.asarray(reference, dtype=float)
    if a.shape != b.shape:
        return math.inf
    rel = np.abs(a - b) / np.maximum(np.abs(b), 1e-12)
    if only is not None:
        rel = rel[np.asarray(only, dtype=bool)]
    return float(rel.max(initial=0.0))


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    checks: list
    attempted: int
    failed: int
    e2e: dict
    per_layer: dict
    lines: list
    span_rows: list


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_root: Path) -> Result:
    n_units = units_for(name, seconds)
    # loop_push takes a fresh draw per unit, so its medians pool several
    # scenes; plan_* repeat one draw, whose cost trace is stored
    if name == "loop_push":
        inputs = list(itertools.islice(draws(name, seed), n_units))
    else:
        inputs = [make_workload(name, seed)] * n_units
    out = out_root / f"{name}-seed{seed}"
    lines = [f"workload {name}, seed {seed}, {n_units} unit(s), "
             f"{'traced' if trace else 'untraced'}; "
             f"{sum(w.rejected_draws for w in inputs)} draw(s) rejected as "
             "invalid input"]

    def one(i, hooks, tag):
        if name == "loop_push":
            return loop_unit(inputs[i], hooks, out / f"{tag}{i}")
        return plan_unit(inputs[i], hooks)

    setup = [] if trace else measure_setup(name, seed)
    measured = [one(i, layers.HOOKS if trace else layers.PROBES, "measured")
                for i in range(n_units)]
    other = one(0, layers.PROBES if trace else layers.HOOKS, "other")
    traced_units = measured if trace else [other]
    untraced_units = [other] if trace else measured
    for u in traced_units:
        layers.check_required(name, u.tracer.names)

    checks = _checks(inputs[0], measured, other)
    attempted = sum(u.attempted for u in measured)
    failed = sum(u.failed for u in measured)
    lines.append(f"solve_fail_frac = {failed}/{attempted} = "
                 f"{failed / attempted:.4f}")
    if name == "loop_push":
        lines.extend(_push_lines(inputs, measured))

    e2e, per_layer, span_rows = {}, {}, []
    if trace:
        merged = merge(u.tracer for u in traced_units)
        names, parent, start, end, tags = merged.spans()
        overhead = 100.0 * (
            statistics.median(u.wall for u in traced_units)
            / statistics.median(u.wall for u in untraced_units) - 1.0)
        per_layer = layers.per_layer_metrics(
            names, parent, start, end, tags,
            ticks=sum(u.ticks for u in traced_units),
            traced_wall=sum(u.wall for u in traced_units),
            overhead_pct=overhead)
        span_rows = layers.span_table(names, parent, start, end)
        out.mkdir(parents=True, exist_ok=True)
        merged.write(out / "spans.csv")
    else:
        e2e, note = _end_to_end(inputs[0], measured, setup)
        lines.append(note)
    return Result(workload=name, seed=seed, trace=trace, checks=checks,
                  attempted=attempted, failed=failed, e2e=e2e,
                  per_layer=per_layer, lines=lines, span_rows=span_rows)


def _end_to_end(workload, measured, setup):
    """The end-to-end metrics of the measured (untraced) units."""
    sc = workload.scenario
    if workload.name == "loop_push":
        sim_seconds = sc.duration
    else:
        sim_seconds = PLAN_CYCLES / sc.planner_rate
    tick_tail, tick_note = _tail([u.tick_s for u in measured])
    solve_tail, solve_note = _tail([u.solve_s for u in measured])
    # medians are taken per unit and then across units, so one unit slowed
    # by another tenant of the machine moves them less than pooling would
    e2e = {
        "setup_s": statistics.median(setup),
        "rtf": sim_seconds / statistics.median(u.wall for u in measured),
        "tick_ms_p50": 1e3 * statistics.median(
            float(np.median(u.tick_s)) for u in measured),
        "tick_ms_tail": 1e3 * tick_tail,
        "solve_ms_p50": 1e3 * statistics.median(
            float(np.median(u.solve_s)) for u in measured),
        "solve_ms_tail": 1e3 * solve_tail,
        "ee_err_rms": statistics.median(u.ee_err_rms for u in measured),
        "min_clearance_m": statistics.median(
            u.min_clearance for u in measured),
    }
    note = (f"tick tail = {tick_note}; solve tail = {solve_note}; p50 = "
            "median over units of the unit medians; setup = median of "
            f"{len(setup)} fresh processes")
    return e2e, note


def _tail(samples):
    """Value and description of the tail rule.  Units of at least 100
    samples get their own tail and the median of those is taken, so a burst
    of load in one unit does not set it; smaller units are pooled first."""
    if min(len(x) for x in samples) >= 100:
        tails = [tail_percentile(x) for x in samples]
        return (statistics.median(v for _, v in tails),
                f"p{tails[0][0]} of n={len(samples[0])} per unit, median of "
                f"{len(samples)} units")
    pooled = np.concatenate(samples)
    p, v = tail_percentile(pooled)
    return v, f"p{p} of n={pooled.size}"


def _checks(workload, measured, other):
    """The output checks of one run; ``other`` is the unit in the other
    mode (traced or not) of the same inputs."""
    name, seed = workload.name, workload.seed
    first = measured[0]
    # loop_push units are distinct draws; only the other-mode unit repeats
    # the first one
    same = [other] if name == "loop_push" else measured + [other]
    checks = [Check(
        "outputs repeat exactly for the same inputs, traced or not",
        all(u.sim_stats == first.sim_stats for u in same),
        "simulated statistics, costs and iterations")]
    if name == "loop_push":
        checks.append(Check(
            "no SolverAbort", not any(u.aborted for u in measured + [other]),
            f"{first.report.ticks} ticks completed"))
        checks.append(Check(
            "log.csv and solves.csv identical traced vs untraced",
            first.files == other.files and bool(first.files),
            ", ".join(sorted(first.files))))
    else:
        reference = stored_costs(name, seed)
        if reference is not None:
            rel = cost_mismatch(first.costs, reference)
            checks.append(Check(
                "solve costs match the stored reference trace",
                rel <= COST_REL_TOL,
                f"max relative difference {rel:.2e} (tolerance "
                f"{COST_REL_TOL:g})"))
        else:
            # no trace stored for this seed: the other shooting method
            # solves the same QPs, so their optimal costs must agree up to
            # the first solve that failed on either side (after it the
            # planned states differ)
            twin = "plan_ss" if name == "plan_ms" else "plan_ms"
            mirror = plan_unit(make_workload(twin, seed), ())
            agree = np.cumprod([a and b for a, b in zip(first.ok, mirror.ok)])
            rel = cost_mismatch(first.costs, mirror.costs, only=agree)
            checks.append(Check(
                f"solve costs match {twin} (no stored trace for seed {seed})",
                rel <= COST_REL_TOL and agree.any(),
                f"max relative difference {rel:.2e} over the first "
                f"{int(agree.sum())} solves, all converged on both "
                f"(tolerance {COST_REL_TOL:g})"))
    cfg = workload.scenario.planner
    floor = cfg.d_th1 - cfg.constraint_tol
    clearance = min(u.feasible_clearance for u in measured)
    checks.append(Check(
        "clearance >= d_th1 - constraint_tol while the QP was feasible",
        clearance >= floor, f"{clearance:.4f} m >= {floor:.6f} m"))
    return checks


def _push_lines(inputs, units):
    """Detection delay and isolation of each scripted push, as measured."""
    lines, misses = [], 0
    for k, (w, u) in enumerate(zip(inputs, units)):
        onset, pushed = w.push_onset, w.push_link
        episodes = [d for d in u.report.detections if d[0] >= onset]
        if not episodes:
            misses += 1
            lines.append(f"draw {k}: push on link {pushed} at {onset:.3f} s "
                         "not detected")
            continue
        t, first_link, final_link = episodes[0]
        misses += int(final_link != pushed)
        lines.append(f"draw {k}: detect_ms = {1e3 * (t - onset):.1f} (sim "
                     f"time); pushed link {pushed}, detected link "
                     f"{first_link}, final isolated link {final_link}")
    lines.append(f"isolation_miss = {misses}/{len(units)} = "
                 f"{misses / len(units):.4f}")
    return lines
