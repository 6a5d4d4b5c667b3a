"""Deterministic closed-loop simulation.

One fixed-step loop at the scenario's control rate: RK4 on the rigid-body
forward dynamics, the planner called synchronously every
``control_rate / planner_rate`` ticks (its plan becoming visible after the
configured latency), obstacle poses held between their own updates, scripted
contact forces mapped to joint torques through the point Jacobian.  Identical
scenarios produce byte-identical CSV logs: nothing derived from wall time is
written to them; solve wall times only enter the run report.

CSV column order (``log.csv``) for an n-joint robot::

    t, mode, q_0..q_{n-1}, qd_0..qd_{n-1}, tau_0..tau_{n-1},
    rhat_0..rhat_{n-1}, contact_link, dist_link_0..dist_link_{n-1},
    ee_x, ee_y, ee_z, ref_x, ref_y, ref_z, ee_err

``dist_link_j`` is the minimum obstacle distance over the collision bodies on
link j (inf when the link has none or there are no obstacles); ``ee_err`` is
the pose error against the scenario reference.  ``solves.csv`` columns::

    t, method, status, iterations, cost, max_defect, min_predicted_distance,
    fallback

``method`` echoes the planner config (both methods solve one QP),
``max_defect`` is the QP's equality residual (the largest shooting defect)
and ``min_predicted_distance`` is ``d_th1`` plus its least distance-row
slack.
"""

import csv
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .controller import ControllerState, mode_step
from .dynamics import KinState, forward_dynamics
# unused here; perfbench/test_perfbench.py checks its hook patches this binding
from .dynamics import mass_matrix  # noqa: F401
from .geometry import closest_pair_per_link
from .model import RobotModel, forward_kinematics, point_jacobian
from .planner import Planner
from .scenario import Scenario
from .se3 import pose_error_norm

log = logging.getLogger(__name__)


class SolverAbort(RuntimeError):
    """Planner exceeded its fallback budget; ``report`` holds the partial run."""

    def __init__(self, message: str, report: "RunReport"):
        super().__init__(message)
        self.report = report


def rk4_step(model: RobotModel, kin: KinState, tau, tau_ext, dt: float):
    """One RK4 step of the plant under zero-order-held joint torques.

    The first stage reads ``kin``, the state the step starts from; the
    remaining stages build their own.
    """
    q, qd = kin.q, kin.qd
    a1 = forward_dynamics(kin, tau, tau_ext)
    q2 = q + 0.5 * dt * qd
    v2 = qd + 0.5 * dt * a1
    a2 = forward_dynamics(KinState.of(model, q2, v2), tau, tau_ext)
    q3 = q + 0.5 * dt * v2
    v3 = qd + 0.5 * dt * a2
    a3 = forward_dynamics(KinState.of(model, q3, v3), tau, tau_ext)
    q4 = q + dt * v3
    v4 = qd + dt * a3
    a4 = forward_dynamics(KinState.of(model, q4, v4), tau, tau_ext)
    q_next = q + (dt / 6.0) * (qd + 2.0 * v2 + 2.0 * v3 + v4)
    qd_next = qd + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return q_next, qd_next


def _sample_plan(X: np.ndarray, t0: float, t: float, dt_plan: float, n: int):
    """Desired (q, qd) at time t from a plan whose node 0 sits at t0."""
    s = (t - t0) / dt_plan
    N = X.shape[0] - 1
    if s <= 0.0:
        return X[0, :n], X[0, n:]
    if s >= N:
        return X[N, :n], np.zeros(n)
    j = int(s)
    frac = s - j
    x = (1.0 - frac) * X[j] + frac * X[j + 1]
    return x[:n], x[n:]


@dataclass(frozen=True)
class RunReport:
    """Deterministic summary of one run (wall times excepted)."""

    scenario_name: str
    robot: str
    duration: float
    ticks: int
    aborted: bool
    abort_reason: Optional[str]
    min_clearance_per_link: tuple
    min_clearance: float
    ee_error_rms: float
    per_waypoint_error: tuple
    detections: tuple
    mode_timeline: tuple
    damped_task_ticks: int
    solves: int
    fallbacks: int
    iterations_mean: float
    iterations_max: int
    solve_time_mean: float
    solve_time_max: float
    wall_time: float
    planner_method: str
    planner_horizon: int
    log_path: Optional[str]
    solves_path: Optional[str]

    def as_text(self) -> str:
        lines = [
            f"scenario: {self.scenario_name}",
            f"robot: {self.robot}",
            f"planner: {self.planner_method} shooting, N={self.planner_horizon}",
            f"duration: {self.duration:.3f} s ({self.ticks} ticks)",
            f"status: {'ABORTED: ' + self.abort_reason if self.aborted else 'completed'}",
            f"wall time: {self.wall_time:.2f} s",
            "",
            f"min clearance: {self.min_clearance:.4f} m",
            "min clearance per link: "
            + ", ".join(f"{d:.4f}" for d in self.min_clearance_per_link),
            f"ee pose error rms: {self.ee_error_rms:.5f}",
        ]
        if self.per_waypoint_error:
            lines.append("waypoint errors:")
            for t, err in self.per_waypoint_error:
                lines.append(f"  t={t:.2f} s: {err:.5f}")
        if self.detections:
            lines.append("contact detections:")
            for t, first, final in self.detections:
                lines.append(f"  t={t:.3f} s: link {first} -> link {final}")
        lines.append("mode timeline:")
        for t, mode in self.mode_timeline:
            lines.append(f"  t={t:.3f} s: {mode}")
        lines.append("contact-safe ticks with a damped singular task: "
                     f"{self.damped_task_ticks}")
        lines.append(
            f"solves: {self.solves} ({self.fallbacks} fallbacks), "
            f"iterations mean {self.iterations_mean:.1f} max {self.iterations_max}, "
            f"solve time mean {1e3 * self.solve_time_mean:.1f} ms "
            f"max {1e3 * self.solve_time_max:.1f} ms")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return repr(float(value))


def _per_link_distances(sweep, n: int) -> np.ndarray:
    dists = np.full(n, np.inf)
    for res in sweep.results:
        if res.distance < dists[res.link]:
            dists[res.link] = res.distance
    return dists


def run(scenario: Scenario, out_dir=None) -> RunReport:
    """Simulate a scenario; write ``log.csv``/``solves.csv`` under ``out_dir``.

    Raises :class:`SolverAbort` (with the partial report attached) when the
    planner fails for more than ``fallback_budget`` consecutive cycles.
    """
    model = scenario.model
    n = model.n
    rate = scenario.control_rate
    dt = 1.0 / rate
    n_ticks = int(round(scenario.duration * rate))
    planner_div = rate // scenario.planner_rate
    dt_plan = scenario.planner.dt

    planner = Planner(model, scenario.planner)
    state = ControllerState.create(n, params=scenario.reaction,
                                   usde_k=scenario.usde_k)
    gains = scenario.gains
    rng = np.random.default_rng(scenario.seed)

    q = scenario.q0.copy()
    qd = scenario.qd0.copy()
    T_hold = forward_kinematics(model, q)[-1]

    waypoint_at = {}
    for t_w, pose in _reported_waypoints(scenario):
        idx = min(n_ticks - 1, int(round(t_w * rate)))
        waypoint_at.setdefault(idx, []).append((t_w, pose))

    plan = None          # (X, birth time)
    pending = None       # (X, birth time, visible at)
    obstacles = []
    obs_clock = -1
    fallback_run = 0
    abort_reason = None

    min_per_link = np.full(n, np.inf)
    err_sq_sum = 0.0
    per_waypoint = []
    detections = []
    episode = None       # [t_detect, first_link, final_link]
    timeline = []
    last_mode = None
    solve_iters = []
    solve_times = []
    fallbacks = 0

    header = (["t", "mode"]
              + [f"q_{j}" for j in range(n)]
              + [f"qd_{j}" for j in range(n)]
              + [f"tau_{j}" for j in range(n)]
              + [f"rhat_{j}" for j in range(n)]
              + ["contact_link"]
              + [f"dist_link_{j}" for j in range(n)]
              + ["ee_x", "ee_y", "ee_z", "ref_x", "ref_y", "ref_z", "ee_err"])
    rows = []
    solve_header = ["t", "method", "status", "iterations", "cost",
                    "max_defect", "min_predicted_distance", "fallback"]
    solve_rows = []

    wall_start = time.perf_counter()
    ticks_done = 0
    for i in range(n_ticks):
        t = i * dt
        obs_tick = (i * scenario.obstacle_rate) // rate
        if obs_tick != obs_clock:
            obstacles = scenario.obstacles_at(obs_tick / scenario.obstacle_rate)
            obs_clock = obs_tick

        kin = KinState.of(model, q, qd)
        if scenario.noise.enabled:
            kin_meas = KinState.of(
                model, q + rng.normal(0.0, scenario.noise.q_std, n),
                qd + rng.normal(0.0, scenario.noise.qd_std, n))
        else:
            kin_meas = kin

        if i % planner_div == 0:
            override = state.reference_override
            if override is not None:
                T_ref = forward_kinematics(model, override)[-1]
            else:
                T_ref = scenario.reference_pose(t) or T_hold
            t0 = time.perf_counter()
            step = planner.plan_step(np.concatenate([kin_meas.q, kin_meas.qd]),
                                     T_ref, obstacles,
                                     posture_target=override)
            solve_times.append(time.perf_counter() - t0)
            sol = step.solution
            solve_iters.append(sol.iterations)
            solve_rows.append([
                _fmt(t), scenario.planner.method, sol.status,
                str(sol.iterations), _fmt(sol.cost), _fmt(sol.max_defect),
                _fmt(sol.min_predicted_distance),
                str(int(step.used_fallback))])
            if step.used_fallback:
                fallbacks += 1
                fallback_run += 1
                if fallback_run > scenario.fallback_budget:
                    abort_reason = (
                        f"planner failed {fallback_run} consecutive cycles "
                        f"at t={t:.3f} s (budget {scenario.fallback_budget})")
                    break
            else:
                fallback_run = 0
                pending = (sol.X.copy(), t, t + scenario.plan_latency)

        if pending is not None and t >= pending[2] - 1e-12:
            plan = (pending[0], pending[1])
            pending = None

        if plan is None:
            q_des, qd_des = scenario.q0, np.zeros(n)
        else:
            q_des, qd_des = _sample_plan(plan[0], plan[1], t, dt_plan, n)

        mode, tau = mode_step(state, model, t, dt, kin_meas, q_des, qd_des,
                              gains)

        if mode is not last_mode:
            timeline.append((t, mode.value))
            last_mode = mode
        if state.contact is not None:
            if episode is None:
                episode = [t, state.contact.link_index,
                           state.contact.link_index]
            else:
                episode[2] = state.contact.link_index
        elif episode is not None:
            detections.append(tuple(episode))
            episode = None

        tau_ext = None
        for ev in scenario.external_torque_events(t):
            p_world = kin.frames[ev.link].apply(ev.point)
            Jc = point_jacobian(model, kin.frames, ev.link, p_world)
            contrib = Jc.T @ ev.force
            tau_ext = contrib if tau_ext is None else tau_ext + contrib

        sweep = closest_pair_per_link(model, q, obstacles, fk=kin.frames)
        dists = _per_link_distances(sweep, n)
        np.minimum(min_per_link, dists, out=min_per_link)
        ee = kin.frames[-1]
        T_ref_log = scenario.reference_pose(t) or T_hold
        err = pose_error_norm(ee, T_ref_log)
        err_sq_sum += err * err
        for t_w, pose in waypoint_at.get(i, ()):
            per_waypoint.append((t_w, pose_error_norm(ee, pose)))

        row = [_fmt(t), mode.value]
        row += [_fmt(v) for v in q]
        row += [_fmt(v) for v in qd]
        row += [_fmt(v) for v in tau]
        row += [_fmt(v) for v in state.r_hat]
        row.append(str(state.contact.link_index if state.contact else -1))
        row += [_fmt(v) for v in dists]
        row += [_fmt(v) for v in ee.translation]
        row += [_fmt(v) for v in T_ref_log.translation]
        row.append(_fmt(err))
        rows.append(row)
        ticks_done = i + 1

        q, qd = rk4_step(model, kin, tau, tau_ext, dt)

    if episode is not None:
        detections.append(tuple(episode))
    wall = time.perf_counter() - wall_start

    log_path = solves_path = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log_path = str(out / "log.csv")
        solves_path = str(out / "solves.csv")
        with open(log_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        with open(solves_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(solve_header)
            w.writerows(solve_rows)

    report = RunReport(
        scenario_name=scenario.name,
        robot=model.name,
        duration=scenario.duration,
        ticks=ticks_done,
        aborted=abort_reason is not None,
        abort_reason=abort_reason,
        min_clearance_per_link=tuple(min_per_link),
        min_clearance=float(min_per_link.min()) if n else np.inf,
        ee_error_rms=float(np.sqrt(err_sq_sum / max(ticks_done, 1))),
        per_waypoint_error=tuple(per_waypoint),
        detections=tuple(detections),
        mode_timeline=tuple(timeline),
        damped_task_ticks=state.damped_task_ticks,
        solves=len(solve_iters),
        fallbacks=fallbacks,
        iterations_mean=float(np.mean(solve_iters)) if solve_iters else 0.0,
        iterations_max=int(np.max(solve_iters)) if solve_iters else 0,
        solve_time_mean=float(np.mean(solve_times)) if solve_times else 0.0,
        solve_time_max=float(np.max(solve_times)) if solve_times else 0.0,
        wall_time=wall,
        planner_method=scenario.planner.method,
        planner_horizon=scenario.planner.horizon,
        log_path=log_path,
        solves_path=solves_path)
    if abort_reason is not None:
        raise SolverAbort(abort_reason, report)
    return report


@dataclass(frozen=True)
class RunComparison:
    """Signed metric deltas between two runs (first minus second)."""

    waypoint_times: tuple
    waypoint_error_delta: tuple
    clearance_delta_per_link: tuple
    min_clearance_delta: float
    ee_error_rms_delta: float
    solve_time_mean_delta: float
    iterations_mean_delta: float


def check_comparable(a, b) -> None:
    """Raise ValueError unless two runs, each given as its (robot, duration,
    waypoint times) triple, share all three."""
    (ra, da, ta), (rb, db, tb) = a, b
    if ra != rb:
        raise ValueError(f"robot mismatch: {ra} vs {rb}")
    if abs(da - db) > 1e-9:
        raise ValueError(f"duration mismatch: {da} vs {db}")
    if len(ta) != len(tb) or any(abs(x - y) > 1e-9 for x, y in zip(ta, tb)):
        raise ValueError(f"waypoint schedules differ: {ta} vs {tb}")


def _reported_waypoints(scenario: Scenario):
    """The reference waypoints a run reports: those up to its last tick."""
    dt = 1.0 / scenario.control_rate
    return [(t, pose) for t, pose in scenario.reference
            if t <= scenario.duration + 0.5 * dt]


def run_schedule(scenario: Scenario):
    """The (robot, duration, waypoint times) triple a run will report."""
    return (scenario.model.name, scenario.duration,
            [t for t, _ in _reported_waypoints(scenario)])


def compare_runs(a: RunReport, b: RunReport) -> RunComparison:
    """Metric deltas ``a - b`` for two runs of the same scenario geometry."""
    ta = [t for t, _ in a.per_waypoint_error]
    tb = [t for t, _ in b.per_waypoint_error]
    check_comparable((a.robot, a.duration, ta), (b.robot, b.duration, tb))
    ea = np.array([e for _, e in a.per_waypoint_error])
    eb = np.array([e for _, e in b.per_waypoint_error])
    ca = np.array(a.min_clearance_per_link)
    cb = np.array(b.min_clearance_per_link)
    if ca.shape != cb.shape:
        raise ValueError("per-link clearance shapes differ")
    # links no obstacle ever approached read inf on both sides; their delta
    # is zero, not nan
    with np.errstate(invalid="ignore"):
        c_delta = np.where(np.isinf(ca) & np.isinf(cb), 0.0, ca - cb)
    m_delta = (0.0 if np.isinf(a.min_clearance) and np.isinf(b.min_clearance)
               else a.min_clearance - b.min_clearance)
    return RunComparison(
        waypoint_times=tuple(ta),
        waypoint_error_delta=tuple(ea - eb),
        clearance_delta_per_link=tuple(c_delta),
        min_clearance_delta=m_delta,
        ee_error_rms_delta=a.ee_error_rms - b.ee_error_rms,
        solve_time_mean_delta=a.solve_time_mean - b.solve_time_mean,
        iterations_mean_delta=a.iterations_mean - b.iterations_mean)
