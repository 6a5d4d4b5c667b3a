"""Solve layer and the stateful receding-horizon planner."""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..model import RobotModel
from ..se3 import Pose
from .config import MpcConfig
from .costs import shooting_defects, stage_cost, terminal_cost
from .qp import feasibility_error, make_feasible, solve_qp
from .transcription import MpcProblem, PlannerInput, transcribe

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MpcSolution:
    X: np.ndarray
    U: np.ndarray
    cost: float
    max_defect: float
    min_predicted_distance: float
    iterations: int
    converged: bool
    status: str


def _linearized_min_distance(problem: MpcProblem, X: np.ndarray) -> float:
    ctx = problem.context
    if not ctx.distance_rows:
        return np.inf
    n = problem.n
    best = np.inf
    for row in ctx.distance_rows:
        for k in range(2, problem.N + 1):
            d = row.distance + float(row.gradient @ (X[k, :n] - ctx.q))
            if d < best:
                best = d
    return best


def _evaluate(problem: MpcProblem, z: np.ndarray, iterations: int,
              status: str, cfg: MpcConfig) -> MpcSolution:
    X, U = problem.split(z)
    ctx = problem.context
    cost = sum(stage_cost(X[k], U[k], ctx) for k in range(problem.N))
    cost += terminal_cost(X[problem.N], ctx)
    defects = shooting_defects(X, U, problem.dt)
    max_defect = max((float(np.abs(d).max()) for d in defects), default=0.0)
    min_pred = _linearized_min_distance(problem, X)
    _, in_viol = feasibility_error(problem.A_eq, problem.b_eq,
                                   problem.A_in, problem.b_in, z)
    converged = (status == "optimal"
                 and max_defect <= cfg.defect_tol
                 and in_viol <= cfg.constraint_tol
                 and min_pred >= cfg.d_th1 - cfg.constraint_tol)
    return MpcSolution(X=X, U=U, cost=float(cost), max_defect=max_defect,
                       min_predicted_distance=float(min_pred),
                       iterations=iterations, converged=converged,
                       status=status)


def solve(problem: MpcProblem, cfg: MpcConfig) -> MpcSolution:
    """Solve the transcribed QP; returns the best iterate even on failure.

    Status 'infeasible' means no point satisfying all hard constraints was
    found (the caller should fall back to its previous plan).
    """
    z0 = problem.z0
    if not problem.z0_feasible:
        repaired = make_feasible(problem.A_eq, problem.b_eq, problem.A_in,
                                 problem.b_in, z0, problem.slack_rows)
        if repaired is None:
            log.warning("QP infeasible (%d distance rows); signalling fallback",
                        problem.n_distance_rows)
            return _evaluate(problem, z0, 0, "infeasible", cfg)
        z0 = repaired
    res = solve_qp(problem.H, problem.g, problem.A_eq, problem.b_eq,
                   problem.A_in, problem.b_in, z0,
                   max_iters=cfg.max_iters, tol=cfg.kkt_tol)
    return _evaluate(problem, res.z, res.iterations, res.status, cfg)


@dataclass(frozen=True)
class PlanStep:
    q_des: np.ndarray
    qd_des: np.ndarray
    solution: MpcSolution
    used_fallback: bool


class Planner:
    """Stateful receding-horizon planner: warm starts from the previous
    solution and shifts it forward when a solve must be skipped."""

    def __init__(self, model: RobotModel, cfg: MpcConfig):
        self.model = model
        self.cfg = cfg
        self._last: Optional[MpcSolution] = None
        self._cursor = 0  # how far the stored plan has been consumed

    def plan_step(self, x0, T_ref: Pose, obstacles=(),
                  posture_target=None) -> PlanStep:
        inp = PlannerInput(x0=x0, T_ref=T_ref, obstacles=tuple(obstacles),
                           warm_start=self._last,
                           posture_target=posture_target)
        problem = transcribe(inp, self.cfg, self.model)
        sol = solve(problem, self.cfg)
        n = self.model.n
        if sol.status != "infeasible":
            self._last = sol
            self._cursor = 0
            x_next = sol.X[1]
            return PlanStep(q_des=x_next[:n], qd_des=x_next[n:],
                            solution=sol, used_fallback=False)
        if self._last is not None:
            # reuse the previous plan shifted one node further per miss
            self._cursor += 1
            idx = min(1 + self._cursor, self._last.X.shape[0] - 1)
            x_next = self._last.X[idx]
            return PlanStep(q_des=x_next[:n], qd_des=x_next[n:],
                            solution=sol, used_fallback=True)
        x0c = problem.x0
        return PlanStep(q_des=x0c[:n].copy(), qd_des=np.zeros(n),
                        solution=sol, used_fallback=True)

