"""Solve layer and the stateful receding-horizon planner.

Status ``infeasible`` is exact: the dual active-set solver proves that no
point meets every hard row of the QP.  Only ``optimal`` plans are executed;
``infeasible``, ``max_iters`` (a dual iterate that still violates rows) and
``singular`` take the fallback path.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..model import RobotModel
from ..se3 import Pose
from .config import MpcConfig
from .qp import feasibility_error, solve_qp
from .transcription import MpcProblem, PlannerInput, transcribe

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MpcSolution:
    """A plan read off the QP it solved: ``cost`` = 0.5 z'Hz + g'z + c,
    ``max_defect`` the equality residual (the largest shooting defect),
    ``min_predicted_distance`` d_th1 plus the least distance-row slack (the
    least linearized clearance of nodes 2..N; inf without distance rows)."""

    X: np.ndarray
    U: np.ndarray
    cost: float
    max_defect: float
    min_predicted_distance: float
    iterations: int
    converged: bool
    status: str


def _evaluate(problem: MpcProblem, z: np.ndarray, iterations: int,
              status: str, cfg: MpcConfig) -> MpcSolution:
    X, U = problem.split(z)
    cost = 0.5 * z @ (problem.H @ z) + problem.g @ z + problem.cost_offset
    max_defect, in_viol = feasibility_error(problem.A_eq, problem.b_eq,
                                            problem.A_in, problem.b_in, z)
    m = problem.n_distance_rows  # the distance rows come last
    min_pred = (cfg.d_th1 + float((problem.A_in[-m:] @ z - problem.b_in[-m:]).min())
                if m else np.inf)
    converged = (status == "optimal"
                 and max_defect <= cfg.defect_tol
                 and in_viol <= cfg.constraint_tol)
    return MpcSolution(X=X, U=U, cost=float(cost), max_defect=max_defect,
                       min_predicted_distance=min_pred,
                       iterations=iterations, converged=converged,
                       status=status)


def solve(problem: MpcProblem, cfg: MpcConfig) -> MpcSolution:
    """Solve the transcribed QP; returns the last iterate even on failure.

    Status 'infeasible' means no point meets every hard row (the caller
    should fall back to its previous plan).
    """
    res = solve_qp(problem.H, problem.g, problem.A_eq, problem.b_eq,
                   problem.A_in, problem.b_in,
                   max_iters=cfg.max_iters, tol=cfg.kkt_tol)
    if res.status == "infeasible":
        log.warning("QP infeasible (%d distance rows); signalling fallback",
                    problem.n_distance_rows)
    return _evaluate(problem, res.z, res.iterations, res.status, cfg)


@dataclass(frozen=True)
class PlanStep:
    q_des: np.ndarray
    qd_des: np.ndarray
    solution: MpcSolution
    used_fallback: bool


class Planner:
    """Stateful receding-horizon planner: executes each ``optimal`` plan and,
    when a solve ends otherwise, the previous plan shifted one node further
    per miss (or a hold at the measured position when there is none)."""

    def __init__(self, model: RobotModel, cfg: MpcConfig):
        self.model = model
        self.cfg = cfg
        self._last: Optional[MpcSolution] = None
        self._cursor = 0  # how far the stored plan has been consumed

    def plan_step(self, x0, T_ref: Pose, obstacles=(),
                  posture_target=None) -> PlanStep:
        inp = PlannerInput(x0=x0, T_ref=T_ref, obstacles=tuple(obstacles),
                           posture_target=posture_target)
        problem = transcribe(inp, self.cfg, self.model)
        sol = solve(problem, self.cfg)
        n = self.model.n
        if sol.status == "optimal":
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

