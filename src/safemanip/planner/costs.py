"""Measurement-frozen data of the receding-horizon cost.

``build_context`` freezes everything nonlinear (pose error, Jacobians,
distances) at the measurement, so with J and q fixed stage k costs::

    |V_ref - J (q_k - q)|^2_W_stage + sum_t |N_t (qd_k - t)|^2_Q_rep
    + |N_t (qd_k - qd_return)|^2_Q_return + |qd_k|^2_Q_s + |u_k|^2_R

over the repulsion targets t (the return term only with a posture target),
and node N costs |V_ref - J (q_N - q)|^2_W_terminal + |qd_N|^2_Q_s_terminal.
Every term is an exact quadratic, so ``transcription._cost`` writes the sum
as 0.5 z'Hz + g'z + c and the transcribed problem is a convex QP.
"""

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..geometry import (
    DistanceResult,
    GradientUndefinedError,
    closest_pair_per_link,
    distance_gradient,
)
from ..model import (
    RobotModel,
    body_jacobian,
    forward_kinematics,
    point_jacobian,
    robust_null_projector,
    robust_pinv,
)
from ..se3 import Pose, pose_diff

log = logging.getLogger(__name__)


def relaxation_factor(d: float, cfg) -> float:
    """Goal relaxation in (0, 1]: softens the task weight as the closest
    obstacle approaches, 1 outside the repulsive band."""
    if d >= cfg.d_th2:
        return 1.0
    return float(np.exp(-cfg.alpha * (cfg.d_th2 - d) / (cfg.d_th2 - cfg.d_th1)))


def repulsive_velocity(result: DistanceResult, cfg) -> np.ndarray:
    """Escape velocity along the witness normal, growing linearly inside the
    repulsive band and saturating at the uninvadable boundary."""
    d = result.distance
    if d >= cfg.d_th2:
        return np.zeros(3)
    return result.normal * (cfg.k_rep * (cfg.d_th2 - max(d, cfg.d_th1)))


@dataclass(frozen=True)
class RepulsionTerm:
    """Frozen data of one active repulsive pair."""

    qd_target: np.ndarray  # joint velocity that tracks v+ at the witness
    distance: float
    body_index: int
    obstacle_index: int


@dataclass(frozen=True)
class DistanceRow:
    """Frozen linearization d(q) ~= d_meas + grad (q - q_meas) of one pair."""

    gradient: np.ndarray
    distance: float
    body_index: int
    obstacle_index: int


@dataclass(frozen=True)
class PlannerContext:
    """Measurement-frozen quantities shared by every node of one solve."""

    q: np.ndarray
    qd: np.ndarray
    J_task: np.ndarray
    V_ref: np.ndarray
    N_t: np.ndarray
    lam: float
    d_min: float
    W_stage: np.ndarray      # 6-vector diagonal lam * S * Q_ee
    W_terminal: np.ndarray   # 6-vector diagonal lam * S * Q_ee_f
    Q_rep: np.ndarray
    Q_s: np.ndarray
    Q_s_terminal: np.ndarray
    R: np.ndarray
    repulsions: tuple = ()
    distance_rows: tuple = ()
    qd_return: Optional[np.ndarray] = None
    Q_return: Optional[np.ndarray] = None


def _repulsion_target(model: RobotModel, frames, qd, result: DistanceResult,
                      cfg) -> np.ndarray:
    J_w = point_jacobian(model, frames, result.link, result.p_robot)
    v_now = J_w @ qd
    v_plus = v_now + repulsive_velocity(result, cfg)
    return robust_pinv(J_w) @ v_plus


def build_context(model: RobotModel, q, qd, T_ref: Pose,
                  obstacles: Sequence, cfg,
                  posture_target=None) -> PlannerContext:
    """Evaluate all measurement-frozen quantities for one planning cycle.

    When a posture target is given, a null-space velocity toward it is
    penalized alongside the task so the whole configuration, not just the
    end effector, converges to that posture.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    qd = np.asarray(qd, dtype=float).reshape(-1)
    fk = forward_kinematics(model, q)
    J_task = body_jacobian(model, fk)
    V_ref = pose_diff(fk[-1], T_ref)
    N_t = robust_null_projector(J_task)

    sweep = closest_pair_per_link(model, q, obstacles, fk=fk)
    d_min = sweep.min_distance

    repulsions = []
    rows = []
    for res in sweep.results:
        if res.distance < cfg.activation_radius:
            try:
                grad = distance_gradient(model, fk, res)
            except GradientUndefinedError:
                log.warning("distance gradient undefined for body %d / obstacle %d "
                            "(d=%.4f); hard row skipped this cycle",
                            res.body_index, res.obstacle_index, res.distance)
            else:
                rows.append(DistanceRow(gradient=grad, distance=res.distance,
                                        body_index=res.body_index,
                                        obstacle_index=res.obstacle_index))
        if cfg.task_oriented and res.distance < cfg.d_th2:
            repulsions.append(RepulsionTerm(
                qd_target=_repulsion_target(model, fk, qd, res, cfg),
                distance=res.distance,
                body_index=res.body_index,
                obstacle_index=res.obstacle_index))

    qd_return = None
    Q_return = None
    if posture_target is not None and cfg.q_return > 0.0:
        target = np.asarray(posture_target, dtype=float).reshape(-1)
        v_cap = 0.5 * model.limits.velocity
        qd_return = np.clip(cfg.k_return * (target - q), -v_cap, v_cap)
        Q_return = np.full(model.n, cfg.q_return)

    lam = relaxation_factor(d_min, cfg) if cfg.task_oriented else 1.0
    S = cfg.task_selection
    q_rep, q_s, r = cfg.stage_weights(model.n)
    return PlannerContext(
        q=q, qd=qd, J_task=J_task, V_ref=V_ref, N_t=N_t,
        lam=lam, d_min=d_min,
        W_stage=lam * S * cfg.q_ee,
        W_terminal=lam * S * cfg.q_ee_terminal,
        Q_rep=q_rep, Q_s=q_s, Q_s_terminal=np.full(model.n, cfg.q_s_terminal),
        R=r, repulsions=tuple(repulsions), distance_rows=tuple(rows),
        qd_return=qd_return, Q_return=Q_return)
