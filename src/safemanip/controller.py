"""Cascaded 1 kHz torque control with proprioceptive contact handling.

Free-space motion uses a computed-torque law on the planner's desired joint
trajectory.  In parallel an ultra-local disturbance estimator filters the
generalized momentum to recover the external joint torque without force
sensing.  When the estimate crosses a threshold the controller identifies the
pushed link, holds the end-effector task with an operational-space law, and
actively yields along the estimated contact direction inside the task null
space.  ``isolate_contact`` is the one isolation rule: it names the link on
detection and re-isolates on every contact-safe tick.  A small mode machine
sequences detection, reaction, the guided return to the pre-contact
configuration, and the resumption of tracking.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .dynamics import (
    KinState,
    jacobian_dot_qd,
    mass_matrix,  # noqa: F401  unused; perfbench/test_perfbench.py looks it up here
    mdot_qd,
    task_dynamics_from_jacobian,
)
from .model import (
    RobotModel,
    body_jacobian,
    forward_kinematics,
    point_jacobian,
    robust_pinv,
)
from .se3 import Pose, pose_diff

log = logging.getLogger(__name__)

_DIRECTION_EPS = 1e-6


class Mode(Enum):
    TRACKING = "TRACKING"
    CONTACT_SAFE = "CONTACT_SAFE"
    RETURNING = "RETURNING"
    RESUME_CHECK = "RESUME_CHECK"


def _diag(value, size) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(size, float(arr))
    arr = arr.reshape(-1)
    if arr.size != size:
        raise ValueError(f"gain needs {size} diagonal entries, got {arr.size}")
    if np.any(arr < 0.0):
        raise ValueError("gain entries must be nonnegative")
    return arr


@dataclass(frozen=True)
class GainSet:
    """Diagonal control gains, stored as the diagonals.

    kp1/kd1 drive the model-based inner loop, kp2/kd2 the torque-level outer
    loop (both joint space, length n).  kp3/kd3 act on the 6-D task error
    during contact reactions.
    """

    kp1: np.ndarray
    kd1: np.ndarray
    kp2: np.ndarray
    kd2: np.ndarray
    kp3: np.ndarray
    kd3: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.kp1).size
        object.__setattr__(self, "kp1", _diag(self.kp1, n))
        object.__setattr__(self, "kd1", _diag(self.kd1, n))
        object.__setattr__(self, "kp2", _diag(self.kp2, n))
        object.__setattr__(self, "kd2", _diag(self.kd2, n))
        object.__setattr__(self, "kp3", _diag(self.kp3, 6))
        object.__setattr__(self, "kd3", _diag(self.kd3, 6))

    @classmethod
    def default(cls, n: int) -> "GainSet":
        return cls(kp1=np.full(n, 200.0), kd1=np.full(n, 10.0),
                   kp2=np.full(n, 10.0), kd2=np.full(n, 2.0),
                   kp3=np.full(6, 500.0), kd3=np.full(6, 100.0))


@dataclass
class UsdeState:
    """First-order filter bank of the momentum-based disturbance estimator."""

    k: float = 0.2
    P_f: Optional[np.ndarray] = None
    H_f: Optional[np.ndarray] = None
    tau_f: Optional[np.ndarray] = None
    initialized: bool = False

    def __post_init__(self):
        if self.k <= 0.0:
            raise ValueError(f"filter coefficient must be positive, got {self.k}")


@dataclass(frozen=True)
class ContactInfo:
    """Identified contact: pushed link, push direction, reduced Jacobian."""

    link_index: int
    n_c: np.ndarray
    J_tilde: np.ndarray  # maps qd to the scalar velocity along n_c
    detected_at: float


@dataclass(frozen=True)
class ReactionParams:
    """Thresholds of the contact strategy.  None of these follow from the
    control laws themselves, so they are all exposed in scenario config."""

    tau_th: float = 3.0
    k_f: float = 1.0
    release_fraction: float = 0.5
    release_dwell: float = 0.1
    resume_tol: float = 0.05
    confirm_dwell: float = 0.05
    k_null: float = 40.0
    d_null: float = 12.0

    def __post_init__(self):
        if self.tau_th <= 0.0:
            raise ValueError("tau_th must be positive")
        if not 0.0 < self.release_fraction < 1.0:
            raise ValueError("release_fraction must be in (0, 1)")
        for name in ("release_dwell", "resume_tol", "confirm_dwell",
                     "k_null", "d_null"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class ControllerState:
    """Single-owner controller state, mutated only by the control tick."""

    usde: UsdeState
    params: ReactionParams
    mode: Mode = Mode.TRACKING
    contact: Optional[ContactInfo] = None
    q_pre_contact: Optional[np.ndarray] = None
    T_pre: Optional[Pose] = None
    V_pre: Optional[np.ndarray] = None
    f_des: float = 0.0
    r_hat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    last_tau: Optional[np.ndarray] = None
    # ticks on which the contact-safe law damped a near-singular task inertia
    damped_task_ticks: int = 0
    _release_timer: float = 0.0
    _confirm_timer: float = 0.0

    @classmethod
    def create(cls, n: int, params: Optional[ReactionParams] = None,
               usde_k: float = 0.2) -> "ControllerState":
        return cls(usde=UsdeState(k=usde_k),
                   params=params if params is not None else ReactionParams(),
                   r_hat=np.zeros(n))

    @property
    def reference_override(self) -> Optional[np.ndarray]:
        """Joint configuration the planner should steer to instead of the
        task reference while a contact episode is being handled."""
        if self.mode is Mode.TRACKING:
            return None
        return self.q_pre_contact


def tracking_torque(kin: KinState, q_des, qd_des, gains: GainSet) -> np.ndarray:
    """Computed-torque cascade: model-based inner loop plus a PD outer loop.

    At rest with q_des = q this reduces to pure gravity compensation.
    """
    e = np.asarray(q_des, dtype=float).reshape(-1) - kin.q
    ed = np.asarray(qd_des, dtype=float).reshape(-1) - kin.qd
    tau_ff = kin.M @ (gains.kp1 * e + gains.kd1 * ed) + kin.bias
    return tau_ff + gains.kp2 * e + gains.kd2 * ed


def usde_update(state: UsdeState, model: RobotModel, kin: KinState, tau_cmd,
                dt: float) -> np.ndarray:
    """Advance the disturbance filters one tick and return the estimate.

    ``tau_cmd`` is the torque commanded on the previous tick.  Filters the
    generalized momentum P = M qd, the drift H = -C' qd + g and the command,
    each by one explicit-Euler step of ydot_f = (y - y_f) / k; the estimate
    r_hat = (P - P_f) / k + H_f - tau_f then behaves as a first-order lag of
    the true external torque.  The first call only seeds the filters, so the
    estimate starts at zero.

    The drift is evaluated as bias - Mdot qd, which equals -C' qd + g since
    Mdot = C + C'.  The bias comes with ``kin`` and ``mdot_qd`` is one exact
    pass over its frames, so the estimate needs no forward kinematics and
    no Coriolis matrix of its own.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    tau_cmd = np.asarray(tau_cmd, dtype=float).reshape(-1)
    P = kin.M @ kin.qd
    H = kin.bias - mdot_qd(model, kin.frames, kin.qd)
    if not state.initialized:
        state.P_f = P.copy()
        state.H_f = H.copy()
        state.tau_f = tau_cmd.copy()
        state.initialized = True
        return np.zeros_like(kin.q)
    a = dt / state.k
    state.P_f = state.P_f + a * (P - state.P_f)
    state.H_f = state.H_f + a * (H - state.H_f)
    state.tau_f = state.tau_f + a * (tau_cmd - state.tau_f)
    return (P - state.P_f) / state.k + state.H_f - state.tau_f


def contact_direction(model: RobotModel, kin: KinState, link: int, r_hat):
    """Contact direction ``n_c``, scalar Jacobian ``n_c' J_c`` and force norm.

    The torque estimate is mapped to a force at the distal end of ``link``:
    the exact contact point along the link is unobservable, so the lever arm
    is taken at the link's far end.  ``n_c`` and ``J_tilde`` are None when
    that force is negligible, leaving the direction undefined.
    """
    p_distal = kin.frames.t[link + 1]
    J_c = point_jacobian(model, kin.frames, link, p_distal)
    f = robust_pinv(J_c).T @ np.asarray(r_hat, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(f))
    if norm <= _DIRECTION_EPS:
        return None, None, norm
    n_c = f / norm
    return n_c, n_c @ J_c, norm


def isolate_contact(model: RobotModel, kin: KinState, r_hat, tau_th: float,
                    t: float, current: Optional[ContactInfo]):
    """The one isolation rule: ``(ContactInfo or None, force norm)``.

    A push on link j loads joints 1..j, so the most distal joint whose
    estimate exceeds ``tau_th`` names the contacted link.  The strongest
    joint crosses first, which may be proximal to the true contact, so
    during an episode (``current`` is the ongoing contact) the link only
    moves outward.  An outward candidate without a direction keeps
    ``current``'s link, and ``current`` is kept whole if that has none
    either.  A fresh detection without a direction is declined (logged).
    """
    over = np.nonzero(np.abs(r_hat) > tau_th)[0]
    if current is None:
        if over.size == 0:
            return None, 0.0
        link = int(over[-1])
        n_c, J_tilde, norm = contact_direction(model, kin, link, r_hat)
        if n_c is None:
            log.warning("contact direction degenerate on link %d, ignoring",
                        link)
            return None, norm
        return ContactInfo(link, n_c, J_tilde, t), norm
    link = current.link_index
    if over.size and int(over[-1]) > link:
        link = int(over[-1])
    n_c, J_tilde, norm = contact_direction(model, kin, link, r_hat)
    if n_c is None and link != current.link_index:
        link = current.link_index
        n_c, J_tilde, norm = contact_direction(model, kin, link, r_hat)
    if n_c is None:
        return current, norm
    return ContactInfo(link, n_c, J_tilde, current.detected_at), norm


def contact_safe_torque(model: RobotModel, kin: KinState, T_des: Pose, V_des,
                        contact: ContactInfo, r_hat, gains: GainSet,
                        f_des: float, q_rest=None, k_null: float = 0.0,
                        d_null: float = 0.0) -> Tuple[np.ndarray, bool]:
    """Hold the latched task while yielding along the contact direction.

    Operational-space impedance on the end-effector with the estimated
    external torque compensated, plus a reaction force setpoint on the pushed
    link routed through the dynamically consistent null-space projector so it
    produces no end-effector acceleration.  The optional null-space spring
    toward ``q_rest`` and damper bound the yield: without them a sustained
    push meets no resistance in the null space and winds the joints up
    without limit.

    Returns the torque and whether the task inertia had to be damped
    because the task Jacobian is near singular (every tick on a chain that
    cannot span the 6-D task).
    """
    q, qd = kin.q, kin.qd
    J = body_jacobian(model, kin.frames)
    Jd_qd = jacobian_dot_qd(model, kin.frames, qd)
    td, damped = task_dynamics_from_jacobian(kin, J, Jd_qd)
    e_pose = pose_diff(kin.frames[-1], T_des)
    V = J @ qd
    V_des = np.asarray(V_des, dtype=float).reshape(-1)
    r_hat = np.asarray(r_hat, dtype=float).reshape(-1)
    F_ff = td.Lam @ (gains.kp3 * e_pose + gains.kd3 * (V_des - V)) \
        + td.eta - td.Jbar.T @ r_hat
    N_t = np.eye(model.n) - J.T @ td.Jbar.T
    tau_null = contact.J_tilde * f_des - d_null * qd
    if q_rest is not None:
        tau_null = tau_null + k_null * (np.asarray(q_rest, dtype=float) - q)
    return J.T @ F_ff + N_t @ tau_null, damped


def _latch_task(model: RobotModel, q_des, qd_des):
    """Desired end-effector pose and twist at a desired joint state."""
    frames = forward_kinematics(model, q_des)
    V = body_jacobian(model, frames) @ np.asarray(qd_des, dtype=float)
    return frames[-1], V


def mode_step(state: ControllerState, model: RobotModel, t: float, dt: float,
              kin: KinState, q_des, qd_des, gains: GainSet):
    """One control tick: update the estimate, run the mode machine, return
    ``(mode, tau)``.

    ``q_des, qd_des`` come from the planner snapshot.  During a contact
    episode the caller is expected to steer the planner back to the latched
    configuration via :attr:`ControllerState.reference_override`, so the
    tracking law in RETURNING follows the recovery path like any other plan.
    """
    q = kin.q
    if state.last_tau is None:
        # the estimator filters must be seeded with the torque actually going
        # out, otherwise the seed mismatch reads as a phantom contact
        tau = tracking_torque(kin, q_des, qd_des, gains)
        usde_update(state.usde, model, kin, tau, dt)
        state.r_hat = np.zeros(model.n)
        state.last_tau = tau
        return state.mode, tau
    r_hat = usde_update(state.usde, model, kin, state.last_tau, dt)
    state.r_hat = r_hat
    p = state.params

    info, norm = isolate_contact(model, kin, r_hat, p.tau_th, t,
                                 state.contact)
    if info is not None and state.mode is not Mode.CONTACT_SAFE:
        if state.mode is Mode.TRACKING:
            # latch the return target and held task once per episode
            state.q_pre_contact = q.copy()
            state.T_pre, state.V_pre = _latch_task(model, q_des, qd_des)
        state.mode = Mode.CONTACT_SAFE
        state._release_timer = 0.0
        log.info("contact on link %d at t=%.3f (max |r|=%.2f N m)",
                 info.link_index, t, np.abs(r_hat).max())

    if state.mode is Mode.CONTACT_SAFE:
        state.contact = info
        state.f_des = p.k_f * norm
        tau, damped = contact_safe_torque(
            model, kin, state.T_pre, state.V_pre, state.contact, r_hat, gains,
            state.f_des, q_rest=state.q_pre_contact, k_null=p.k_null,
            d_null=p.d_null)
        if damped:
            if state.damped_task_ticks == 0:
                log.warning("task Jacobian near singular at t=%.3f, damping "
                            "the contact-safe law", t)
            state.damped_task_ticks += 1
        if np.abs(r_hat).max() < p.release_fraction * p.tau_th:
            state._release_timer += dt
        else:
            state._release_timer = 0.0
        if state._release_timer >= p.release_dwell:
            state.mode = Mode.RETURNING
            state.contact = None
            state.f_des = 0.0
            log.info("contact released at t=%.3f, returning", t)
        state.last_tau = tau
        return state.mode, tau

    if state.mode is Mode.RETURNING:
        if np.abs(q - state.q_pre_contact).max() < p.resume_tol:
            state.mode = Mode.RESUME_CHECK
            state._confirm_timer = 0.0

    if state.mode is Mode.RESUME_CHECK:
        state._confirm_timer += dt
        if state._confirm_timer >= p.confirm_dwell:
            state.mode = Mode.TRACKING
            state.q_pre_contact = None
            state.T_pre = None
            state.V_pre = None
            log.info("manipulation resumed at t=%.3f", t)

    tau = tracking_torque(kin, q_des, qd_des, gains)
    state.last_tau = tau
    return state.mode, tau
