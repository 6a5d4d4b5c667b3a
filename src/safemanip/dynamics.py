"""Joint- and task-space dynamics of serial chains.

``mass_matrix`` assembles M(q) by composite-rigid-body accumulation in world
coordinates; ``inverse_dynamics`` is a world-frame recursive Newton-Euler pass
(gravity enters through a fictitious base acceleration).  The Christoffel-form
Coriolis matrix is built from central differences of M, which keeps the
``Mdot = C + C^T`` identity to finite-difference accuracy; it is the oracle of
the tests.  The 1 kHz estimator path evaluates the momentum drift
``-C^T qd + g`` as ``bias - mdot_qd`` instead.

Per-state convention: ``mass_matrix``, ``inverse_dynamics``, ``bias_forces``
and ``gravity_torque`` take the ``frames`` of
:func:`safemanip.model.forward_kinematics` as a required argument.
:class:`KinState` is the one object computed per state (q, qd): its frames, M
and bias come from one forward-kinematics pass and one call each of the
public ``mass_matrix`` and ``bias_forces``.  ``sim.run`` builds it once per
tick for the true state (and once more for the measured state when sensor
noise is on); the controller laws, ``task_dynamics_from_jacobian``,
``forward_dynamics`` and the first RK4 stage read it, the later RK4 stages
build their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RankDeficiencyError, RobotModel, body_jacobian, forward_kinematics
from .se3 import hat

_FD_STEP = 1e-6


@dataclass(frozen=True)
class TaskDynamicsTerms:
    """Task-space inertia and bias: ``Lambda vdot + eta = wrench``.

    ``Jbar`` is the dynamically consistent generalized inverse
    ``M^-1 J' Lambda``; torques of the form ``(I - J' Jbar') tau`` produce no
    task acceleration.
    """

    Lam: np.ndarray
    eta: np.ndarray
    Jbar: np.ndarray


def _world_com_data(model: RobotModel, frames):
    """World COM positions, rotated inertia tensors and masses, stacked."""
    n = model.n
    coms = np.empty((n, 3))
    inertias = np.empty((n, 3, 3))
    masses = np.empty(n)
    for i, link in enumerate(model.links):
        R = frames[i].rotation
        coms[i] = frames[i].apply(link.com)
        inertias[i] = R @ link.inertia @ R.T
        masses[i] = link.mass
    return coms, inertias, masses


def mass_matrix(model: RobotModel, frames) -> np.ndarray:
    """n x n joint-space inertia matrix via composite rigid bodies."""
    n = model.n
    coms, inertias, masses = _world_com_data(model, frames)

    # spatial inertia of each link about the world origin (angular-first)
    Io = np.zeros((n, 6, 6))
    for i in range(n):
        chat = hat(coms[i])
        m = masses[i]
        Io[i, :3, :3] = inertias[i] - m * (chat @ chat)
        Io[i, :3, 3:] = m * chat
        Io[i, 3:, :3] = -m * chat
        Io[i, 3:, 3:] = m * np.eye(3)
    # composite inertia of the subtree rooted at each joint
    Ic = np.cumsum(Io[::-1], axis=0)[::-1]

    S = np.empty((n, 6))
    for j in range(n):
        a = frames[j].rotation @ model.joints[j].axis
        S[j, :3] = a
        S[j, 3:] = np.cross(frames[j].translation, a)

    M = np.zeros((n, n))
    for j in range(n):
        y = Ic[j] @ S[j]
        M[: j + 1, j] = S[: j + 1] @ y
        M[j, : j + 1] = M[: j + 1, j]
    return M


def inverse_dynamics(model: RobotModel, frames, qd, qdd) -> np.ndarray:
    """Joint torques realizing ``qdd`` at state (q, qd):  M qdd + C qd + g."""
    qd = np.asarray(qd, dtype=float).reshape(-1)
    qdd = np.asarray(qdd, dtype=float).reshape(-1)
    n = model.n
    coms, inertias, masses = _world_com_data(model, frames)
    axes = np.stack([frames[i].rotation @ model.joints[i].axis for i in range(n)])
    origins = np.stack([frames[i].translation for i in range(n)])

    omega = np.zeros((n, 3))
    alpha = np.zeros((n, 3))
    a_origin = np.zeros((n, 3))
    ac = np.zeros((n, 3))

    w_prev = np.zeros(3)
    al_prev = np.zeros(3)
    ao_prev = -model.gravity
    o_prev = np.zeros(3)
    for i in range(n):
        r = origins[i] - o_prev
        ao = ao_prev + np.cross(al_prev, r) + np.cross(w_prev, np.cross(w_prev, r))
        w = w_prev + axes[i] * qd[i]
        al = al_prev + axes[i] * qdd[i] + np.cross(w_prev, axes[i] * qd[i])
        rc = coms[i] - origins[i]
        ac[i] = ao + np.cross(al, rc) + np.cross(w, np.cross(w, rc))
        omega[i], alpha[i], a_origin[i] = w, al, ao
        w_prev, al_prev, ao_prev, o_prev = w, al, ao, origins[i]

    tau = np.zeros(n)
    f_child = np.zeros(3)
    n_child = np.zeros(3)  # moment about the child joint origin
    o_child = np.zeros(3)
    for i in range(n - 1, -1, -1):
        F = masses[i] * ac[i]
        N = inertias[i] @ alpha[i] + np.cross(omega[i], inertias[i] @ omega[i])
        f = F + f_child
        mom = N + np.cross(coms[i] - origins[i], F)
        if i < n - 1:
            mom += n_child + np.cross(o_child - origins[i], f_child)
        tau[i] = axes[i] @ mom
        f_child, n_child, o_child = f, mom, origins[i]
    return tau


def gravity_torque(model: RobotModel, frames) -> np.ndarray:
    z = np.zeros(model.n)
    return inverse_dynamics(model, frames, z, z)


def bias_forces(model: RobotModel, frames, qd) -> np.ndarray:
    """Velocity-and-gravity bias ``C(q, qd) qd + g(q)``."""
    return inverse_dynamics(model, frames, qd, np.zeros(model.n))


@dataclass(frozen=True)
class KinState:
    """Kinematics and dynamics of one state (q, qd), computed once.

    ``frames`` are the link and end-effector poses, ``M`` the joint-space
    inertia and ``bias`` the term ``C(q, qd) qd + g(q)``.
    """

    q: np.ndarray
    qd: np.ndarray
    frames: list
    M: np.ndarray
    bias: np.ndarray

    @classmethod
    def of(cls, model: RobotModel, q, qd) -> "KinState":
        q = np.asarray(q, dtype=float).reshape(-1)
        qd = np.asarray(qd, dtype=float).reshape(-1)
        frames = forward_kinematics(model, q)
        return cls(q=q, qd=qd, frames=frames, M=mass_matrix(model, frames),
                   bias=bias_forces(model, frames, qd))


def _mass_matrix_gradient(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """dM[k] = dM/dq_k by central differences."""
    q = np.asarray(q, dtype=float).reshape(-1)
    n = model.n
    dM = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = _FD_STEP
        dM[k] = (mass_matrix(model, forward_kinematics(model, q + e))
                 - mass_matrix(model, forward_kinematics(model, q - e))) / (2 * _FD_STEP)
    return dM


def coriolis_matrix(model: RobotModel, q, qd) -> np.ndarray:
    """Christoffel-form C(q, qd) with C qd equal to the RNEA velocity bias and
    (Mdot - 2C) skew-symmetric."""
    qd = np.asarray(qd, dtype=float).reshape(-1)
    dM = _mass_matrix_gradient(model, q)
    mdot = np.einsum("kij,k->ij", dM, qd)
    t2 = np.einsum("jik,k->ij", dM, qd)
    t3 = np.einsum("ijk,k->ij", dM, qd)
    return 0.5 * (mdot + t2 - t3)


def mdot_qd(model: RobotModel, q, qd) -> np.ndarray:
    """Directional derivative ``Mdot qd`` along the current motion (two mass
    matrix evaluations instead of 2n)."""
    q = np.asarray(q, dtype=float).reshape(-1)
    qd = np.asarray(qd, dtype=float).reshape(-1)
    scale = max(1.0, float(np.linalg.norm(qd)))
    hh = _FD_STEP / scale
    dM = (mass_matrix(model, forward_kinematics(model, q + hh * qd))
          - mass_matrix(model, forward_kinematics(model, q - hh * qd))) / (2 * hh)
    return dM @ qd


def jacobian_dot_qd(model: RobotModel, q, qd) -> np.ndarray:
    """``Jdot qd`` of the body Jacobian by central differences along the
    motion."""
    q = np.asarray(q, dtype=float).reshape(-1)
    qd = np.asarray(qd, dtype=float).reshape(-1)
    scale = max(1.0, float(np.linalg.norm(qd)))
    hh = _FD_STEP / scale
    dJ = (body_jacobian(model, forward_kinematics(model, q + hh * qd))
          - body_jacobian(model, forward_kinematics(model, q - hh * qd))) / (2 * hh)
    return dJ @ qd


_TASK_COND_LIMIT = 1e12


def task_dynamics_from_jacobian(kin: KinState, J, Jdot_qd,
                                damping: float = 0.0) -> TaskDynamicsTerms:
    """Operational-space terms for an arbitrary task Jacobian.

    ``Lambda = (J M^-1 J')^-1`` (regularized by ``damping^2 I`` on request),
    ``Jbar = M^-1 J' Lambda``, ``eta = Jbar'(C qd + g) - Lambda Jdot qd``.
    Raises :class:`RankDeficiencyError` when the apparent inertia is singular
    and no damping was given.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    MinvJT = np.linalg.solve(kin.M, J.T)
    A = J @ MinvJT
    m = A.shape[0]
    if damping > 0.0:
        Lam = np.linalg.inv(A + damping ** 2 * np.eye(m))
    else:
        if np.linalg.cond(A) > _TASK_COND_LIMIT:
            raise RankDeficiencyError(
                "apparent task inertia is singular; pass damping > 0")
        Lam = np.linalg.inv(A)
    Lam = 0.5 * (Lam + Lam.T)
    Jbar = MinvJT @ Lam
    eta = Jbar.T @ kin.bias - Lam @ np.asarray(Jdot_qd, dtype=float).reshape(-1)
    return TaskDynamicsTerms(Lam=Lam, eta=eta, Jbar=Jbar)


def forward_dynamics(kin: KinState, tau, tau_ext=None) -> np.ndarray:
    """``qdd = M^-1 (tau + tau_ext - C qd - g)``."""
    tau = np.asarray(tau, dtype=float).reshape(-1)
    total = tau if tau_ext is None else tau + np.asarray(tau_ext, dtype=float).reshape(-1)
    return np.linalg.solve(kin.M, total - kin.bias)


def kinetic_energy(model: RobotModel, q, qd) -> float:
    qd = np.asarray(qd, dtype=float).reshape(-1)
    return 0.5 * float(qd @ mass_matrix(model, forward_kinematics(model, q)) @ qd)


def potential_energy(model: RobotModel, q) -> float:
    frames = forward_kinematics(model, q)
    coms, _, masses = _world_com_data(model, frames)
    return -float(np.sum(masses[:, None] * coms * model.gravity[None, :], axis=(0, 1)))


def total_energy(model: RobotModel, q, qd) -> float:
    return kinetic_energy(model, q, qd) + potential_energy(model, q)
