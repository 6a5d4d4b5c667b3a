"""Joint- and task-space dynamics of serial chains.

``mass_matrix`` assembles M(q) by composite-rigid-body accumulation in world
coordinates; ``inverse_dynamics`` is a world-frame recursive Newton-Euler pass
(gravity enters through a fictitious base acceleration).

The 1 kHz terms are exact.  ``mdot_qd`` is the derivative of M along the
motion, ``Mdot qd = C qd + C^T qd``, from one forward and one backward pass
over the links (the CRBA derivative with ``Sdot_j = v_j x S_j`` and
``Idot_k = v_k x* I_k - I_k v_k x``, Featherstone, *Rigid Body Dynamics
Algorithms*, 2008; Echeandia & Wensing, arXiv:2010.01033).  The estimator
evaluates the momentum drift ``-C^T qd + g`` as ``bias - mdot_qd``.
``jacobian_dot_qd`` is the velocity-product acceleration of the end-effector
frame, the forward pass with ``qdd = 0``.  The Christoffel-form
``coriolis_matrix`` is built from central differences of M instead; it is
independent of that analytic code and is the oracle of the tests.

Per-state convention: ``mass_matrix``, ``inverse_dynamics``, ``bias_forces``,
``gravity_torque``, ``mdot_qd`` and ``jacobian_dot_qd`` take the
:class:`safemanip.model.Frames` of :func:`safemanip.model.forward_kinematics`
as a required argument and read the world axes, origins, COMs and inertias
it carries; nothing here rotates link data into the world again.
:class:`KinState` is the one object computed per state (q, qd): its frames, M
and bias come from one forward-kinematics pass and one call each of the
public ``mass_matrix`` and ``bias_forces``.  ``sim.run`` builds it once per
tick for the true state (and once more for the measured state when sensor
noise is on); the controller laws, ``task_dynamics_from_jacobian``,
``forward_dynamics`` and the first RK4 stage read it, the later RK4 stages
build their own.

``task_dynamics_from_jacobian`` damps itself, as ``robust_pinv`` does: a
near-singular apparent task inertia is regularized, and the second value it
returns says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Frames, RobotModel, forward_kinematics
from .se3 import cross3, hat

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


def mass_matrix(model: RobotModel, frames: Frames) -> np.ndarray:
    """n x n joint-space inertia matrix via composite rigid bodies."""
    n = model.n

    # spatial inertia of each link about the world origin (angular-first)
    Io = np.zeros((n, 6, 6))
    for i, link in enumerate(model.links):
        chat = hat(frames.coms[i])
        m = link.mass
        Io[i, :3, :3] = frames.inertias[i] - m * (chat @ chat)
        Io[i, :3, 3:] = m * chat
        Io[i, 3:, :3] = -m * chat
        Io[i, 3:, 3:] = m * np.eye(3)
    # composite inertia of the subtree rooted at each joint
    Ic = np.cumsum(Io[::-1], axis=0)[::-1]

    S = np.empty((n, 6))
    S[:, :3] = frames.axes
    for j, (axis, origin) in enumerate(zip(frames.axes, frames.origins)):
        S[j, 3:] = cross3(origin, axis)

    M = np.zeros((n, n))
    for j in range(n):
        y = Ic[j] @ S[j]
        M[: j + 1, j] = S[: j + 1] @ y
        M[j, : j + 1] = M[: j + 1, j]
    return M


def _forward_pass(frames: Frames, qd, qdd, a_base):
    """Link velocities and accelerations, base to tip.

    Entry i of each returned list: the angular velocity of link i, the
    velocity of its joint origin o_i, the angular acceleration of link i and
    the acceleration of o_i, for joint accelerations ``qdd`` and a base that
    accelerates at ``a_base``.
    """
    omega, v_origin, alpha, a_origin = [], [], [], []
    w = v = al = o_prev = np.zeros(3)
    ao = a_base
    for i, (axis, o) in enumerate(zip(frames.axes, frames.origins)):
        r = o - o_prev
        v_rel = cross3(w, r)
        v = v + v_rel
        ao = ao + cross3(al, r) + cross3(w, v_rel)
        w_rel = axis * qd[i]
        al = al + axis * qdd[i] + cross3(w, w_rel)
        w = w + w_rel
        omega.append(w)
        v_origin.append(v)
        alpha.append(al)
        a_origin.append(ao)
        o_prev = o
    return omega, v_origin, alpha, a_origin


def inverse_dynamics(model: RobotModel, frames: Frames, qd, qdd) -> np.ndarray:
    """Joint torques realizing ``qdd`` at state (q, qd):  M qdd + C qd + g."""
    qd = np.asarray(qd, dtype=float).reshape(-1)
    qdd = np.asarray(qdd, dtype=float).reshape(-1)
    n = model.n
    axes, origins, coms, inertias = (frames.axes, frames.origins, frames.coms,
                                     frames.inertias)
    # gravity enters as an upward acceleration of the base
    omega, _, alpha, a_origin = _forward_pass(frames, qd, qdd, -model.gravity)

    tau = np.zeros(n)
    f_child = np.zeros(3)
    n_child = np.zeros(3)  # moment about the child joint origin
    o_child = np.zeros(3)
    for i in range(n - 1, -1, -1):
        w = omega[i]
        rc = coms[i] - origins[i]
        F = model.links[i].mass * (a_origin[i] + cross3(alpha[i], rc)
                                   + cross3(w, cross3(w, rc)))
        N = inertias[i] @ alpha[i] + cross3(w, inertias[i] @ w)
        f = F + f_child
        mom = N + cross3(rc, F)
        if i < n - 1:
            mom += n_child + cross3(o_child - origins[i], f_child)
        tau[i] = axes[i] @ mom
        f_child, n_child, o_child = f, mom, origins[i]
    return tau


def gravity_torque(model: RobotModel, frames: Frames) -> np.ndarray:
    z = np.zeros(model.n)
    return inverse_dynamics(model, frames, z, z)


def bias_forces(model: RobotModel, frames: Frames, qd) -> np.ndarray:
    """Velocity-and-gravity bias ``C(q, qd) qd + g(q)``."""
    return inverse_dynamics(model, frames, qd, np.zeros(model.n))


@dataclass(frozen=True)
class KinState:
    """Kinematics and dynamics of one state (q, qd), computed once.

    ``frames`` are the :class:`Frames` of q, ``M`` the joint-space
    inertia and ``bias`` the term ``C(q, qd) qd + g(q)``.
    """

    q: np.ndarray
    qd: np.ndarray
    frames: Frames
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


def mdot_qd(model: RobotModel, frames: Frames, qd) -> np.ndarray:
    """``Mdot qd``, the derivative of M along the motion, exactly.

    Entry i is ``S_i' F_i + Sdot_i' H_i``: ``F_i`` is the velocity-product
    wrench of the subtree of joint i (so ``S_i' F_i`` is ``(C qd)_i``),
    ``H_i`` its momentum and ``Sdot_i = v_i x S_i`` the rate of the joint
    axis (so ``Sdot_i' H_i`` is ``(C^T qd)_i``).  At the joint origin o_i
    the second term reads ``a_i . (L_i x w_i + p_i x v(o_i))`` with the
    subtree's angular momentum L_i about o_i and linear momentum p_i.
    """
    qd = np.asarray(qd, dtype=float).reshape(-1)
    # qdd = 0 and no gravity: the accelerations the motion alone produces
    omega, v_origin, alpha, a_origin = _forward_pass(
        frames, qd, np.zeros(model.n), np.zeros(3))
    axes, origins, coms, inertias = (frames.axes, frames.origins, frames.coms,
                                     frames.inertias)
    out = np.empty(model.n)
    force = moment = momentum = ang_momentum = o_child = np.zeros(3)
    for i in range(model.n - 1, -1, -1):
        w = omega[i]
        rc = coms[i] - origins[i]
        d = o_child - origins[i]
        Iw = inertias[i] @ w
        w_rc = cross3(w, rc)
        m = model.links[i].mass
        F = m * (a_origin[i] + cross3(alpha[i], rc) + cross3(w, w_rc))
        p = m * (v_origin[i] + w_rc)
        # subtree wrench and momentum, moments about o_i
        moment = (inertias[i] @ alpha[i] + cross3(w, Iw) + cross3(rc, F)
                  + moment + cross3(d, force))
        ang_momentum = Iw + cross3(rc, p) + ang_momentum + cross3(d, momentum)
        force = F + force
        momentum = p + momentum
        out[i] = axes[i] @ (moment + cross3(ang_momentum, w)
                            + cross3(momentum, v_origin[i]))
        o_child = origins[i]
    return out


def jacobian_dot_qd(model: RobotModel, frames: Frames, qd) -> np.ndarray:
    """``Jdot qd`` of the body Jacobian, exactly.

    The rate of ``J_b qd = (R' w, R' v_ee)`` at ``qdd = 0``: the angular
    velocity-product acceleration and ``a_ee - w x v_ee`` of the
    end-effector origin, both rotated into the end-effector frame.
    """
    qd = np.asarray(qd, dtype=float).reshape(-1)
    omega, v_origin, alpha, a_origin = _forward_pass(
        frames, qd, np.zeros(model.n), np.zeros(3))
    ee = frames[-1]
    w, al = omega[-1], alpha[-1]
    # with r from the last joint origin o to the EE origin, a_ee - w x v_ee
    # = a_o + al x r + w x (w x r) - w x (v_o + w x r) = a_o + al x r - w x v_o
    r = ee.translation - frames.origins[-1]
    linear = a_origin[-1] + cross3(al, r) - cross3(w, v_origin[-1])
    RT = ee.rotation.T
    return np.concatenate([RT @ al, RT @ linear])


_TASK_COND_LIMIT = 1e12
# regularization of the task inertia when the task Jacobian is near singular
_TASK_DAMPING = 0.1


def task_dynamics_from_jacobian(kin: KinState, J, Jdot_qd):
    """Operational-space terms for an arbitrary task Jacobian, and whether
    they had to be damped.

    ``Lambda = (J M^-1 J')^-1``, ``Jbar = M^-1 J' Lambda``,
    ``eta = Jbar'(C qd + g) - Lambda Jdot qd``.  When the apparent inertia
    ``J M^-1 J'`` is near singular (condition number above
    ``_TASK_COND_LIMIT``) it is regularized by ``_TASK_DAMPING^2 I`` and the
    flag is True.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    MinvJT = np.linalg.solve(kin.M, J.T)
    A = J @ MinvJT
    damped = bool(np.linalg.cond(A) > _TASK_COND_LIMIT)
    if damped:
        A = A + _TASK_DAMPING ** 2 * np.eye(A.shape[0])
    Lam = np.linalg.inv(A)
    Lam = 0.5 * (Lam + Lam.T)
    Jbar = MinvJT @ Lam
    eta = Jbar.T @ kin.bias - Lam @ np.asarray(Jdot_qd, dtype=float).reshape(-1)
    return TaskDynamicsTerms(Lam=Lam, eta=eta, Jbar=Jbar), damped


def forward_dynamics(kin: KinState, tau, tau_ext=None) -> np.ndarray:
    """``qdd = M^-1 (tau + tau_ext - C qd - g)``."""
    tau = np.asarray(tau, dtype=float).reshape(-1)
    total = tau if tau_ext is None else tau + np.asarray(tau_ext, dtype=float).reshape(-1)
    return np.linalg.solve(kin.M, total - kin.bias)


def potential_energy(model: RobotModel, q) -> float:
    masses = np.array([link.mass for link in model.links], dtype=float)
    coms = forward_kinematics(model, q).coms
    return -float(np.sum(masses[:, None] * coms * model.gravity[None, :], axis=(0, 1)))
