"""Joint- and task-space dynamics of serial chains.

Every per-state quantity is in Plücker coordinates at the world origin,
angular part first (dynamics in ground coordinates, Featherstone, *Rigid Body
Dynamics Algorithms*, 2008, sections 5.3 and 6.2): joint i moves along
``S_i = (a_i, o_i x a_i)`` (world axis a_i through origin o_i) and link i has
the spatial inertia ``Io_i`` about the world origin.  In that one frame each
recursion over the chain is a prefix sum over the links, with no Python loop:

  * ``V = cumsum(S qd)``, ``A = (0, -g) + cumsum(S qdd + (V x S) qd)``;
  * ``inverse_dynamics``: ``tau = S . revcumsum(Io A + V x* Io V)``;
  * ``mass_matrix``: ``M_ij = S_i . revcumsum(Io)_j S_j`` for i <= j;
  * ``mdot_qd``: ``Mdot qd = C qd + C^T qd = S . F + (V x S) . revcumsum(Io
    V)``, F the Newton-Euler sum at ``qdd = 0`` without gravity (the CRBA
    derivative; Echeandia & Wensing, arXiv:2010.01033).  The estimator
    evaluates the momentum drift ``-C^T qd + g`` as ``bias - mdot_qd``;
  * ``jacobian_dot_qd``: from the last row of A at ``qdd = 0``.

S and Io depend on q alone: the first kernel to need them builds both from
the world link arrays of the :class:`safemanip.model.Frames` and caches them
read-only there (``frames.spatial``), once per state.  The tests check every
kernel against the per-link recursions it replaced and against a
Christoffel-form C(q, qd) from central differences of M.

Per-state convention: ``mass_matrix``, ``inverse_dynamics``, ``bias_forces``,
``mdot_qd`` and ``jacobian_dot_qd`` take the
:class:`safemanip.model.Frames` of :func:`safemanip.model.forward_kinematics`
as a required argument.  :class:`KinState` is the one object computed per
state (q, qd): its frames, M and bias come from one forward-kinematics pass
and one call each of the public ``mass_matrix`` and ``bias_forces``.
``sim.run`` builds it once per tick for the true state (and once more for the
measured state when sensor noise is on); the controller laws,
``task_dynamics_from_jacobian``, ``forward_dynamics`` and the first RK4 stage
read it, the later RK4 stages build their own.

``task_dynamics_from_jacobian`` damps itself, as ``robust_pinv`` does: a
near-singular apparent task inertia is regularized, and the second value it
returns says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Frames, RobotModel, cross_rows, forward_kinematics
from .se3 import cross3


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


def _spatial(model: RobotModel, frames: Frames):
    """``S`` (n x 6) and ``Io`` (n x 6 x 6) of the frames, cached on them."""
    if frames.spatial is None:
        axes, c, m = frames.axes, frames.coms, model.masses[:, None, None]
        S = np.concatenate((axes, cross_rows(frames.origins, axes)), axis=1)
        C = np.zeros((model.n, 3, 3))  # hat of each COM
        C[:, [2, 0, 1], [1, 2, 0]] = c
        C[:, [1, 2, 0], [2, 0, 1]] = -c
        mC = m * C
        Io = np.empty((model.n, 6, 6))
        Io[:, :3, :3] = frames.inertias - mC @ C
        Io[:, :3, 3:] = mC
        Io[:, 3:, :3] = -mC
        Io[:, 3:, 3:] = m * np.eye(3)
        S.flags.writeable = Io.flags.writeable = False
        frames.spatial = S, Io
    return frames.spatial


def _cross_motion(V, M):
    """Rows of ``V x M`` for motion vectors M: (w x m, w x m_o + v x m)."""
    w, v, m = V[:, :3], V[:, 3:], M[:, :3]
    c = cross_rows(np.concatenate((w, w, v)),
                   np.concatenate((m, M[:, 3:], m))).reshape(3, -1, 3)
    return np.concatenate((c[0], c[1] + c[2]), axis=1)


def _cross_force(V, F):
    """Rows of ``V x* F`` for force vectors F: (w x n + v x f, w x f)."""
    w, f = V[:, :3], F[:, 3:]
    c = cross_rows(np.concatenate((w, V[:, 3:], w)),
                   np.concatenate((F[:, :3], f, f))).reshape(3, -1, 3)
    return np.concatenate((c[0] + c[1], c[2]), axis=1)


def _subtree_sums(rows):
    """Entry i: the sum of rows i..n-1 (the subtree of joint i)."""
    return np.cumsum(rows[::-1], axis=0)[::-1]


def _velocities(model: RobotModel, frames: Frames, qd):
    """S, Io, the link velocities V and the axis rates V x S of one state."""
    S, Io = _spatial(model, frames)
    V = np.cumsum(S * qd[:, None], axis=0)
    return S, Io, V, _cross_motion(V, S)


def _link_wrenches(Io, V, A):
    """Each link's net wrench ``Io A + V x* Io V`` and momentum ``Io V``."""
    IV, IA = (Io @ np.stack((V, A), axis=2)).transpose(2, 0, 1)
    return IA + _cross_force(V, IV), IV


def mass_matrix(model: RobotModel, frames: Frames) -> np.ndarray:
    """n x n joint-space inertia matrix via composite rigid bodies."""
    S, Io = _spatial(model, frames)
    P = S @ (_subtree_sums(Io) @ S[:, :, None])[:, :, 0].T
    return np.triu(P) + np.triu(P, 1).T


def inverse_dynamics(model: RobotModel, frames: Frames, qd, qdd) -> np.ndarray:
    """Joint torques realizing ``qdd`` at state (q, qd):  M qdd + C qd + g."""
    qd = np.asarray(qd, dtype=float).reshape(-1)
    qdd = np.asarray(qdd, dtype=float).reshape(-1)
    S, Io, V, VxS = _velocities(model, frames, qd)
    A = np.cumsum(S * qdd[:, None] + VxS * qd[:, None], axis=0)
    # gravity enters as an upward acceleration of the base
    A[:, 3:] -= model.gravity
    f, _ = _link_wrenches(Io, V, A)
    return (S * _subtree_sums(f)).sum(axis=1)


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


def mdot_qd(model: RobotModel, frames: Frames, qd) -> np.ndarray:
    """``Mdot qd``, the derivative of M along the motion, exactly.

    Entry i is ``S_i' F_i + Sdot_i' H_i``: ``S_i' F_i`` is ``(C qd)_i`` and
    ``Sdot_i' H_i``, with the subtree momentum H_i, is ``(C^T qd)_i``.
    """
    qd = np.asarray(qd, dtype=float).reshape(-1)
    S, Io, V, VxS = _velocities(model, frames, qd)
    f, IV = _link_wrenches(Io, V, np.cumsum(VxS * qd[:, None], axis=0))
    return (S * _subtree_sums(f) + VxS * _subtree_sums(IV)).sum(axis=1)


def jacobian_dot_qd(model: RobotModel, frames: Frames, qd) -> np.ndarray:
    """``Jdot qd`` of the body Jacobian, exactly.

    The rate of ``J_b qd = (R' w, R' v_ee)`` at ``qdd = 0``: ``(R' alpha,
    R' (a_ee - w x v_ee)) = (R' alpha, R' (a_O + alpha x p_ee))`` for the
    last link's spatial acceleration ``(alpha, a_O)``.
    """
    qd = np.asarray(qd, dtype=float).reshape(-1)
    _, _, _, VxS = _velocities(model, frames, qd)
    alpha, a_origin = (VxS * qd[:, None]).sum(axis=0).reshape(2, 3)
    RT = frames.R[-1].T
    return np.concatenate([RT @ alpha,
                           RT @ (a_origin + cross3(alpha, frames.t[-1]))])


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
