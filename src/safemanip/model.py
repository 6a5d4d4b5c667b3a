"""Serial-chain robot description and kinematics.

A robot is a fixed base plus ``n`` revolute joints.  Frame ``i`` is the frame
of joint ``i`` after its rotation; link ``i`` is rigidly attached to it.  The
end-effector frame hangs off the last joint through ``ee_frame``.

Jacobian conventions:
  * ``geometric_jacobian`` is the world-frame hybrid Jacobian: angular rows on
    top, then the linear velocity of the frame origin, both in world axes.
  * ``body_jacobian`` re-expresses both blocks in the end-effector frame so it
    is consistent with the SE(3)-log pose difference in :mod:`safemanip.se3`.
  * ``point_jacobian`` is the 3 x n world-frame Jacobian of a point riding on
    a link (used by collision witnesses and contact localization).

Per-state convention: ``forward_kinematics`` is the one place that walks the
chain.  Every kinematic primitive here (and the dynamics and distance
primitives built on them) takes its ``frames`` list as a required argument
and never recomputes it.  The closed loop builds one
:class:`safemanip.dynamics.KinState` per state, holding the frames together
with M(q) and the bias, and hands that object to every consumer of the tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .se3 import Pose, cross3, so3_exp


@dataclass(frozen=True)
class Joint:
    """Revolute joint: fixed ``origin`` transform from the parent frame, then
    a rotation of the joint angle about ``axis`` (unit vector, parent frame
    after origin)."""

    axis: np.ndarray
    origin: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float).reshape(3)
        object.__setattr__(self, "axis", a)
        if abs(np.linalg.norm(a) - 1.0) > 1e-9:
            raise ValueError(f"joint axis must be a unit vector, got {a}")


@dataclass(frozen=True)
class LinkInertia:
    """Mass (kg), center of mass (m, link frame) and rotational inertia about
    the COM (kg m^2, link frame)."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "com", np.asarray(self.com, dtype=float).reshape(3))
        I = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        object.__setattr__(self, "inertia", I)
        if self.mass <= 0.0:
            raise ValueError(f"link mass must be positive, got {self.mass}")
        if np.abs(I - I.T).max() > 1e-9:
            raise ValueError("inertia tensor must be symmetric")
        if np.linalg.eigvalsh(I).min() < -1e-12:
            raise ValueError("inertia tensor must be positive semidefinite")


@dataclass(frozen=True)
class CollisionBody:
    """A collision primitive rigidly attached to a link (shape types live in
    :mod:`safemanip.geometry`)."""

    link: int
    shape: object
    local: Pose = field(default_factory=Pose.identity)
    name: str = ""


@dataclass(frozen=True)
class JointLimits:
    """Per-joint symmetric-or-not box bounds (rad, rad/s, rad/s^2)."""

    position_lower: np.ndarray
    position_upper: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray

    @staticmethod
    def uniform(n: int, position: float = 3.0, velocity: float = 2.5,
                acceleration: float = 15.0) -> "JointLimits":
        return JointLimits(-position * np.ones(n), position * np.ones(n),
                           velocity * np.ones(n), acceleration * np.ones(n))


@dataclass(frozen=True)
class RobotModel:
    joints: tuple
    links: tuple
    ee_frame: Pose = field(default_factory=Pose.identity)
    collision_bodies: tuple = ()
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))
    limits: Optional[JointLimits] = None
    name: str = "robot"

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "collision_bodies", tuple(self.collision_bodies))
        object.__setattr__(self, "gravity",
                           np.asarray(self.gravity, dtype=float).reshape(3))
        if len(self.joints) < 1:
            raise ValueError("robot needs at least one joint")
        if len(self.links) != len(self.joints):
            raise ValueError(f"{len(self.joints)} joints but {len(self.links)} links")
        for body in self.collision_bodies:
            if not 0 <= body.link < len(self.joints):
                raise ValueError(f"collision body on invalid link {body.link}")
        if self.limits is None:
            object.__setattr__(self, "limits", JointLimits.uniform(len(self.joints)))

    @property
    def n(self) -> int:
        return len(self.joints)

    def check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.shape[0] != self.n:
            raise ValueError(f"expected {self.n} joint values, got {q.shape[0]}")
        if not np.all(np.isfinite(q)):
            raise ValueError("joint vector contains non-finite entries")
        return q


def forward_kinematics(model: RobotModel, q: np.ndarray) -> list:
    """World poses of every link frame, then the end-effector (n + 1 poses)."""
    q = model.check_q(q)
    poses = []
    R, t = np.eye(3), np.zeros(3)
    for joint, qi in zip(model.joints, q):
        o = joint.origin
        t = R @ o.translation + t
        R = (R @ o.rotation) @ so3_exp(joint.axis * qi)
        poses.append(Pose(R, t))
    poses.append(poses[-1] @ model.ee_frame)
    return poses


def _world_axes_origins(model: RobotModel, frames: Sequence[Pose]):
    axes = np.stack([frames[i].rotation @ model.joints[i].axis
                     for i in range(model.n)])
    origins = np.stack([frames[i].translation for i in range(model.n)])
    return axes, origins


def geometric_jacobian(model: RobotModel, frames: Sequence[Pose],
                       frame: int = -1) -> np.ndarray:
    """6 x n world-frame hybrid Jacobian of a link frame (default: EE).

    ``frame`` indexes link frames 0..n-1; -1 or n selects the end-effector.
    Columns of joints downstream of the frame are zero.
    """
    if frame in (-1, model.n):
        target, last = frames[-1], model.n - 1
    elif 0 <= frame < model.n:
        target, last = frames[frame], frame
    else:
        raise ValueError(f"invalid frame index {frame} for {model.n}-joint chain")
    axes, origins = _world_axes_origins(model, frames)
    J = np.zeros((6, model.n))
    p = target.translation
    for j in range(last + 1):
        J[:3, j] = axes[j]
        J[3:, j] = cross3(axes[j], p - origins[j])
    return J


def point_jacobian(model: RobotModel, frames: Sequence[Pose], link: int,
                   point_local: np.ndarray = (0.0, 0.0, 0.0)) -> np.ndarray:
    """3 x n world-frame Jacobian of a point attached to ``link``."""
    if not 0 <= link < model.n:
        raise ValueError(f"invalid link index {link} for {model.n}-joint chain")
    p = frames[link].apply(np.asarray(point_local, dtype=float))
    axes, origins = _world_axes_origins(model, frames)
    J = np.zeros((3, model.n))
    for j in range(link + 1):
        J[:, j] = cross3(axes[j], p - origins[j])
    return J


def point_jacobian_world(model: RobotModel, frames: Sequence[Pose], link: int,
                         point_world: np.ndarray) -> np.ndarray:
    """Like :func:`point_jacobian` but for a point already given in world."""
    local = frames[link].inverse().apply(point_world)
    return point_jacobian(model, frames, link, local)


def body_jacobian(model: RobotModel, frames: Sequence[Pose]) -> np.ndarray:
    """6 x n end-effector Jacobian with both blocks in EE-frame axes.

    Satisfies ``body_twist = J_b qdot`` where the body twist is the first-order
    rate of ``se3.pose_diff`` along the motion, so it pairs correctly with
    log-based pose errors.
    """
    J = geometric_jacobian(model, frames, frame=-1)
    RT = frames[-1].rotation.T
    Jb = np.empty_like(J)
    Jb[:3] = RT @ J[:3]
    Jb[3:] = RT @ J[3:]
    return Jb


# Damped least squares kicks in automatically near singularities; see the
# threshold pair below.
SINGULARITY_THRESHOLD = 1e-4
AUTO_DAMPING = 1e-6


def robust_pinv(J: np.ndarray) -> np.ndarray:
    """SVD pseudo-inverse that silently switches to damped least squares
    ``J^T (J J^T + AUTO_DAMPING^2 I)^-1`` when the smallest singular value
    falls below ``SINGULARITY_THRESHOLD``."""
    J = np.asarray(J, dtype=float)
    if J.ndim == 1:
        J = J.reshape(1, -1)
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    if s.size and s.min() < SINGULARITY_THRESHOLD:
        inv_s = s / (s ** 2 + AUTO_DAMPING ** 2)
    else:
        inv_s = 1.0 / s
    return (Vt.T * inv_s) @ U.T


def robust_null_projector(J: np.ndarray) -> np.ndarray:
    """Null-space projector ``N = I - robust_pinv(J) J``."""
    J = np.asarray(J, dtype=float)
    if J.ndim == 1:
        J = J.reshape(1, -1)
    return np.eye(J.shape[1]) - robust_pinv(J) @ J
