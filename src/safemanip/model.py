"""Serial-chain robot description and kinematics.

A robot is a fixed base plus ``n`` revolute joints.  Frame ``i`` is the frame
of joint ``i`` after its rotation; link ``i`` is rigidly attached to it.  The
end-effector frame hangs off the last joint through ``ee_frame``.

Jacobian conventions:
  * ``body_jacobian`` is the 6 x n end-effector Jacobian with both blocks in
    the end-effector frame, so it is consistent with the SE(3)-log pose
    difference in :mod:`safemanip.se3`.
  * ``point_jacobian`` is the 3 x n world-frame Jacobian of a world point
    riding on a link (used by collision witnesses and contact localization).

Per-state convention: ``forward_kinematics`` is the one place that walks the
chain and the one place that turns link data into world coordinates.  It
returns :class:`Frames`, read-only arrays over the chain: the rotations and
translations of the n link frames and the end-effector, and each link's world
joint axis, joint origin, COM and COM inertia; every kinematic, dynamics and
distance primitive takes these ``frames`` and never recomputes them.
:mod:`safemanip.dynamics` caches the joint motion subspaces and link spatial
inertias of the state, in Plücker coordinates at the world origin, on the
same frames (``Frames.spatial``) and runs its recursions over them as prefix
sums (Featherstone, *Rigid Body Dynamics Algorithms*, 2008).  The closed loop
builds one :class:`safemanip.dynamics.KinState` per state.

:class:`RobotModel` stacks its per-joint constants once, so the one Python
loop per link left here is the transform chain in ``forward_kinematics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .se3 import Pose, hat


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
    # link-frame constants stacked read-only by __post_init__; K = hat(axis)
    axes: np.ndarray = field(init=False, repr=False, compare=False)
    masses: np.ndarray = field(init=False, repr=False, compare=False)
    coms: np.ndarray = field(init=False, repr=False, compare=False)
    inertias: np.ndarray = field(init=False, repr=False, compare=False)
    origin_transforms: np.ndarray = field(init=False, repr=False, compare=False)
    origin_rk: np.ndarray = field(init=False, repr=False, compare=False)
    origin_rk2: np.ndarray = field(init=False, repr=False, compare=False)

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
        R0 = np.array([j.origin.rotation for j in self.joints])
        K = np.array([hat(j.axis) for j in self.joints])
        T0 = np.zeros((len(self.joints), 4, 4))
        T0[:, :3, :3], T0[:, 3, 3] = R0, 1.0
        T0[:, :3, 3] = [j.origin.translation for j in self.joints]
        R0K = R0 @ K
        for name, value in (
                ("axes", [j.axis for j in self.joints]),
                ("masses", [link.mass for link in self.links]),
                ("coms", [link.com for link in self.links]),
                ("inertias", [link.inertia for link in self.links]),
                ("origin_transforms", T0), ("origin_rk", R0K),
                ("origin_rk2", R0K @ K)):
            value = np.array(value, dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)

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


class Frames:
    """World frames of the n links, then the end-effector, as read-only arrays.

    ``R`` (n + 1, 3, 3) and ``t`` (n + 1, 3) are the rotations and
    translations of link frames 0..n-1, then of the end-effector in the last
    row; ``frames[i]`` is ``Pose(R[i], t[i])``.  Row i of each ``(n, ...)``
    array is a world quantity of link i: ``axes`` its joint axis,
    ``origins`` its joint origin (the view ``t[:n]``), ``coms`` its center
    of mass and ``inertias`` its rotational inertia about the COM.
    ``spatial`` is the :mod:`safemanip.dynamics` cache of these frames, None
    until it is built.
    """

    __slots__ = ("R", "t", "axes", "coms", "inertias", "origins", "spatial")

    def __init__(self, R, t, axes, coms, inertias):
        for name, rows in zip(self.__slots__, (R, t, axes, coms, inertias)):
            rows.flags.writeable = False
            setattr(self, name, rows)
        self.origins = t[:-1]
        self.spatial = None

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i) -> Pose:
        return Pose(self.R[i], self.t[i])


def forward_kinematics(model: RobotModel, q: np.ndarray) -> Frames:
    """Link and end-effector frames of ``q`` and the world link quantities."""
    q = model.check_q(q)
    # local transforms: the origin, then R0 (I + sin q K + (1 - cos q) K^2)
    T = model.origin_transforms.copy()
    T[:, :3, :3] += np.sin(q)[:, None, None] * model.origin_rk
    T[:, :3, :3] += (1.0 - np.cos(q))[:, None, None] * model.origin_rk2
    for i in range(1, model.n):
        T[i] = T[i - 1] @ T[i]
    R, t = np.empty((model.n + 1, 3, 3)), np.empty((model.n + 1, 3))
    R[:-1], t[:-1] = T[:, :3, :3], T[:, :3, 3]
    # the products of Pose.compose, so the end-effector row is bitwise equal
    R[-1] = R[-2] @ model.ee_frame.rotation
    t[-1] = R[-2] @ model.ee_frame.translation + t[-2]
    links = R[:-1]
    return Frames(R, t, (links @ model.axes[:, :, None])[..., 0],
                  (links @ model.coms[:, :, None])[..., 0] + t[:-1],
                  links @ model.inertias @ links.transpose(0, 2, 1))


# column orders of the cross product's terms: a x b = a[P] b[Q] - a[Q] b[P]
_P = np.array([1, 2, 0])
_Q = np.array([2, 0, 1])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (k, 3) arrays, each row bitwise equal
    to ``se3.cross3`` of that row (same products and differences)."""
    return (a.take(_P, axis=1) * b.take(_Q, axis=1)
            - a.take(_Q, axis=1) * b.take(_P, axis=1))


def point_jacobian(model: RobotModel, frames: Frames, link: int,
                   point: np.ndarray) -> np.ndarray:
    """3 x n world-frame Jacobian of the world point ``point`` riding on
    ``link``; the columns of joints past ``link`` are zero."""
    if not 0 <= link < model.n:
        raise ValueError(f"invalid link index {link} for {model.n}-joint chain")
    J = np.zeros((3, model.n))
    J[:, : link + 1] = cross_rows(frames.axes[: link + 1],
                                  point - frames.origins[: link + 1]).T
    return J


def body_jacobian(model: RobotModel, frames: Frames) -> np.ndarray:
    """6 x n end-effector Jacobian with both blocks in EE-frame axes.

    Satisfies ``body_twist = J_b qdot`` where the body twist is the first-order
    rate of ``se3.pose_diff`` along the motion, so it pairs correctly with
    log-based pose errors.
    """
    RT = frames.R[-1].T
    linear = cross_rows(frames.axes, frames.t[-1] - frames.origins)
    return np.concatenate((RT @ frames.axes.T, RT @ linear.T))


# Damped least squares kicks in automatically near singularities; see the
# threshold pair below.
SINGULARITY_THRESHOLD = 1e-4
AUTO_DAMPING = 1e-6


def robust_pinv(J: np.ndarray) -> np.ndarray:
    """SVD pseudo-inverse that silently switches to damped least squares
    ``J^T (J J^T + AUTO_DAMPING^2 I)^-1`` when the smallest singular value
    falls below ``SINGULARITY_THRESHOLD``."""
    U, s, Vt = np.linalg.svd(np.asarray(J, dtype=float), full_matrices=False)
    if s.size and s.min() < SINGULARITY_THRESHOLD:
        inv_s = s / (s ** 2 + AUTO_DAMPING ** 2)
    else:
        inv_s = 1.0 / s
    return (Vt.T * inv_s) @ U.T


def robust_null_projector(J: np.ndarray) -> np.ndarray:
    """Null-space projector ``N = I - robust_pinv(J) J``."""
    J = np.asarray(J, dtype=float)
    return np.eye(J.shape[1]) - robust_pinv(J) @ J
