"""Rotations, rigid transforms and twist/wrench conventions.

Twists and wrenches are stacked angular-first throughout the package:
``xi = (wx, wy, wz, vx, vy, vz)``.  The pose difference used everywhere is
``diff(T1, T2) = log(T1^-1 T2)``, a body-frame twist expressed in T1's frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ANGULAR = slice(0, 3)
LINEAR = slice(3, 6)

_EPS = 1e-12


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector."""
    x, y, z = np.asarray(w, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two float arrays of shape (3,).

    Forms the same products and differences as ``np.cross``, so the result
    is bitwise equal, without that function's broadcasting set-up, which
    costs some thirty times the arithmetic on a single pair.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def vee(S: np.ndarray) -> np.ndarray:
    return np.array([S[2, 1], S[0, 2], S[1, 0]])


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rotation matrix from a rotation vector (Rodrigues)."""
    theta = np.linalg.norm(w)
    if theta < _EPS:
        return np.eye(3) + hat(w)
    K = hat(w / theta)
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Principal-branch rotation vector of R, angle in [0, pi].

    The angle is ``atan2(sin, cos)`` of the skew part ``vee(R - R')/2 =
    sin(theta) axis`` and the trace, which keeps its digits at both ends of
    the range, where ``arccos`` of the trace loses them.  Past pi/2 the axis
    comes from the symmetric part ``R + R' - 2 cos(theta) I = 2 (1 -
    cos(theta)) axis axis'``, which stays well conditioned up to pi, and only
    its sign from the skew part.
    """
    s = vee(R - R.T) * 0.5
    sin_t = float(np.linalg.norm(s))
    cos_t = (np.trace(R) - 1.0) * 0.5
    theta = np.arctan2(sin_t, cos_t)
    if cos_t >= 0.0:
        return s * (theta / sin_t) if sin_t > 0.0 else s
    k = int(np.argmax(np.diag(R)))  # the symmetric part peaks on the same entry
    col = R[:, k] + R[k]
    col[k] -= 2.0 * cos_t
    axis = col / np.linalg.norm(col)
    return axis * theta if axis @ s >= 0.0 else axis * -theta


def _left_jacobian_inv(w: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian of SO(3), ``I - W/2 + c W^2``.

    ``c = (1 - theta sin(theta) / (2 (1 - cos(theta)))) / theta^2`` loses
    about ``eps / theta^4`` to cancellation as theta goes to 0; below 0.1 rad
    the series ``1/12 + theta^2/720 + theta^4/30240`` is used, whose first
    omitted term is ``theta^6 / 1209600``.
    """
    theta = np.linalg.norm(w)
    W = hat(w)
    if theta < 0.1:
        t2 = theta * theta
        c = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    else:
        c = (1.0 - (theta * np.sin(theta)) / (2.0 * (1.0 - np.cos(theta)))) / theta ** 2
    return np.eye(3) - 0.5 * W + c * (W @ W)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: ``rotation`` in SO(3), ``translation`` in meters."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float).reshape(3))

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_rpy(xyz, rpy=(0.0, 0.0, 0.0)) -> "Pose":
        """Pose from a translation and extrinsic x-y-z (roll, pitch, yaw) angles."""
        r, p, y = rpy
        R = so3_exp(np.array([0.0, 0.0, y])) @ \
            so3_exp(np.array([0.0, p, 0.0])) @ \
            so3_exp(np.array([r, 0.0, 0.0]))
        return Pose(R, np.asarray(xyz, dtype=float))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        RT = self.rotation.T
        return Pose(RT, -RT @ self.translation)

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=float) + self.translation


def se3_exp(xi: np.ndarray) -> Pose:
    """Exponential of an angular-first twist.

    The translation is ``V v`` with ``V = I + a W + b W^2``.  The closed
    forms ``a = (1 - cos(theta)) / theta^2`` and ``b = (theta - sin(theta)) /
    theta^3`` lose about ``eps / theta^2`` to cancellation as theta goes to
    0; below 1e-2 rad the series ``a = 1/2 - theta^2/24 + theta^4/720`` and
    ``b = 1/6 - theta^2/120 + theta^4/5040`` are used, whose first omitted
    terms are below 3e-17 there.
    """
    xi = np.asarray(xi, dtype=float).reshape(6)
    w, v = xi[ANGULAR], xi[LINEAR]
    R = so3_exp(w)
    theta = np.linalg.norm(w)
    W = hat(w)
    if theta < 1e-2:
        t2 = theta * theta
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        b = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = (1.0 - np.cos(theta)) / theta ** 2
        b = (theta - np.sin(theta)) / theta ** 3
    V = np.eye(3) + a * W + b * (W @ W)
    return Pose(R, V @ v)


def se3_log(T: Pose) -> np.ndarray:
    """Angular-first twist ``xi`` with ``se3_exp(xi) == T``."""
    w = so3_log(T.rotation)
    v = _left_jacobian_inv(w) @ T.translation
    return np.concatenate([w, v])


def pose_diff(T1: Pose, T2: Pose) -> np.ndarray:
    """SE(3) difference ``log(T1^-1 T2)`` as a 6-vector (angular, linear)."""
    return se3_log(T1.inverse() @ T2)


def pose_error_norm(T1: Pose, T2: Pose) -> float:
    return float(np.linalg.norm(pose_diff(T1, T2)))


def interpolate_pose(Ta: Pose, Tb: Pose, s: float) -> Pose:
    """Geodesic interpolation from Ta (s=0) to Tb (s=1)."""
    return Ta @ se3_exp(s * pose_diff(Ta, Tb))
