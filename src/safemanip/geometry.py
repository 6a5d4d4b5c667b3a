"""Minimum-distance queries between collision primitives.

Primitives are spheres and capsules; both reduce to a point/segment core plus
a radius, so every query is an exact segment-segment problem with closed-form
witness points.  Boxes are covered by a capsule set at load time
(:func:`box_capsules`).  One kernel, :func:`_segment_closest_points`, solves
those problems for pairs stacked along leading axes;
:func:`closest_pair_per_link` places each body's and each obstacle's core
once and solves every body-obstacle pair in one call.

Sign and direction conventions:
  * ``distance`` is the surface separation; it goes negative on penetration
    (core distance minus the radii), in which case the witnesses are the
    deepest surface points.
  * ``normal`` always points from the obstacle witness toward the robot
    witness, i.e. along the direction that increases the distance.  For
    coincident cores the documented fallback axis is +z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import Frames, RobotModel, forward_kinematics, point_jacobian
from .se3 import Pose, cross3

_DEGENERATE_AXIS = np.array([0.0, 0.0, 1.0])
_CORE_EPS = 1e-9


class GradientUndefinedError(ValueError):
    """Distance gradient requested at a degenerate (zero-distance) witness pair."""


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError(f"sphere radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Capsule:
    """Segment from ``a`` to ``b`` (local frame) swept by ``radius``."""

    radius: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float).reshape(3))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(3))
        if self.radius <= 0.0:
            raise ValueError(f"capsule radius must be positive, got {self.radius}")
        if np.linalg.norm(self.b - self.a) < 1e-12:
            raise ValueError("capsule endpoints must be distinct")


@dataclass(frozen=True)
class Obstacle:
    """A primitive placed in the world."""

    shape: object
    pose: Pose = field(default_factory=Pose.identity)
    name: str = ""


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    p_robot: np.ndarray
    p_obstacle: np.ndarray
    normal: np.ndarray
    link: int
    body_index: int = -1
    obstacle_index: int = -1


def _core_segment(shape, pose: Pose):
    """World-frame (endpoint_a, endpoint_b, radius) of a primitive's core."""
    if isinstance(shape, Sphere):
        return pose.translation, pose.translation, shape.radius
    if isinstance(shape, Capsule):
        return pose.apply(shape.a), pose.apply(shape.b), shape.radius
    raise TypeError(f"unsupported primitive {type(shape).__name__}")


def _dot(u, v):
    """Dot products over the last axis, summed in one fixed order, so a
    pair's value does not depend on the batch it is solved in."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _segment_closest_points(p1, q1, p2, q2):
    """Closest points between segments [p1,q1] and [p2,q2] (Ericson 5.1.9).

    The end points broadcast as ``(..., 3)`` arrays, one pair per leading
    index.  Only a core of exactly zero length counts as a point; a short
    core is still a segment, since taking it as its start point overstates
    the distance by up to its length.  Nearly parallel pairs go to
    :func:`_nearly_parallel_closest_points`.
    """
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    c = _dot(d1, r)
    b = _dot(d1, d2)
    denom = a * e - b * b
    # a point core divides by zero below; the selections discard those values
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(a == 0.0, 0.0, np.clip((b * f - c * e) / denom, 0.0, 1.0))
        t = np.where(e == 0.0, 0.0, (b * s + f) / e)
        s = np.where(a == 0.0, 0.0,
                     np.where((t < 0.0) | (e == 0.0), np.clip(-c / a, 0.0, 1.0),
                              np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s)))
        t = np.clip(t, 0.0, 1.0)
    c1 = p1 + s[..., None] * d1
    c2 = p2 + t[..., None] * d2
    parallel = (a > 0.0) & (e > 0.0) & (denom <= _CORE_EPS * a * e)
    if parallel.any():
        p1, q1, p2, q2 = np.broadcast_arrays(p1, q1, p2, q2)
        for i in map(tuple, np.argwhere(parallel)):
            c1[i], c2[i] = _nearly_parallel_closest_points(p1[i], q1[i], p2[i], q2[i])
    return c1, c2


def _nearly_parallel_closest_points(p1, q1, p2, q2):
    """Closest points of segments within ~3e-5 rad of parallel.

    ``a e - b^2`` has lost its digits here, so the candidates are the four
    endpoint-to-segment projections and, when the lines' closest points lie
    inside both segments, that pair, taken from cross products.  The first
    of equally close candidates wins, the segment-1 start first of all.
    """
    def onto(x, p, d):
        return p + np.clip((x - p) @ d / (d @ d), 0.0, 1.0) * d

    d1, d2 = q1 - p1, q2 - p2
    pairs = [(p1, onto(p1, p2, d2)), (onto(p2, p1, d1), p2),
             (onto(q2, p1, d1), q2), (q1, onto(q1, p2, d2))]
    n = cross3(d1, d2)
    nn = n @ n
    if nn > 0.0:
        w = p2 - p1
        s = cross3(w, d2) @ n / nn
        t = cross3(w, d1) @ n / nn
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            pairs.append((p1 + s * d1, p2 + t * d2))
    return min(pairs, key=lambda pair: float(np.linalg.norm(pair[0] - pair[1])))


def _pairwise(cores_a, cores_b):
    """Surface distance, witnesses and escape normal of every pair of two
    lists of world cores ``(end, end, radius)``, as ``(len(a), len(b))``
    arrays; the pairs are solved in one kernel call."""
    a0, a1, ra = (np.array(x) for x in zip(*cores_a))
    b0, b1, rb = (np.array(x) for x in zip(*cores_b))
    ca, cb = _segment_closest_points(a0[:, None], a1[:, None], b0, b1)
    delta = ca - cb
    core = np.sqrt(_dot(delta, delta))
    apart = core > _CORE_EPS
    normal = np.where(apart[..., None],
                      delta / np.where(apart, core, 1.0)[..., None], _DEGENERATE_AXIS)
    return (core - ra[:, None] - rb, ca - ra[:, None, None] * normal,
            cb + rb[:, None] * normal, normal)


@dataclass(frozen=True)
class DistanceSweep:
    """Per-collision-body closest results plus the global minimum."""

    results: tuple
    min_index: Optional[int]

    @property
    def min_distance(self) -> float:
        return np.inf if self.min_index is None else self.results[self.min_index].distance


def closest_pair_per_link(model: RobotModel, q, obstacles: Sequence[Obstacle],
                          fk=None) -> DistanceSweep:
    """Closest obstacle per collision body (ties go to the lower obstacle
    index), ordered by body; the global minimum is flagged by index.
    ``fk`` passes the frames at ``q`` when the caller already holds them."""
    bodies = model.collision_bodies
    if not obstacles or not bodies:
        return DistanceSweep(results=(), min_index=None)
    frames = fk if fk is not None else forward_kinematics(model, q)
    d, p_robot, p_obstacle, normal = _pairwise(
        [_core_segment(body.shape, frames[body.link] @ body.local) for body in bodies],
        [_core_segment(o.shape, o.pose) for o in obstacles])
    per_body = tuple(
        DistanceResult(float(d[bi, oi]), p_robot[bi, oi], p_obstacle[bi, oi],
                       normal[bi, oi], body.link, bi, oi)
        for bi, (body, oi) in enumerate(zip(bodies, np.argmin(d, axis=1).tolist())))
    return DistanceSweep(results=per_body, min_index=int(np.argmin(d.min(axis=1))))


def distance_gradient(model: RobotModel, frames: Frames,
                      result: DistanceResult) -> np.ndarray:
    """Configuration-space gradient ``n^T J_A`` of the pair distance.

    Obstacles are treated as frozen at the query instant, so their witness
    Jacobian contributes nothing.
    """
    if abs(result.distance) < _CORE_EPS or np.linalg.norm(result.normal) < 0.5:
        raise GradientUndefinedError("witness normal degenerate at zero distance")
    J_A = point_jacobian(model, frames, result.link, result.p_robot)
    return result.normal @ J_A


def box_capsules(size, margin: float = 0.0) -> list:
    """Cover an axis-aligned box (full side lengths ``size``, centered at the
    local origin) with capsules along its longest axis.

    The cross-section is split into near-square strips; each capsule radius is
    the strip half-diagonal plus ``margin``, so the union circumscribes the
    box (conservative for avoidance).
    """
    size = np.asarray(size, dtype=float).reshape(3)
    if np.any(size <= 0.0):
        raise ValueError(f"box side lengths must be positive, got {size}")
    axis = int(np.argmax(size))
    cross = [i for i in range(3) if i != axis]
    u, v = cross
    if size[u] < size[v]:
        u, v = v, u  # u is the wider cross dimension
    strips = max(1, int(round(size[u] / size[v])))
    width = size[u] / strips
    radius = 0.5 * float(np.hypot(width, size[v])) + margin
    half = 0.5 * size[axis]
    capsules = []
    for k in range(strips):
        center_u = -0.5 * size[u] + (k + 0.5) * width
        a = np.zeros(3)
        b = np.zeros(3)
        a[axis], b[axis] = -half, half
        a[u] = b[u] = center_u
        capsules.append(Capsule(radius=radius, a=a, b=b))
    return capsules
