import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemanip.geometry import (
    Capsule,
    GradientUndefinedError,
    Obstacle,
    Sphere,
    box_capsules,
    closest_pair_per_link,
    distance_gradient,
    _segment_closest_points,
    min_distance,
)
from safemanip.model import forward_kinematics
from safemanip.se3 import Pose


def at(xyz):
    return Pose(np.eye(3), np.asarray(xyz, float))


def test_sphere_sphere_example():
    res = min_distance(Sphere(0.2), at([0, 0, 0]), Sphere(0.3), at([0, 0, 1]))
    assert res.distance == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(res.normal, [0.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(res.p_robot, [0.0, 0.0, 0.2], atol=1e-12)
    np.testing.assert_allclose(res.p_obstacle, [0.0, 0.0, 0.7], atol=1e-12)


def test_sphere_sphere_penetration():
    res = min_distance(Sphere(0.5), at([0, 0, 0]), Sphere(0.5), at([0.8, 0, 0]))
    assert res.distance == pytest.approx(-0.2, abs=1e-12)
    # witnesses are the deepest points, still along the center line
    np.testing.assert_allclose(res.normal, [-1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.p_robot, [0.5, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(res.p_obstacle, [0.3, 0.0, 0.0], atol=1e-12)


def test_concentric_spheres_fallback_normal():
    res = min_distance(Sphere(0.2), at([0, 0, 0]), Sphere(0.3), at([0, 0, 0]))
    assert res.distance == pytest.approx(-0.5, abs=1e-12)
    assert np.linalg.norm(res.normal) == pytest.approx(1.0)


def test_parallel_capsules_example():
    a = Capsule(0.1, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    b = Capsule(0.1, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    res = min_distance(a, at([0, 0, 0]), b, at([0, 1, 0]))
    assert res.distance == pytest.approx(0.8, abs=1e-12)
    np.testing.assert_allclose(res.normal, [0.0, -1.0, 0.0], atol=1e-12)


def test_capsule_sphere_beyond_endpoint():
    # sphere past the capsule end: core distance comes from the endpoint
    cap = Capsule(0.1, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    res = min_distance(cap, Pose.identity(), Sphere(0.2), at([2.0, 0.0, 0.0]))
    assert res.distance == pytest.approx(1.0 - 0.3, abs=1e-12)
    np.testing.assert_allclose(res.p_robot, [1.1, 0.0, 0.0], atol=1e-12)


def test_crossed_capsules():
    a = Capsule(0.05, np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    b = Capsule(0.05, np.array([0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    res = min_distance(a, Pose.identity(), b, at([0.0, 0.0, 0.5]))
    assert res.distance == pytest.approx(0.4, abs=1e-12)


def _sampled_segment_distance(p1, q1, p2, q2, samples=201):
    s = np.linspace(0.0, 1.0, samples)[:, None]
    a = p1 + s * (q1 - p1)
    b = p2 + s * (q2 - p2)
    return np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1)).min()


_point = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)


@settings(derandomize=True, deadline=None)
@given(_point, _point, _point, _point)
def test_segment_closest_points_beat_dense_sampling(p1, q1, p2, q2):
    c1, c2 = _segment_closest_points(p1, q1, p2, q2)
    assert (np.linalg.norm(c1 - c2)
            <= _sampled_segment_distance(p1, q1, p2, q2) + 1e-12)


def test_segment_closest_points_short_core_is_a_segment():
    # a 3e-5 m core ends 1 - 3e-5 m from the other segment, not 1 m
    short = (np.zeros(3), np.array([3e-5, 0.0, 0.0]))
    other = (np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    for segments in ((short, other), (other, short)):
        c1, c2 = _segment_closest_points(*segments[0], *segments[1])
        assert np.linalg.norm(c1 - c2) == pytest.approx(1.0 - 3e-5, abs=1e-15)


def test_segment_closest_points_short_core_crossed_in_its_middle():
    p1, q1 = np.array([-1.5e-5, 0.0, 0.0]), np.array([1.5e-5, 0.0, 0.0])
    p2, q2 = np.array([0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0])
    c1, c2 = _segment_closest_points(p1, q1, p2, q2)
    assert np.linalg.norm(c1 - c2) <= 1e-15


def test_segment_closest_points_nearly_parallel_sharing_an_end():
    p1, q1 = np.zeros(3), np.array([0.0, 0.0, 1.0])
    p2, q2 = q1, np.array([0.0, 1e-5, 0.0])
    c1, c2 = _segment_closest_points(p1, q1, p2, q2)
    assert np.linalg.norm(c1 - c2) <= 1e-12


def test_segment_closest_points_nearly_parallel_crossing_inside():
    # lines 2e-5 rad apart crossing at the middle of both segments: the
    # closest pair is interior, not at an end
    p1, q1 = np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
    p2, q2 = np.array([-1.0, -1e-5, 0.0]), np.array([1.0, 1e-5, 0.0])
    c1, c2 = _segment_closest_points(p1, q1, p2, q2)
    assert np.linalg.norm(c1 - c2) <= 1e-12
    np.testing.assert_allclose(c1, 0.0, atol=1e-12)


def test_segment_closest_points_parallel_overlap_starts_at_p1():
    p1, q1 = np.zeros(3), np.array([2.0, 0.0, 0.0])
    p2, q2 = np.array([-1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])
    c1, c2 = _segment_closest_points(p1, q1, p2, q2)
    np.testing.assert_array_equal(c1, p1)
    np.testing.assert_array_equal(c2, [0.0, 1.0, 0.0])


def test_distance_symmetry(rng):
    for _ in range(50):
        sa = Sphere(rng.uniform(0.05, 0.3))
        cb = Capsule(rng.uniform(0.05, 0.3), rng.uniform(-1, 1, 3),
                     rng.uniform(-1, 1, 3))
        pa, pb = at(rng.uniform(-2, 2, 3)), at(rng.uniform(-2, 2, 3))
        r1 = min_distance(sa, pa, cb, pb)
        r2 = min_distance(cb, pb, sa, pa)
        assert r1.distance == pytest.approx(r2.distance, abs=1e-12)
        np.testing.assert_allclose(r1.normal, -r2.normal, atol=1e-9)


def test_witness_gap_equals_distance_when_separated(rng):
    for _ in range(50):
        a = Capsule(0.1, rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3))
        b = Sphere(0.1)
        res = min_distance(a, at(rng.uniform(-3, -2, 3)), b,
                           at(rng.uniform(2, 3, 3)))
        assert res.distance > 0.0
        gap = np.linalg.norm(res.p_robot - res.p_obstacle)
        assert gap == pytest.approx(res.distance, abs=1e-9)
        # normal points from the obstacle witness toward the robot witness
        np.testing.assert_allclose(
            res.normal, (res.p_robot - res.p_obstacle) / gap, atol=1e-9)


def test_capsule_needs_distinct_endpoints():
    with pytest.raises(ValueError):
        Capsule(0.1, np.zeros(3), np.zeros(3))


def test_pairwise_distance_ordering(planar2r):
    # one result per collision body, in body order, each naming its closer
    # obstacle: the first sphere sits over link 0, the second over link 1
    obstacles = [Obstacle(Sphere(0.1), at([1.5, 1.0, 0.0])),
                 Obstacle(Sphere(0.1), at([0.5, 1.0, 0.0]))]
    results = closest_pair_per_link(planar2r, np.zeros(2), obstacles).results
    assert [(r.body_index, r.obstacle_index) for r in results] == [
        (0, 1), (1, 0)]


def test_closest_pair_per_link_basic(planar2r):
    # one sphere above the second link
    obstacles = [Obstacle(Sphere(0.1), at([1.5, 0.5, 0.0]))]
    sweep = closest_pair_per_link(planar2r, np.zeros(2), obstacles)
    assert len(sweep.results) == 2
    assert sweep.min_result.link == 1
    # centerline gap 0.5 minus sphere 0.1 minus capsule 0.05
    assert sweep.min_distance == pytest.approx(0.35, abs=1e-12)


def test_closest_pair_per_link_panda(panda7, rng):
    q = rng.uniform(-0.5, 0.5, 7)
    obstacles = [Obstacle(Sphere(0.1), at([0.5, 0.0, 0.5]))]
    sweep = closest_pair_per_link(panda7, q, obstacles)
    assert len(sweep.results) == len(panda7.collision_bodies)
    dists = [r.distance for r in sweep.results]
    assert sweep.min_distance == min(dists)
    assert sweep.results[sweep.min_index].distance == sweep.min_distance


def test_closest_pair_tie_breaks_to_lower_obstacle_index(planar2r):
    dup = Obstacle(Sphere(0.1), at([1.5, 0.5, 0.0]))
    sweep = closest_pair_per_link(planar2r, np.zeros(2), [dup, dup.at(dup.pose)])
    for res in sweep.results:
        assert res.obstacle_index == 0


def test_closest_pair_no_obstacles(planar2r):
    sweep = closest_pair_per_link(planar2r, np.zeros(2), [])
    assert sweep.results == ()
    assert sweep.min_index is None
    assert sweep.min_distance == np.inf


def test_distance_gradient_vs_fd(planar2r, rng):
    obstacles = [Obstacle(Sphere(0.1), at([1.2, 0.8, 0.0]))]
    h = 1e-6
    for _ in range(20):
        q = rng.uniform(-0.6, 0.6, 2)
        sweep = closest_pair_per_link(planar2r, q, obstacles)
        res = sweep.min_result
        if res.distance < 0.05:
            continue
        grad = distance_gradient(planar2r, forward_kinematics(planar2r, q), res)
        for j in range(2):
            dq = np.zeros(2)
            dq[j] = h
            dp = closest_pair_per_link(planar2r, q + dq, obstacles).min_distance
            dm = closest_pair_per_link(planar2r, q - dq, obstacles).min_distance
            assert grad[j] == pytest.approx((dp - dm) / (2 * h), abs=1e-5)


def test_distance_gradient_zero_distance_raises(planar2r):
    # obstacle surface exactly touching the collision capsule surface
    obstacles = [Obstacle(Sphere(0.1), at([0.5, 0.15, 0.0]))]
    sweep = closest_pair_per_link(planar2r, np.zeros(2), obstacles)
    assert sweep.min_distance == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(GradientUndefinedError):
        distance_gradient(planar2r, forward_kinematics(planar2r, np.zeros(2)),
                          sweep.min_result)


def _linearized(res, grad, q, qk):
    """First-order distance prediction d + grad (qk - q), as the planner's
    distance rows use it."""
    return res.distance + grad @ (qk - q)


def test_linearized_distance_at_measurement(planar2r):
    obstacles = [Obstacle(Sphere(0.1), at([1.2, 0.8, 0.0]))]
    q = np.array([0.1, -0.2])
    res = closest_pair_per_link(planar2r, q, obstacles).min_result
    grad = distance_gradient(planar2r, forward_kinematics(planar2r, q), res)
    assert _linearized(res, grad, q, q) == pytest.approx(res.distance)


def test_linearized_distance_first_order(planar2r, rng):
    # halving the step shrinks the Taylor remainder about 4x
    obstacles = [Obstacle(Sphere(0.1), at([1.2, 0.8, 0.0]))]
    q = np.array([0.1, -0.2])
    res = closest_pair_per_link(planar2r, q, obstacles).min_result
    grad = distance_gradient(planar2r, forward_kinematics(planar2r, q), res)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)

    def remainder(step):
        qk = q + step * direction
        true = closest_pair_per_link(planar2r, qk, obstacles).min_distance
        return abs(true - _linearized(res, grad, q, qk))

    r1, r2 = remainder(1e-2), remainder(5e-3)
    assert r2 < 0.35 * r1 + 1e-12


def test_box_capsules_cover_box(rng):
    size = np.array([0.6, 0.4, 0.9])
    caps = box_capsules(size, margin=0.0)
    assert caps
    for _ in range(300):
        p = rng.uniform(-0.5, 0.5, 3) * size
        inside = False
        for cap in caps:
            res = min_distance(Sphere(1e-9), at(p), cap.shape, cap.pose) \
                if isinstance(cap, Obstacle) else None
            if res is None:
                a, b, r = cap.a, cap.b, cap.radius
                t = np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0, 1)
                if np.linalg.norm(p - (a + t * (b - a))) <= r + 1e-9:
                    inside = True
                    break
            elif res.distance <= 1e-6:
                inside = True
                break
        assert inside


def test_box_capsules_margin_inflates():
    caps0 = box_capsules([0.2, 0.2, 0.2], margin=0.0)
    caps1 = box_capsules([0.2, 0.2, 0.2], margin=0.05)
    r0 = caps0[0].radius if not isinstance(caps0[0], Obstacle) else caps0[0].shape.radius
    r1 = caps1[0].radius if not isinstance(caps1[0], Obstacle) else caps1[0].shape.radius
    assert r1 == pytest.approx(r0 + 0.05)
