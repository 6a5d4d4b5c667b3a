import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import min_result
from safemanip.geometry import (
    Capsule,
    DistanceResult,
    GradientUndefinedError,
    Obstacle,
    Sphere,
    box_capsules,
    closest_pair_per_link,
    distance_gradient,
    _core_segment,
    _pairwise,
    _segment_closest_points,
)
from safemanip.model import forward_kinematics
from safemanip.se3 import Pose


def at(xyz):
    return Pose(np.eye(3), np.asarray(xyz, float))


def min_distance(shape_a, pose_a, shape_b, pose_b):
    """The distance kernel on one pair of placed primitives: A is the
    robot-side body, B the obstacle."""
    d, p_robot, p_obstacle, normal = _pairwise([_core_segment(shape_a, pose_a)],
                                               [_core_segment(shape_b, pose_b)])
    return DistanceResult(float(d[0, 0]), p_robot[0, 0], p_obstacle[0, 0],
                          normal[0, 0], link=-1)


def test_sphere_sphere_example():
    res = min_distance(Sphere(0.2), at([0, 0, 0]), Sphere(0.3), at([0, 0, 1]))
    assert res.distance == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(res.normal, [0.0, 0.0, -1.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.p_robot, [0.0, 0.0, 0.2], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.p_obstacle, [0.0, 0.0, 0.7], rtol=0.0, atol=1e-12)


def test_sphere_sphere_penetration():
    res = min_distance(Sphere(0.5), at([0, 0, 0]), Sphere(0.5), at([0.8, 0, 0]))
    assert res.distance == pytest.approx(-0.2, abs=1e-12)
    # witnesses are the deepest points, still along the center line
    np.testing.assert_allclose(res.normal, [-1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.p_robot, [0.5, 0.0, 0.0], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(res.p_obstacle, [0.3, 0.0, 0.0], rtol=0.0, atol=1e-12)


def test_concentric_spheres_fallback_normal():
    res = min_distance(Sphere(0.2), at([0, 0, 0]), Sphere(0.3), at([0, 0, 0]))
    assert res.distance == pytest.approx(-0.5, abs=1e-12)
    assert np.linalg.norm(res.normal) == pytest.approx(1.0)


def test_parallel_capsules_example():
    a = Capsule(0.1, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    b = Capsule(0.1, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    res = min_distance(a, at([0, 0, 0]), b, at([0, 1, 0]))
    assert res.distance == pytest.approx(0.8, abs=1e-12)
    np.testing.assert_allclose(res.normal, [0.0, -1.0, 0.0], rtol=0.0, atol=1e-12)


def test_capsule_sphere_beyond_endpoint():
    # sphere past the capsule end: core distance comes from the endpoint
    cap = Capsule(0.1, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    res = min_distance(cap, Pose.identity(), Sphere(0.2), at([2.0, 0.0, 0.0]))
    assert res.distance == pytest.approx(1.0 - 0.3, abs=1e-12)
    np.testing.assert_allclose(res.p_robot, [1.1, 0.0, 0.0], rtol=0.0, atol=1e-12)


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


def test_batched_kernel_rows_match_single_pairs_and_the_sweep(panda7):
    rng = np.random.default_rng(7)
    p1, q1, p2, q2 = rng.uniform(-1.0, 1.0, (4, 300, 3))
    q1[:20] = p1[:20]        # point cores: 0-9 point-segment, 10-19 point-point
    q2[10:30] = p2[10:30]    # 20-29 segment-point
    # 30-79: segment 2 turned 1e-12 to 2.5e-5 rad off segment 1's direction
    for i, angle in zip(range(30, 80), np.geomspace(1e-12, 2.5e-5, 50)):
        d = q1[i] - p1[i]
        side = np.cross(d, rng.standard_normal(3))
        side *= np.linalg.norm(d) / np.linalg.norm(side)
        q2[i] = p2[i] + rng.uniform(0.2, 2.0) * (np.cos(angle) * d
                                                 + np.sin(angle) * side)
    c1, c2 = _segment_closest_points(p1, q1, p2, q2)
    for i in range(len(p1)):
        a1, a2 = _segment_closest_points(p1[i], q1[i], p2[i], q2[i])
        assert c1[i].tobytes() == a1.tobytes() and c2[i].tobytes() == a2.tobytes()
        assert (np.linalg.norm(c1[i] - c2[i]) <= _sampled_segment_distance(
            p1[i], q1[i], p2[i], q2[i]) + 1e-12)

    # the plan_* scene: a sphere, a shelf box (8 capsules) and a bar
    obstacles = [Obstacle(Sphere(0.08), at([0.45, 0.15, 0.55])),
                 *(Obstacle(cap, at([0.55, -0.05, 0.15]))
                   for cap in box_capsules([0.3, 0.6, 0.04])),
                 Obstacle(Capsule(0.02, [0.0, -0.25, 0.0], [0.0, 0.25, 0.0]),
                          at([0.15, 0.0, 0.95]))]
    assert len(obstacles) == 10
    q0 = np.array([0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7])
    for q in [q0, *(q0 + rng.uniform(-0.8, 0.8, (10, 7)))]:
        frames = forward_kinematics(panda7, q)
        sweep = closest_pair_per_link(panda7, q, obstacles)
        assert len(sweep.results) == len(panda7.collision_bodies)
        for bi, (body, res) in enumerate(zip(panda7.collision_bodies,
                                             sweep.results)):
            pairs = [min_distance(body.shape, frames[body.link] @ body.local,
                                  o.shape, o.pose) for o in obstacles]
            oi = int(np.argmin([pair.distance for pair in pairs]))
            assert type(res.distance) is float
            assert (res.link, res.body_index, res.obstacle_index) == (
                body.link, bi, oi)
            assert res.distance == pairs[oi].distance
            for name in ("p_robot", "p_obstacle", "normal"):
                np.testing.assert_array_equal(getattr(res, name),
                                              getattr(pairs[oi], name))


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
    np.testing.assert_allclose(c1, 0.0, rtol=0.0, atol=1e-12)


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
        np.testing.assert_allclose(r1.normal, -r2.normal, rtol=0.0, atol=1e-9)


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
            res.normal, (res.p_robot - res.p_obstacle) / gap, rtol=0.0, atol=1e-9)


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
    assert min_result(sweep).link == 1
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
    sweep = closest_pair_per_link(planar2r, np.zeros(2),
                                  [dup, Obstacle(dup.shape, dup.pose)])
    for res in sweep.results:
        assert res.obstacle_index == 0


def test_closest_pair_no_obstacles(planar2r):
    sweep = closest_pair_per_link(planar2r, np.zeros(2), [])
    assert sweep.results == ()
    assert sweep.min_index is None
    assert sweep.min_distance == np.inf


def test_distance_gradient_vs_fd(request, rng):
    # a 0.08 m sphere anywhere in the unit cube; the difference is taken on
    # the body closest at q, even where another body is closest at q +- h
    h = 1e-6
    for name in ("planar2r", "planar3r", "panda7"):
        model = request.getfixturevalue(name)
        checked = 0
        for _ in range(500):
            q = rng.uniform(-2.5, 2.5, model.n)
            obstacles = [Obstacle(Sphere(0.08), at(rng.uniform(-1.0, 1.0, 3)))]
            res = min_result(closest_pair_per_link(model, q, obstacles))
            if res.distance < 0.05:
                continue
            grad = distance_gradient(model, forward_kinematics(model, q), res)
            for j in range(model.n):
                dq = np.zeros(model.n)
                dq[j] = h
                dp = closest_pair_per_link(model, q + dq, obstacles).results
                dm = closest_pair_per_link(model, q - dq, obstacles).results
                fd = (dp[res.body_index].distance
                      - dm[res.body_index].distance) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-5)
            checked += 1
            if checked == 25:
                break
        assert checked == 25


def test_distance_gradient_zero_distance_raises(planar2r):
    # obstacle surface exactly touching the collision capsule surface
    obstacles = [Obstacle(Sphere(0.1), at([0.5, 0.15, 0.0]))]
    sweep = closest_pair_per_link(planar2r, np.zeros(2), obstacles)
    assert sweep.min_distance == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(GradientUndefinedError):
        distance_gradient(planar2r, forward_kinematics(planar2r, np.zeros(2)),
                          min_result(sweep))


def _linearized(res, grad, q, qk):
    """First-order distance prediction d + grad (qk - q), as the planner's
    distance rows use it."""
    return res.distance + grad @ (qk - q)


def test_linearized_distance_at_measurement(planar2r):
    obstacles = [Obstacle(Sphere(0.1), at([1.2, 0.8, 0.0]))]
    q = np.array([0.1, -0.2])
    res = min_result(closest_pair_per_link(planar2r, q, obstacles))
    grad = distance_gradient(planar2r, forward_kinematics(planar2r, q), res)
    assert _linearized(res, grad, q, q) == pytest.approx(res.distance)


def test_linearized_distance_first_order(planar2r, rng):
    # halving the step shrinks the Taylor remainder about 4x
    obstacles = [Obstacle(Sphere(0.1), at([1.2, 0.8, 0.0]))]
    q = np.array([0.1, -0.2])
    res = min_result(closest_pair_per_link(planar2r, q, obstacles))
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


def test_box_capsules_cover_box_wider_cross_side_second():
    # the longest side is z and the wider cross side y comes after x, so the
    # strips are laid along y; every corner, the farthest point of the box
    # from its strip's axis, lies inside the union of the capsules
    size = np.array([0.25, 0.5, 1.0])
    caps = box_capsules(size)
    assert len(caps) == 2
    for cap in caps:
        assert cap.a[0] == cap.b[0] == 0.0 and cap.a[1] == cap.b[1] != 0.0
        assert (cap.a[2], cap.b[2]) == (-0.5, 0.5)
    for signs in itertools.product((-0.5, 0.5), repeat=3):
        corner = np.array(signs) * size
        assert min(np.linalg.norm(corner - _closest_on_axis(corner, cap))
                   - cap.radius for cap in caps) <= 1e-12


def _closest_on_axis(p, cap):
    t = np.clip((p - cap.a) @ (cap.b - cap.a)
                / ((cap.b - cap.a) @ (cap.b - cap.a)), 0.0, 1.0)
    return cap.a + t * (cap.b - cap.a)


def test_box_capsules_margin_inflates():
    caps0 = box_capsules([0.2, 0.2, 0.2], margin=0.0)
    caps1 = box_capsules([0.2, 0.2, 0.2], margin=0.05)
    r0 = caps0[0].radius if not isinstance(caps0[0], Obstacle) else caps0[0].shape.radius
    r1 = caps1[0].radius if not isinstance(caps1[0], Obstacle) else caps1[0].shape.radius
    assert r1 == pytest.approx(r0 + 0.05)
