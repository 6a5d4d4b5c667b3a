import numpy as np
import pytest

from safemanip.model import (
    AUTO_DAMPING,
    body_jacobian,
    forward_kinematics,
    geometric_jacobian,
    point_jacobian,
    point_jacobian_world,
    robust_null_projector,
    robust_pinv,
)
from safemanip.se3 import Pose, pose_diff, se3_log, so3_exp


def fd_jacobian(model, q, h=1e-6):
    """Central-difference world-frame hybrid Jacobian (independent oracle)."""
    n = model.n
    J = np.zeros((6, n))
    for j in range(n):
        dq = np.zeros(n)
        dq[j] = h
        Tp = forward_kinematics(model, q + dq)[-1]
        Tm = forward_kinematics(model, q - dq)[-1]
        J[3:, j] = (Tp.translation - Tm.translation) / (2 * h)
        T0 = forward_kinematics(model, q)[-1]
        dR = (Tp.rotation - Tm.rotation) / (2 * h)
        W = dR @ T0.rotation.T
        J[:3, j] = np.array([W[2, 1], W[0, 2], W[1, 0]])
    return J


def test_planar2r_fk_stretched(planar2r):
    T = forward_kinematics(planar2r, np.zeros(2))[-1]
    np.testing.assert_allclose(T.translation, [2.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-12)


def test_planar2r_fk_first_joint_quarter_turn(planar2r):
    T = forward_kinematics(planar2r, [np.pi / 2, 0.0])[-1]
    np.testing.assert_allclose(T.translation, [0.0, 2.0, 0.0], atol=1e-12)


def test_planar2r_fk_elbow_bend(planar2r):
    # q2 = pi/2 folds the second link upward
    T = forward_kinematics(planar2r, [0.0, np.pi / 2])[-1]
    np.testing.assert_allclose(T.translation, [1.0, 1.0, 0.0], atol=1e-12)


def test_fk_returns_n_plus_one_valid_poses(panda7, rng):
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5, 7)
        frames = forward_kinematics(panda7, q)
        assert len(frames) == 8
        for T in frames:
            assert T.is_valid(tol=1e-9)


@pytest.mark.parametrize("robot_name", ["planar3r", "panda7"])
def test_fk_equals_pose_composition_bitwise(robot_name, request, rng):
    # the chain of composed Pose objects is the reference: forward
    # kinematics skips those objects but must not change a bit
    model = request.getfixturevalue(robot_name)
    for _ in range(50):
        q = rng.uniform(-2.5, 2.5, model.n)
        T = Pose.identity()
        expect = []
        for joint, qi in zip(model.joints, q):
            T = T @ joint.origin @ Pose(so3_exp(joint.axis * qi), np.zeros(3))
            expect.append(T)
        expect.append(T @ model.ee_frame)
        for got, want in zip(forward_kinematics(model, q), expect):
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)


@pytest.mark.parametrize("robot_name", ["planar2r", "planar3r", "panda7"])
def test_frames_carry_read_only_world_link_arrays(robot_name, request, rng):
    # each array row is the world quantity recomputed from its own frame
    model = request.getfixturevalue(robot_name)
    for _ in range(50):
        frames = forward_kinematics(model, rng.uniform(-2.5, 2.5, model.n))
        for i, (joint, link) in enumerate(zip(model.joints, model.links)):
            R = frames[i].rotation
            assert np.array_equal(frames.axes[i], R @ joint.axis)
            assert np.array_equal(frames.origins[i], frames[i].translation)
            assert np.array_equal(frames.coms[i], frames[i].apply(link.com))
            assert np.array_equal(frames.inertias[i], R @ link.inertia @ R.T)
        assert frames.inertias.shape == (model.n, 3, 3)
        for rows in (frames.axes, frames.origins, frames.coms, frames.inertias):
            assert rows.shape[0] == model.n
            with pytest.raises(ValueError):
                rows[0] = 0.0


def test_fk_rejects_wrong_dimension(planar2r):
    with pytest.raises(ValueError):
        forward_kinematics(planar2r, np.zeros(3))


def test_planar2r_jacobian_stretched(planar2r):
    J = geometric_jacobian(planar2r, forward_kinematics(planar2r, np.zeros(2)))
    np.testing.assert_allclose(J[3:, 0], [0.0, 2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(J[3:, 1], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(J[:3, 0], [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(J[:3, 1], [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("robot_name", ["planar2r", "planar3r", "panda7"])
def test_jacobian_matches_finite_differences(robot_name, request, rng):
    model = request.getfixturevalue(robot_name)
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, model.n)
        J = geometric_jacobian(model, forward_kinematics(model, q))
        np.testing.assert_allclose(J, fd_jacobian(model, q), atol=1e-5)


def test_jacobian_intermediate_frame_zero_downstream(panda7, rng):
    q = rng.uniform(-1.0, 1.0, 7)
    J3 = geometric_jacobian(panda7, forward_kinematics(panda7, q), frame=3)
    np.testing.assert_allclose(J3[:, 4:], 0.0, atol=0.0)
    assert np.linalg.norm(J3[:, :4]) > 0.0


def test_jacobian_invalid_frame(planar2r):
    with pytest.raises(ValueError):
        geometric_jacobian(planar2r, forward_kinematics(planar2r, np.zeros(2)),
                           frame=5)


def test_point_jacobian_matches_fd(planar3r, rng):
    h = 1e-6
    point = np.array([0.3, 0.1, 0.0])
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, 3)
        for link in range(3):
            Jp = point_jacobian(planar3r, forward_kinematics(planar3r, q), link,
                                point)
            Jfd = np.zeros((3, 3))
            for j in range(3):
                dq = np.zeros(3)
                dq[j] = h
                pp = forward_kinematics(planar3r, q + dq)[link].apply(point)
                pm = forward_kinematics(planar3r, q - dq)[link].apply(point)
                Jfd[:, j] = (pp - pm) / (2 * h)
            np.testing.assert_allclose(Jp, Jfd, atol=1e-5)


def test_point_jacobian_world_agrees_with_local(planar3r, rng):
    q = rng.uniform(-1.0, 1.0, 3)
    frames = forward_kinematics(planar3r, q)
    local = np.array([0.2, -0.1, 0.05])
    world = frames[1].apply(local)
    np.testing.assert_allclose(
        point_jacobian(planar3r, frames, 1, local),
        point_jacobian_world(planar3r, frames, 1, world), atol=1e-12)


def test_body_jacobian_first_order_pose_diff(panda7, rng):
    # central difference of the pose log along qd recovers J_b qd
    eps = 1e-4
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, 7)
        qd = rng.uniform(-1.0, 1.0, 7)
        Tm = forward_kinematics(panda7, q - eps * qd)[-1]
        Tp = forward_kinematics(panda7, q + eps * qd)[-1]
        Jb = body_jacobian(panda7, forward_kinematics(panda7, q))
        np.testing.assert_allclose(pose_diff(Tm, Tp) / (2 * eps), Jb @ qd,
                                   atol=1e-6)


def test_body_and_hybrid_jacobian_agree_at_identity_rotation(planar2r):
    # planar chain at q = 0 has identity EE rotation
    frames = forward_kinematics(planar2r, np.zeros(2))
    np.testing.assert_allclose(body_jacobian(planar2r, frames),
                               geometric_jacobian(planar2r, frames), atol=1e-12)


def test_robust_pinv_square():
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    np.testing.assert_allclose(robust_pinv(A), np.linalg.inv(A), atol=1e-12)


def test_robust_pinv_wide_moore_penrose(rng):
    for _ in range(20):
        J = rng.standard_normal((3, 7))
        Jp = robust_pinv(J)
        np.testing.assert_allclose(J @ Jp @ J, J, atol=1e-9)
        np.testing.assert_allclose(Jp @ J @ Jp, Jp, atol=1e-9)
        np.testing.assert_allclose((J @ Jp).T, J @ Jp, atol=1e-9)
        np.testing.assert_allclose((Jp @ J).T, Jp @ J, atol=1e-9)


def test_robust_pinv_zero_matrix_is_zero():
    J = np.zeros((2, 3))
    Jp = robust_pinv(J)
    np.testing.assert_allclose(Jp, 0.0, atol=1e-12)


def test_damped_pinv_formula(rng):
    # smallest singular value under the switch threshold: damped branch
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    J = U @ np.diag([1.0, 0.5, 5e-5]) @ V.T
    expect = J.T @ np.linalg.inv(J @ J.T + AUTO_DAMPING ** 2 * np.eye(3))
    np.testing.assert_allclose(robust_pinv(J), expect, rtol=1e-6)


def test_robust_pinv_switches_near_singularity():
    J = np.diag([1.0, 1e-6])  # below the switch threshold
    Jp = robust_pinv(J)
    # damped inverse stays bounded: sigma/(sigma^2 + mu^2) <= 1/(2 mu)
    assert np.abs(Jp).max() < 1.0 / (2 * 1e-6) + 1.0
    # well-conditioned input falls through to the exact inverse
    np.testing.assert_allclose(robust_pinv(np.eye(3)), np.eye(3), atol=1e-12)


def test_null_projector_properties(rng):
    for _ in range(20):
        J = rng.standard_normal((3, 7))
        N = robust_null_projector(J)
        np.testing.assert_allclose(J @ N, 0.0, atol=1e-8)
        np.testing.assert_allclose(N @ N, N, atol=1e-8)
        np.testing.assert_allclose(N.T, N, atol=1e-8)


def test_null_projector_square_full_rank_is_zero():
    N = robust_null_projector(np.array([[1.0, 0.2], [0.0, 1.0]]))
    np.testing.assert_allclose(N, 0.0, atol=1e-12)


def test_null_projector_row_vector():
    N = robust_null_projector(np.array([1.0, 0.0]))
    np.testing.assert_allclose(N, np.diag([0.0, 1.0]), atol=1e-12)


def test_robust_null_projector_rank_deficient():
    J = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    N = robust_null_projector(J)  # must not raise
    # motion along (1, -1, 0) and (0, 0, 1) stays in the null space
    np.testing.assert_allclose(J @ N @ np.array([1.0, -1.0, 0.0]), 0.0,
                               atol=1e-6)
    np.testing.assert_allclose(N @ np.array([0.0, 0.0, 1.0]),
                               [0.0, 0.0, 1.0], atol=1e-6)


def test_null_space_motion_keeps_ee_still(panda7, rng):
    # redundant arm: project a random qd, EE twist should vanish
    for _ in range(10):
        q = rng.uniform(-1.0, 1.0, 7)
        J = geometric_jacobian(panda7, forward_kinematics(panda7, q))
        N = robust_null_projector(J)
        qd = N @ rng.standard_normal(7)
        np.testing.assert_allclose(J @ qd, 0.0, atol=1e-8)
