import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import is_rigid_transform
from safemanip.se3 import (
    ANGULAR,
    LINEAR,
    Pose,
    hat,
    interpolate_pose,
    pose_diff,
    pose_error_norm,
    se3_exp,
    se3_log,
    so3_exp,
    so3_log,
    vee,
)


def random_pose(rng):
    return se3_exp(rng.uniform(-2.0, 2.0, 6))


def test_hat_vee_roundtrip():
    w = np.array([0.3, -1.2, 2.5])
    S = hat(w)
    np.testing.assert_allclose(S + S.T, 0.0, rtol=0.0, atol=0.0)
    np.testing.assert_allclose(vee(S), w)
    np.testing.assert_allclose(S @ np.array([1.0, 0.0, 0.0]),
                               np.cross(w, [1.0, 0.0, 0.0]))


def test_so3_exp_log_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = rng.uniform(-1.0, 1.0, 3)
        w *= rng.uniform(0.0, 3.1) / max(np.linalg.norm(w), 1e-12)
        R = so3_exp(w)
        np.testing.assert_allclose(R.T @ R, np.eye(3), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(so3_log(R), w, rtol=0.0, atol=1e-8)


def test_so3_log_near_pi():
    # the pi branch needs the axis-extraction path
    for axis in (np.array([1.0, 0.0, 0.0]),
                 np.array([0.0, 1.0, 0.0]),
                 np.array([0.6, 0.0, 0.8])):
        w = np.pi * axis
        R = so3_exp(w)
        w_back = so3_log(R)
        # at exactly pi the sign of the axis is a convention; compare rotations
        np.testing.assert_allclose(so3_exp(w_back), R, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(np.linalg.norm(w_back), np.pi, rtol=0.0, atol=1e-8)


def test_se3_exp_log_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(200):
        xi = rng.uniform(-2.0, 2.0, 6)
        # keep the rotation on the principal branch so the log is exact
        wn = np.linalg.norm(xi[ANGULAR])
        if wn > 3.1:
            xi[ANGULAR] *= 3.1 / wn
        T = se3_exp(xi)
        assert is_rigid_transform(T, tol=1e-10)
        np.testing.assert_allclose(se3_log(T), xi, rtol=0.0, atol=1e-8)


def test_se3_log_inverts_exp_beyond_pi():
    # outside the principal branch only exp(log(T)) == T survives
    rng = np.random.default_rng(14)
    for _ in range(50):
        xi = rng.uniform(-4.0, 4.0, 6)
        T = se3_exp(xi)
        back = se3_exp(se3_log(T))
        np.testing.assert_allclose(back.rotation, T.rotation, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(back.translation, T.translation, rtol=0.0, atol=1e-8)


@settings(derandomize=True, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.floats(1e-12, np.pi - 1e-12),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_se3_log_inverts_exp_property(axis, angle, v):
    # se3_exp and se3_log both switch to series near 0, so the round trip
    # keeps its digits over the whole band.  At pi itself the sign of the
    # axis is a convention (test_so3_log_near_pi).
    axis = np.array(axis)
    assume(np.linalg.norm(axis) > 0.1)
    xi = np.concatenate([angle * axis / np.linalg.norm(axis), v])
    np.testing.assert_allclose(se3_log(se3_exp(xi)), xi, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("xi", [
    [0.0, 0.0, 1e-8, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1e-8, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1e-6, 0.0, 1.0, 0.0],
    [0.6 * (np.pi - 1e-5), 0.0, 0.8 * (np.pi - 1e-5), 0.0, 0.0, 0.0],
], ids=["nan-at-1e-8", "1e-8-with-translation", "1e-6", "pi-minus-1e-5"])
def test_se3_log_inverts_exp_near_0_and_pi(xi):
    xi = np.array(xi)
    np.testing.assert_allclose(se3_log(se3_exp(xi)), xi, rtol=0.0, atol=1e-12)


def test_se3_exp_pure_translation():
    T = se3_exp(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]))
    np.testing.assert_allclose(T.rotation, np.eye(3))
    np.testing.assert_allclose(T.translation, [1.0, 2.0, 3.0])


def test_twist_ordering_is_angular_first():
    xi = np.zeros(6)
    xi[ANGULAR] = [0.0, 0.0, np.pi / 2]
    T = se3_exp(xi)
    # rotation about z only, no translation
    np.testing.assert_allclose(T.translation, 0.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(T.rotation @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                               rtol=0.0, atol=1e-12)
    assert LINEAR == slice(3, 6)


def test_pose_compose_inverse():
    rng = np.random.default_rng(5)
    for _ in range(50):
        A, B = random_pose(rng), random_pose(rng)
        C = A @ B
        np.testing.assert_allclose(C.apply([0, 0, 0]),
                                   A.apply(B.apply([0, 0, 0])), rtol=0.0, atol=1e-12)
        I1 = A @ A.inverse()
        np.testing.assert_allclose(I1.rotation, np.eye(3), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(I1.translation, 0.0, rtol=0.0, atol=1e-12)


def test_pose_from_rpy_yaw():
    T = Pose.from_rpy((1.0, 0.0, 0.0), (0.0, 0.0, np.pi / 2))
    np.testing.assert_allclose(T.apply([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0],
                               rtol=0.0, atol=1e-12)


def test_pose_diff_identity_and_consistency():
    rng = np.random.default_rng(6)
    T = random_pose(rng)
    np.testing.assert_allclose(pose_diff(T, T), 0.0, rtol=0.0, atol=1e-12)
    # T1 exp(diff) recovers T2
    T2 = random_pose(rng)
    xi = pose_diff(T, T2)
    back = T @ se3_exp(xi)
    np.testing.assert_allclose(back.rotation, T2.rotation, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(back.translation, T2.translation, rtol=0.0, atol=1e-9)
    assert pose_error_norm(T, T2) == pytest.approx(np.linalg.norm(xi))


def test_interpolate_pose_endpoints_and_midpoint():
    rng = np.random.default_rng(7)
    Ta, Tb = random_pose(rng), random_pose(rng)
    for s, ref in ((0.0, Ta), (1.0, Tb)):
        T = interpolate_pose(Ta, Tb, s)
        np.testing.assert_allclose(T.rotation, ref.rotation, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(T.translation, ref.translation, rtol=0.0, atol=1e-12)
    # geodesic midpoint is equidistant in the log metric
    Tm = interpolate_pose(Ta, Tb, 0.5)
    np.testing.assert_allclose(pose_error_norm(Ta, Tm),
                               pose_error_norm(Tm, Tb), rtol=0.0, atol=1e-9)
