import dataclasses

import numpy as np
import pytest

from conftest import gravity_torque
from safemanip.dynamics import (
    KinState,
    bias_forces,
    forward_dynamics,
    inverse_dynamics,
    jacobian_dot_qd,
    mass_matrix,
    mdot_qd,
    task_dynamics_from_jacobian,
)
from safemanip.model import Joint, body_jacobian, forward_kinematics
from safemanip.robots import robot_from_dict
from safemanip.se3 import Pose, cross3, hat, so3_exp
from safemanip.sim import rk4_step


_FD_STEP = 1e-6


def _mass_matrix_gradient(model, q):
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


def coriolis_matrix(model, q, qd):
    """Christoffel-form C(q, qd) from central differences of M, independent
    of the analytic RNEA and Mdot code it checks: C qd equals the velocity
    bias and (Mdot - 2C) is skew-symmetric."""
    qd = np.asarray(qd, dtype=float).reshape(-1)
    dM = _mass_matrix_gradient(model, q)
    mdot = np.einsum("kij,k->ij", dM, qd)
    t2 = np.einsum("jik,k->ij", dM, qd)
    t3 = np.einsum("ijk,k->ij", dM, qd)
    return 0.5 * (mdot + t2 - t3)


# Per-link recursions, the reference for the prefix-sum kernels: they walk
# the chain link by link in each link's own terms (joint origins, COMs,
# classical accelerations) and share no code with the kernels they check.

def ref_frames(model, q):
    """Poses and world link quantities by composing one joint at a time."""
    poses, axes, origins, coms, inertias = [], [], [], [], []
    R, t = np.eye(3), np.zeros(3)
    for joint, link, qi in zip(model.joints, model.links, q):
        o = joint.origin
        t = R @ o.translation + t
        R = (R @ o.rotation) @ so3_exp(joint.axis * qi)
        poses.append(Pose(R, t))
        axes.append(R @ joint.axis)
        origins.append(t)
        coms.append(R @ link.com + t)
        inertias.append(R @ link.inertia @ R.T)
    poses.append(poses[-1] @ model.ee_frame)
    return poses, np.array(axes), np.array(origins), np.array(coms), np.array(
        inertias)


def ref_mass_matrix(model, frames):
    """Composite rigid bodies, one column at a time."""
    _, axes, origins, coms, inertias = frames
    n = model.n
    Io = np.zeros((n, 6, 6))
    for i, link in enumerate(model.links):
        chat = hat(coms[i])
        m = link.mass
        Io[i, :3, :3] = inertias[i] - m * (chat @ chat)
        Io[i, :3, 3:] = m * chat
        Io[i, 3:, :3] = -m * chat
        Io[i, 3:, 3:] = m * np.eye(3)
    Ic = np.cumsum(Io[::-1], axis=0)[::-1]
    S = np.empty((n, 6))
    S[:, :3] = axes
    for j in range(n):
        S[j, 3:] = cross3(origins[j], axes[j])
    M = np.zeros((n, n))
    for j in range(n):
        y = Ic[j] @ S[j]
        M[: j + 1, j] = S[: j + 1] @ y
        M[j, : j + 1] = M[: j + 1, j]
    return M


def ref_forward_pass(frames, qd, qdd, a_base):
    """Angular velocity, velocity of the joint origin, angular acceleration
    and acceleration of the joint origin of each link, base to tip."""
    _, axes, origins, _, _ = frames
    omega, v_origin, alpha, a_origin = [], [], [], []
    w = v = al = o_prev = np.zeros(3)
    ao = a_base
    for i, (axis, o) in enumerate(zip(axes, origins)):
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


def ref_inverse_dynamics(model, frames, qd, qdd):
    """Newton-Euler, tip to base, moments about each joint origin."""
    _, axes, origins, coms, inertias = frames
    n = model.n
    omega, _, alpha, a_origin = ref_forward_pass(frames, qd, qdd,
                                                 -model.gravity)
    tau = np.zeros(n)
    f_child = n_child = o_child = np.zeros(3)
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


def ref_mdot_qd(model, frames, qd):
    """``S_i' F_i + Sdot_i' H_i``, subtree wrench and momentum about o_i."""
    _, axes, origins, coms, inertias = frames
    omega, v_origin, alpha, a_origin = ref_forward_pass(
        frames, qd, np.zeros(model.n), np.zeros(3))
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
        moment = (inertias[i] @ alpha[i] + cross3(w, Iw) + cross3(rc, F)
                  + moment + cross3(d, force))
        ang_momentum = Iw + cross3(rc, p) + ang_momentum + cross3(d, momentum)
        force = F + force
        momentum = p + momentum
        out[i] = axes[i] @ (moment + cross3(ang_momentum, w)
                            + cross3(momentum, v_origin[i]))
        o_child = origins[i]
    return out


def ref_jacobian_dot_qd(model, frames, qd):
    """``(R' alpha, R' (a_ee - w x v_ee))`` from the last joint origin."""
    poses, _, origins, _, _ = frames
    omega, v_origin, alpha, a_origin = ref_forward_pass(
        frames, qd, np.zeros(model.n), np.zeros(3))
    ee = poses[-1]
    w, al = omega[-1], alpha[-1]
    r = ee.translation - origins[-1]
    linear = a_origin[-1] + cross3(al, r) - cross3(w, v_origin[-1])
    RT = ee.rotation.T
    return np.concatenate([RT @ al, RT @ linear])


def assert_close(got, want, rel):
    """Equal to ``rel`` times the largest magnitude of ``want``."""
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=rel * np.abs(want).max())


@pytest.fixture(scope="module")
def panda7_random_axes(panda7):
    """panda7 with a random unit axis at every joint: no axis on a
    coordinate axis, so no product of the kernels is exact by accident."""
    axes = np.random.default_rng(5).standard_normal((panda7.n, 3))
    return dataclasses.replace(panda7, joints=tuple(
        Joint(axis / np.linalg.norm(axis), joint.origin)
        for axis, joint in zip(axes, panda7.joints)))


@pytest.mark.parametrize("robot_name", ["planar2r", "planar3r", "panda7",
                                        "panda7_random_axes"])
def test_kernels_match_per_link_recursions(robot_name, request, rng):
    model = request.getfixturevalue(robot_name)
    for _ in range(200):
        q = rng.uniform(-2.5, 2.5, model.n)
        qd = rng.uniform(-2.0, 2.0, model.n)
        qdd = rng.uniform(-5.0, 5.0, model.n)
        frames = forward_kinematics(model, q)
        ref = ref_frames(model, q)
        for got, want in zip(frames, ref[0]):
            assert_close(got.rotation, want.rotation, 1e-13)
            assert_close(got.translation, want.translation, 1e-13)
        for got, want in zip((frames.axes, frames.origins, frames.coms,
                              frames.inertias), ref[1:]):
            assert_close(got, want, 1e-13)
        assert_close(mass_matrix(model, frames), ref_mass_matrix(model, ref),
                     1e-13)
        assert_close(inverse_dynamics(model, frames, qd, qdd),
                     ref_inverse_dynamics(model, ref, qd, qdd), 1e-13)
        assert_close(bias_forces(model, frames, qd),
                     ref_inverse_dynamics(model, ref, qd, np.zeros(model.n)),
                     1e-13)
        assert_close(mdot_qd(model, frames, qd), ref_mdot_qd(model, ref, qd),
                     1e-13)
        assert_close(jacobian_dot_qd(model, frames, qd),
                     ref_jacobian_dot_qd(model, ref, qd), 1e-13)


@pytest.mark.parametrize("robot_name", ["planar3r_gravity", "panda7",
                                        "panda7_random_axes"])
def test_inverse_dynamics_is_mass_matrix_plus_bias(robot_name, request, rng):
    model = request.getfixturevalue(robot_name)
    for _ in range(50):
        q = rng.uniform(-2.5, 2.5, model.n)
        qd = rng.uniform(-2.0, 2.0, model.n)
        qdd = rng.uniform(-5.0, 5.0, model.n)
        kin = KinState.of(model, q, qd)
        assert_close(inverse_dynamics(model, kin.frames, qd, qdd),
                     kin.M @ qdd + kin.bias, 1e-12)


def test_spatial_terms_are_cached_read_only(panda7, rng):
    # M, the bias, Mdot qd and Jdot qd of one state share one build of the
    # joint motion subspaces and link spatial inertias
    kin = KinState.of(panda7, rng.uniform(-2.5, 2.5, 7), rng.uniform(-2, 2, 7))
    cached = kin.frames.spatial
    mdot_qd(panda7, kin.frames, kin.qd)
    jacobian_dot_qd(panda7, kin.frames, kin.qd)
    assert kin.frames.spatial is cached
    S, Io = cached
    assert S.shape == (7, 6) and Io.shape == (7, 6, 6)
    for rows in cached:
        with pytest.raises(ValueError):
            rows[0] = 0.0


def ee_task_dynamics(model, q, qd):
    """Task-space dynamics at the end effector (body-frame Jacobian) and
    whether they were damped."""
    kin = KinState.of(model, q, qd)
    return task_dynamics_from_jacobian(
        kin, body_jacobian(model, kin.frames),
        jacobian_dot_qd(model, kin.frames, kin.qd))


def test_planar2r_mass_matrix_stretched(planar2r):
    # point masses at the link tips, q2 = 0
    M = mass_matrix(planar2r, forward_kinematics(planar2r, np.zeros(2)))
    np.testing.assert_allclose(M, [[5.0, 2.0], [2.0, 1.0]], rtol=0.0,
                               atol=1e-9)


def test_planar2r_mass_matrix_analytic(planar2r, rng):
    # textbook closed form for unit lengths and unit tip masses
    for _ in range(20):
        q1, q2 = rng.uniform(-np.pi, np.pi, 2)
        c2 = np.cos(q2)
        expect = np.array([[3.0 + 2.0 * c2, 1.0 + c2],
                           [1.0 + c2, 1.0]])
        M = mass_matrix(planar2r, forward_kinematics(planar2r, [q1, q2]))
        np.testing.assert_allclose(M, expect, rtol=0.0, atol=1e-9)


def test_planar2r_gravity_stretched(planar2r_gravity):
    g = gravity_torque(planar2r_gravity,
                       forward_kinematics(planar2r_gravity, np.zeros(2)))
    np.testing.assert_allclose(g, [29.43, 9.81], rtol=0.0, atol=1e-9)


def potential_energy(model, q):
    """Gravitational potential -sum_i m_i g . c_i of the link COMs c_i."""
    weighted = forward_kinematics(model, q).coms * model.masses[:, None]
    return -float(np.sum(weighted * model.gravity[None, :], axis=(0, 1)))


def gravity_fd_error(model, q, h=1e-6):
    """Largest gap between the gravity torque and the central difference of
    the potential energy."""
    g = gravity_torque(model, forward_kinematics(model, q))
    g_fd = np.empty(model.n)
    for j in range(model.n):
        dq = np.zeros(model.n)
        dq[j] = h
        g_fd[j] = (potential_energy(model, q + dq)
                   - potential_energy(model, q - dq)) / (2 * h)
    return float(np.abs(g - g_fd).max())


@pytest.mark.parametrize("robot_name",
                         ["planar2r_gravity", "planar3r_gravity", "panda7"])
def test_gravity_is_potential_gradient(robot_name, request, rng):
    model = request.getfixturevalue(robot_name)
    for _ in range(25):
        assert gravity_fd_error(model, rng.uniform(-2.5, 2.5, model.n)) <= 1e-5


def test_gravity_check_catches_a_wrong_gravity_torque(request, rng,
                                                      monkeypatch):
    cases = []
    for name in ("planar2r_gravity", "planar3r_gravity", "panda7"):
        model = request.getfixturevalue(name)
        cases += [(model, rng.uniform(-2.5, 2.5, model.n)) for _ in range(5)]
    assert all(gravity_fd_error(m, q) <= 1e-5 for m, q in cases)
    # the oracle reads this module's binding of gravity_torque
    real = gravity_torque
    monkeypatch.setitem(globals(), "gravity_torque",
                        lambda m, frames: real(m, frames) + 1e-3)
    assert all(gravity_fd_error(m, q) > 1e-5 for m, q in cases)


def test_mass_matrix_vs_fd_kinetic_energy(planar2r, rng):
    # independent oracle: qd^T M qd == sum m ||v_com||^2 with v_com from FK
    h = 1e-6
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-2.0, 2.0, 2)
        ke2 = 0.0
        for i, link in enumerate(planar2r.links):
            cp = forward_kinematics(planar2r, q + h * qd)[i].apply(link.com)
            cm = forward_kinematics(planar2r, q - h * qd)[i].apply(link.com)
            v = (cp - cm) / (2 * h)
            ke2 += link.mass * float(v @ v)
        M = mass_matrix(planar2r, forward_kinematics(planar2r, q))
        assert float(qd @ M @ qd) == pytest.approx(ke2, abs=1e-6)


@pytest.mark.parametrize("robot_name", ["planar2r", "planar3r", "panda7"])
def test_mass_matrix_spd(robot_name, request, rng):
    model = request.getfixturevalue(robot_name)
    for _ in range(200):
        q = model.limits.position_lower + rng.random(model.n) * (
            model.limits.position_upper - model.limits.position_lower)
        M = mass_matrix(model, forward_kinematics(model, q))
        np.testing.assert_allclose(M, M.T, rtol=0.0, atol=1e-10)
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_coriolis_qd_matches_rnea(panda7, rng):
    # Christoffel route and RNEA route must agree on C qd
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, 7)
        qd = rng.uniform(-2.0, 2.0, 7)
        C = coriolis_matrix(panda7, q, qd)
        frames = forward_kinematics(panda7, q)
        cqd_rnea = bias_forces(panda7, frames, qd) - gravity_torque(panda7, frames)
        np.testing.assert_allclose(C @ qd, cqd_rnea, rtol=0.0, atol=1e-6)


def test_coriolis_vanishes_at_rest(panda7, rng):
    q = rng.uniform(-1.0, 1.0, 7)
    np.testing.assert_allclose(coriolis_matrix(panda7, q, np.zeros(7)), 0.0,
                               rtol=0.0, atol=1e-8)
    frames = forward_kinematics(panda7, q)
    np.testing.assert_allclose(
        bias_forces(panda7, frames, np.zeros(7)) - gravity_torque(panda7, frames),
        0.0, rtol=0.0, atol=1e-12)


def test_mdot_minus_2c_skew(panda7, rng):
    # passivity structure: v^T (Mdot - 2C) v == 0 for the Christoffel C
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, 7)
        qd = rng.uniform(-2.0, 2.0, 7)
        C = coriolis_matrix(panda7, q, qd)
        h = 1e-5
        Md = (mass_matrix(panda7, forward_kinematics(panda7, q + h * qd))
              - mass_matrix(panda7, forward_kinematics(panda7, q - h * qd))) / (2 * h)
        S = Md - 2.0 * C
        v = rng.standard_normal(7)
        assert abs(v @ S @ v) < 1e-7 * max(1.0, float(v @ v))


def test_coriolis_transpose_identity(panda7, rng):
    # the estimator's momentum drift bias - Mdot qd equals -C^T qd + g, since
    # Mdot qd = C qd + C^T qd; the explicit Christoffel matrix is the oracle
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, 7)
        qd = rng.uniform(-2.0, 2.0, 7)
        C = coriolis_matrix(panda7, q, qd)
        frames = forward_kinematics(panda7, q)
        drift = bias_forces(panda7, frames, qd) - mdot_qd(panda7, frames, qd)
        np.testing.assert_allclose(drift,
                                   -C.T @ qd + gravity_torque(panda7, frames),
                                   rtol=0.0, atol=1e-5)
        np.testing.assert_allclose(mdot_qd(panda7, frames, qd),
                                   C @ qd + C.T @ qd, rtol=0.0, atol=1e-5)


def power_identity(model, q, qd):
    """Both sides of qd' Mdot qd = 2 qd' C qd.  The identity follows from
    the skew symmetry of Mdot - 2C, and C qd = bias - g: an exact oracle
    with no finite differences."""
    frames = forward_kinematics(model, q)
    c_qd = bias_forces(model, frames, qd) - gravity_torque(model, frames)
    return qd @ mdot_qd(model, frames, qd), 2.0 * qd @ c_qd


@pytest.mark.parametrize("robot_name", ["planar2r_gravity", "planar3r",
                                        "planar3r_gravity", "panda7"])
def test_mdot_qd_power_identity(robot_name, request, rng):
    model = request.getfixturevalue(robot_name)
    for _ in range(25):
        power, want = power_identity(model, rng.uniform(-2.5, 2.5, model.n),
                                     rng.uniform(-2.0, 2.0, model.n))
        assert power == pytest.approx(want, rel=1e-10)


def test_mdot_power_check_catches_a_dropped_transpose_term(request, rng,
                                                          monkeypatch):
    # Mdot qd = C qd + C' qd; returning only C qd (bias - g) halves the power
    cases = []
    for name in ("planar2r_gravity", "planar3r_gravity", "panda7"):
        model = request.getfixturevalue(name)
        cases += [(model, rng.uniform(-2.5, 2.5, model.n),
                   rng.uniform(-2.0, 2.0, model.n)) for _ in range(5)]
    sides = [power_identity(*case) for case in cases]
    assert all(p == pytest.approx(w, rel=1e-10) for p, w in sides)
    # the oracle reads this module's binding of mdot_qd
    monkeypatch.setitem(globals(), "mdot_qd", lambda m, frames, qd: (
        bias_forces(m, frames, qd) - gravity_torque(m, frames)))
    sides = [power_identity(*case) for case in cases]
    assert all(p != pytest.approx(w, rel=1e-10) for p, w in sides)


def test_cross3_matches_np_cross_bitwise(rng):
    for a, b in rng.standard_normal((200, 2, 3)) * rng.uniform(
            1e-3, 1e3, (200, 2, 1)):
        assert np.array_equal(cross3(a, b), np.cross(a, b))


def test_dynamics_terms_bundle(planar2r_gravity, rng):
    # the per-state bundle holds M and the bias of its own state, and the
    # bias splits into the Christoffel C qd plus gravity
    m = planar2r_gravity
    q = rng.uniform(-1.0, 1.0, 2)
    qd = rng.uniform(-1.0, 1.0, 2)
    kin = KinState.of(m, q, qd)
    frames = forward_kinematics(m, q)
    np.testing.assert_allclose(kin.M, mass_matrix(m, frames))
    np.testing.assert_allclose(kin.bias, bias_forces(m, frames, qd))
    np.testing.assert_allclose(
        coriolis_matrix(m, q, qd) @ qd + gravity_torque(m, frames), kin.bias,
        rtol=0.0, atol=1e-6)


def test_inverse_forward_roundtrip(panda7, rng):
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, 7)
        qd = rng.uniform(-2.0, 2.0, 7)
        qdd = rng.uniform(-5.0, 5.0, 7)
        kin = KinState.of(panda7, q, qd)
        tau = inverse_dynamics(panda7, kin.frames, qd, qdd)
        np.testing.assert_allclose(forward_dynamics(kin, tau), qdd, rtol=0.0,
                                   atol=1e-9)


def test_forward_dynamics_equilibrium(panda7, rng):
    # feeding back the bias exactly holds the arm still
    q = rng.uniform(-1.0, 1.0, 7)
    qd = rng.uniform(-1.0, 1.0, 7)
    kin = KinState.of(panda7, q, qd)
    tau = bias_forces(panda7, forward_kinematics(panda7, q), qd)
    np.testing.assert_allclose(forward_dynamics(kin, tau), 0.0, rtol=0.0,
                               atol=1e-9)


def test_forward_dynamics_external_torque(planar2r):
    kin = KinState.of(planar2r, np.zeros(2), np.zeros(2))
    qdd0 = forward_dynamics(kin, np.zeros(2))
    np.testing.assert_allclose(qdd0, 0.0, rtol=0.0, atol=1e-12)
    te = np.array([1.0, 0.0])
    qdd = forward_dynamics(kin, np.zeros(2), tau_ext=te)
    M = mass_matrix(planar2r, forward_kinematics(planar2r, np.zeros(2)))
    np.testing.assert_allclose(M @ qdd, te, rtol=0.0, atol=1e-12)


def test_pendulum_energy_conservation():
    # undamped swing: the plant's RK4 at 1 ms for 10 s must hold total
    # energy <1e-4 J
    model = robot_from_dict({
        "gravity": [0.0, -9.81, 0.0],
        "joints": [{"axis": [0, 0, 1]}],
        "links": [{"mass": 1.0, "com": [1.0, 0.0, 0.0]}]})
    q = np.array([0.5])
    qd = np.zeros(1)
    dt = 1e-3

    def energy(kin):
        return 0.5 * float(kin.qd @ kin.M @ kin.qd) + potential_energy(
            model, kin.q)

    kin = KinState.of(model, q, qd)
    e0 = energy(kin)
    for _ in range(10_000):
        kin = KinState.of(model, *rk4_step(model, kin, np.zeros(1), None, dt))
    assert abs(energy(kin) - e0) < 1e-4


def test_kinetic_energy_nonnegative(panda7, rng):
    for _ in range(20):
        q = rng.uniform(-1.5, 1.5, 7)
        qd = rng.uniform(-3.0, 3.0, 7)
        M = mass_matrix(panda7, forward_kinematics(panda7, q))
        assert 0.5 * float(qd @ M @ qd) >= 0.0


def test_task_dynamics_symmetric_lambda(panda7, rng):
    q = rng.uniform(-1.0, 1.0, 7)
    qd = rng.uniform(-1.0, 1.0, 7)
    td, damped = ee_task_dynamics(panda7, q, qd)
    assert not damped
    np.testing.assert_allclose(td.Lam, td.Lam.T, rtol=0.0, atol=1e-9)
    assert np.linalg.eigvalsh(td.Lam).min() > 0.0


def test_task_dynamics_rest_bias_is_projected_gravity(panda7, rng):
    # at rest eta is gravity mapped through the dynamically consistent inverse
    q = rng.uniform(-1.0, 1.0, 7)
    td, damped = ee_task_dynamics(panda7, q, np.zeros(7))
    assert not damped
    frames = forward_kinematics(panda7, q)
    J = body_jacobian(panda7, frames)
    Minv = np.linalg.inv(mass_matrix(panda7, frames))
    Lam = np.linalg.inv(J @ Minv @ J.T)
    expect = Lam @ J @ Minv @ gravity_torque(panda7, frames)
    np.testing.assert_allclose(td.eta, expect, rtol=0.0, atol=1e-8)


def test_task_dynamics_scalar_task(planar2r_gravity, rng):
    # J = e1^T picks out joint 1: Lambda reduces to 1 / (M^-1)_11
    q = rng.uniform(-1.0, 1.0, 2)
    qd = rng.uniform(-1.0, 1.0, 2)
    J = np.array([[1.0, 0.0]])
    kin = KinState.of(planar2r_gravity, q, qd)
    td, damped = task_dynamics_from_jacobian(kin, J, np.zeros(1))
    assert not damped
    frames = forward_kinematics(planar2r_gravity, q)
    Minv = np.linalg.inv(mass_matrix(planar2r_gravity, frames))
    np.testing.assert_allclose(td.Lam, [[1.0 / Minv[0, 0]]], rtol=0.0,
                               atol=1e-12)
    expect = td.Lam @ J @ Minv @ bias_forces(planar2r_gravity, frames, qd)
    np.testing.assert_allclose(td.eta, expect, rtol=0.0, atol=1e-12)


def test_task_dynamics_null_torque_produces_no_task_acceleration(panda7, rng):
    # N = I - J' Jbar' is idempotent and Jbar' N = 0, so N tau moves only the
    # null space: J M^-1 N = 0.  The identities hold at full task rank, so
    # damped draws are skipped
    checked = 0
    for _ in range(25):
        q = rng.uniform(-2.5, 2.5, 7)
        td, damped = ee_task_dynamics(panda7, q, rng.uniform(-0.5, 0.5, 7))
        if damped:
            continue
        frames = forward_kinematics(panda7, q)
        J = body_jacobian(panda7, frames)
        Minv = np.linalg.inv(mass_matrix(panda7, frames))
        N = np.eye(7) - J.T @ td.Jbar.T
        np.testing.assert_allclose(N @ N, N, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(td.Jbar.T @ N, 0.0, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(J @ Minv @ N, 0.0, rtol=0.0, atol=1e-8)
        for _ in range(5):
            tau = rng.standard_normal(7)
            np.testing.assert_allclose(J @ Minv @ (N @ tau), 0.0, rtol=0.0,
                                       atol=1e-9)
        checked += 1
    assert checked >= 20


def test_task_dynamics_damped_at_singularity(planar2r):
    # a planar arm never spans the 6-D task, so the apparent inertia is
    # singular: the terms damp themselves by 0.1^2 I, say so, stay finite
    q = np.zeros(2)
    td, damped = ee_task_dynamics(planar2r, q, q)
    assert damped
    assert np.all(np.isfinite(td.Lam))
    assert np.all(np.isfinite(td.eta))
    frames = forward_kinematics(planar2r, q)
    J = body_jacobian(planar2r, frames)
    A = J @ np.linalg.solve(mass_matrix(planar2r, frames), J.T)
    np.testing.assert_allclose(td.Lam, np.linalg.inv(A + 0.01 * np.eye(6)),
                               rtol=1e-12)


def test_jacobian_dot_qd_fd_consistency(panda7, rng):
    # second-order check: d/dt (J qd) with constant qd equals Jdot qd
    q = rng.uniform(-1.0, 1.0, 7)
    qd = rng.uniform(-1.0, 1.0, 7)
    h = 1e-6
    Jp = body_jacobian(panda7, forward_kinematics(panda7, q + h * qd))
    Jm = body_jacobian(panda7, forward_kinematics(panda7, q - h * qd))
    expect = (Jp - Jm) / (2 * h) @ qd
    np.testing.assert_allclose(
        jacobian_dot_qd(panda7, forward_kinematics(panda7, q), qd), expect,
        rtol=0.0, atol=1e-5)


def test_planar2r_jacobian_dot_qd_closed_form(planar2r, rng):
    # unit links: the body-frame linear rows of J are [[s2, 0], [1 + c2, 1]]
    # and the angular row is constant, so Jdot qd = qd1 qd2 (0, 0, 0, c2, -s2, 0)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.uniform(-2.0, 2.0, 2)
        w2 = qd[0] * qd[1]
        expect = [0.0, 0.0, 0.0, w2 * np.cos(q[1]), -w2 * np.sin(q[1]), 0.0]
        np.testing.assert_allclose(
            jacobian_dot_qd(planar2r, forward_kinematics(planar2r, q), qd),
            expect, rtol=0.0, atol=1e-12)
