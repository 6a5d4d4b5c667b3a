import numpy as np
import pytest

from safemanip.dynamics import (
    KinState,
    bias_forces,
    forward_dynamics,
    gravity_torque,
    inverse_dynamics,
    jacobian_dot_qd,
    mass_matrix,
    mdot_qd,
    potential_energy,
    task_dynamics_from_jacobian,
)
from safemanip.model import body_jacobian, forward_kinematics
from safemanip.robots import robot_from_dict
from safemanip.se3 import cross3
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
    np.testing.assert_allclose(M, [[5.0, 2.0], [2.0, 1.0]], atol=1e-9)


def test_planar2r_mass_matrix_analytic(planar2r, rng):
    # textbook closed form for unit lengths and unit tip masses
    for _ in range(20):
        q1, q2 = rng.uniform(-np.pi, np.pi, 2)
        c2 = np.cos(q2)
        expect = np.array([[3.0 + 2.0 * c2, 1.0 + c2],
                           [1.0 + c2, 1.0]])
        M = mass_matrix(planar2r, forward_kinematics(planar2r, [q1, q2]))
        np.testing.assert_allclose(M, expect, atol=1e-9)


def test_planar2r_gravity_stretched(planar2r_gravity):
    g = gravity_torque(planar2r_gravity,
                       forward_kinematics(planar2r_gravity, np.zeros(2)))
    np.testing.assert_allclose(g, [29.43, 9.81], atol=1e-9)


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
        np.testing.assert_allclose(C @ qd, cqd_rnea, atol=1e-6)


def test_coriolis_vanishes_at_rest(panda7, rng):
    q = rng.uniform(-1.0, 1.0, 7)
    np.testing.assert_allclose(coriolis_matrix(panda7, q, np.zeros(7)), 0.0,
                               atol=1e-8)
    frames = forward_kinematics(panda7, q)
    np.testing.assert_allclose(
        bias_forces(panda7, frames, np.zeros(7)) - gravity_torque(panda7, frames),
        0.0, atol=1e-12)


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
                                   atol=1e-5)
        np.testing.assert_allclose(mdot_qd(panda7, frames, qd),
                                   C @ qd + C.T @ qd, atol=1e-5)


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
        atol=1e-6)


def test_inverse_forward_roundtrip(panda7, rng):
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, 7)
        qd = rng.uniform(-2.0, 2.0, 7)
        qdd = rng.uniform(-5.0, 5.0, 7)
        kin = KinState.of(panda7, q, qd)
        tau = inverse_dynamics(panda7, kin.frames, qd, qdd)
        np.testing.assert_allclose(forward_dynamics(kin, tau), qdd, atol=1e-9)


def test_forward_dynamics_equilibrium(panda7, rng):
    # feeding back the bias exactly holds the arm still
    q = rng.uniform(-1.0, 1.0, 7)
    qd = rng.uniform(-1.0, 1.0, 7)
    kin = KinState.of(panda7, q, qd)
    tau = bias_forces(panda7, forward_kinematics(panda7, q), qd)
    np.testing.assert_allclose(forward_dynamics(kin, tau), 0.0, atol=1e-9)


def test_forward_dynamics_external_torque(planar2r):
    kin = KinState.of(planar2r, np.zeros(2), np.zeros(2))
    qdd0 = forward_dynamics(kin, np.zeros(2))
    np.testing.assert_allclose(qdd0, 0.0, atol=1e-12)
    te = np.array([1.0, 0.0])
    qdd = forward_dynamics(kin, np.zeros(2), tau_ext=te)
    M = mass_matrix(planar2r, forward_kinematics(planar2r, np.zeros(2)))
    np.testing.assert_allclose(M @ qdd, te, atol=1e-12)


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
    np.testing.assert_allclose(td.Lam, td.Lam.T, atol=1e-9)
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
    np.testing.assert_allclose(td.eta, expect, atol=1e-8)


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
    np.testing.assert_allclose(td.Lam, [[1.0 / Minv[0, 0]]], atol=1e-12)
    expect = td.Lam @ J @ Minv @ bias_forces(planar2r_gravity, frames, qd)
    np.testing.assert_allclose(td.eta, expect, atol=1e-12)


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
        np.testing.assert_allclose(td.Jbar.T @ N, 0.0, atol=1e-8)
        np.testing.assert_allclose(J @ Minv @ N, 0.0, atol=1e-8)
        for _ in range(5):
            tau = rng.standard_normal(7)
            np.testing.assert_allclose(J @ Minv @ (N @ tau), 0.0, atol=1e-9)
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
        atol=1e-5)


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
