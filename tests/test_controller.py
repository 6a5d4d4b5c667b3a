import logging

import numpy as np
import pytest

from conftest import gravity_torque
from safemanip.controller import (
    ContactInfo,
    ControllerState,
    GainSet,
    Mode,
    ReactionParams,
    UsdeState,
    contact_direction,
    contact_safe_torque,
    isolate_contact,
    mode_step,
    tracking_torque,
    usde_update,
)
from safemanip.dynamics import (
    KinState,
    bias_forces,
    jacobian_dot_qd,
    mass_matrix,
    task_dynamics_from_jacobian,
)
from safemanip.model import (
    body_jacobian,
    forward_kinematics,
    point_jacobian,
)
from safemanip.sim import rk4_step


def at_rest(model, q):
    """State object at configuration ``q`` with zero joint velocity."""
    return KinState.of(model, q, np.zeros(model.n))


def detect(model, q, r, t=0.0):
    """Fresh detection at rest in ``q``: the contact, or None."""
    return isolate_contact(model, at_rest(model, q), r, 3.0, t, None)[0]


def run_episode(model, q0, gains, duration, dt, push, params=None,
                reference=None):
    """Closed-loop run of the mode machine against a scripted point push.

    push = (t_on, t_off, link, force_world) applied at the link's distal
    point.  Returns per-tick records for the assertions.
    """
    n = model.n
    st = ControllerState.create(n, params=params)
    q = np.asarray(q0, dtype=float).copy()
    qd = np.zeros(n)
    t_on, t_off, link, force = push
    p_local = None
    rec = {"t": [], "mode": [], "r": [], "q": [], "link": [], "n_c": [],
           "state": st}
    for i in range(int(round(duration / dt))):
        t = i * dt
        kin = KinState.of(model, q, qd)
        fk = kin.frames
        tau_ext = None
        if t_on <= t < t_off:
            if p_local is None:
                p_local = fk[link].inverse().apply(fk[link + 1].translation)
            p_world = fk[link].apply(p_local)
            Jc = point_jacobian(model, fk, link, p_world)
            tau_ext = Jc.T @ force
        if reference is not None:
            q_des, qd_des = reference(t)
        else:
            q_des, qd_des = q0, np.zeros(n)
        mode, tau = mode_step(st, model, t, dt, kin, q_des, qd_des, gains)
        rec["t"].append(t)
        rec["mode"].append(mode)
        rec["r"].append(st.r_hat.copy())
        rec["q"].append(q.copy())
        rec["link"].append(st.contact.link_index if st.contact else -1)
        rec["n_c"].append(st.contact.n_c.copy() if st.contact else None)
        q, qd = rk4_step(model, kin, tau, tau_ext, dt)
    rec["r"] = np.array(rec["r"])
    rec["q"] = np.array(rec["q"])
    return rec


def collapse(modes):
    out = [modes[0]]
    for m in modes[1:]:
        if m is not out[-1]:
            out.append(m)
    return out


class TestGainSet:
    def test_default_values(self):
        g = GainSet.default(5)
        np.testing.assert_allclose(g.kp1, 200.0)
        np.testing.assert_allclose(g.kd1, 10.0)
        np.testing.assert_allclose(g.kp2, 10.0)
        np.testing.assert_allclose(g.kd2, 2.0)
        np.testing.assert_allclose(g.kp3, 500.0)
        np.testing.assert_allclose(g.kd3, 100.0)
        assert g.kp1.shape == (5,) and g.kp3.shape == (6,)

    def test_scalar_broadcast(self):
        g = GainSet(kp1=np.full(3, 100.0), kd1=5.0, kp2=0.0, kd2=0.0,
                    kp3=1.0, kd3=1.0)
        np.testing.assert_allclose(g.kd1, [5.0, 5.0, 5.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GainSet(kp1=np.full(3, 100.0), kd1=np.array([1.0, -1.0, 1.0]),
                    kp2=0.0, kd2=0.0, kp3=1.0, kd3=1.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="diagonal entries"):
            GainSet(kp1=np.full(3, 1.0), kd1=np.full(4, 1.0), kp2=0.0,
                    kd2=0.0, kp3=1.0, kd3=1.0)


@pytest.mark.parametrize("field,value", [
    ("tau_th", 0.0),
    ("tau_th", -1.0),
    ("release_fraction", 0.0),
    ("release_fraction", 1.0),
    ("release_dwell", -0.1),
    ("resume_tol", -0.01),
])
def test_reaction_params_validation(field, value):
    with pytest.raises(ValueError):
        ReactionParams(**{field: value})


def test_usde_state_requires_positive_k():
    with pytest.raises(ValueError, match="positive"):
        UsdeState(k=0.0)


class TestTrackingTorque:
    def test_pure_compensation(self, planar2r_gravity):
        m = planar2r_gravity
        gains = GainSet.default(2)
        q = np.array([0.4, 1.2])
        qd = np.array([0.3, -0.2])
        tau = tracking_torque(KinState.of(m, q, qd), q, qd, gains)
        np.testing.assert_allclose(tau, bias_forces(m, forward_kinematics(m, q), qd),
                                   rtol=0, atol=0)

    def test_feedforward_only_when_outer_loop_off(self, planar2r_gravity):
        m = planar2r_gravity
        gains = GainSet(kp1=np.full(2, 200.0), kd1=np.full(2, 10.0),
                        kp2=np.zeros(2), kd2=np.zeros(2),
                        kp3=np.full(6, 500.0), kd3=np.full(6, 100.0))
        q = np.array([0.4, 1.2])
        qd = np.array([0.3, -0.2])
        q_des = q + np.array([0.1, -0.05])
        qd_des = qd + np.array([-0.02, 0.04])
        tau = tracking_torque(KinState.of(m, q, qd), q_des, qd_des, gains)
        frames = forward_kinematics(m, q)
        M = mass_matrix(m, frames)
        expected = M @ (200.0 * (q_des - q) + 10.0 * (qd_des - qd)) \
            + bias_forces(m, frames, qd)
        np.testing.assert_allclose(tau, expected, rtol=0, atol=0)

    def test_gravity_fixed_point_at_rest(self, planar2r_gravity):
        m = planar2r_gravity
        q = np.array([0.7, -0.3])
        tau = tracking_torque(at_rest(m, q), q, np.zeros(2),
                              GainSet.default(2))
        np.testing.assert_array_equal(tau,
                                      gravity_torque(m, forward_kinematics(m, q)))

    def test_precomputed_terms_change_nothing(self, planar2r_gravity):
        # one state object is shared by every law of a tick: reading it
        # twice, after the estimator has, gives the torque of a fresh one
        m = planar2r_gravity
        q = np.array([0.4, 1.2])
        qd = np.array([0.3, -0.2])
        gains = GainSet.default(2)
        shared = KinState.of(m, q, qd)
        a = tracking_torque(shared, q + 0.1, qd, gains)
        usde_update(UsdeState(), m, shared, a, 1e-3)
        b = tracking_torque(shared, q + 0.1, qd, gains)
        c = tracking_torque(KinState.of(m, q, qd), q + 0.1, qd, gains)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_step_target_converges(self, planar2r_gravity):
        # closed loop at 1 kHz, steady-state error under 1e-4 rad in 2 s
        m = planar2r_gravity
        gains = GainSet.default(2)
        dt = 1e-3
        q = np.array([0.2, 0.6])
        qd = np.zeros(2)
        q_des = q + np.array([0.3, -0.2])
        for _ in range(2000):
            kin = KinState.of(m, q, qd)
            tau = tracking_torque(kin, q_des, np.zeros(2), gains)
            q, qd = rk4_step(m, kin, tau, None, dt)
        assert np.abs(q - q_des).max() < 1e-4


class TestUsde:
    def test_first_call_returns_zero(self, planar2r_gravity):
        m = planar2r_gravity
        st = UsdeState()
        r = usde_update(st, m, KinState.of(m, np.array([0.5, 0.8]), np.zeros(2)),
                        np.array([1.0, 2.0]), 1e-3)
        np.testing.assert_array_equal(r, 0.0)
        assert st.initialized

    def test_requires_positive_dt(self, planar2r_gravity):
        st = UsdeState()
        with pytest.raises(ValueError, match="dt"):
            usde_update(st, planar2r_gravity,
                        KinState.of(planar2r_gravity, np.zeros(2), np.zeros(2)),
                        np.zeros(2), 0.0)

    @staticmethod
    def _static_step_response(model, k, dt, n_ticks):
        # hold the arm still, then step the balance torque so the filters see
        # a clean external-torque step
        kin = KinState.of(model, np.array([0.5, 0.8]), np.zeros(2))
        tau_ext = np.array([2.0, 0.0])
        g = gravity_torque(model, kin.frames)
        st = UsdeState(k=k)
        usde_update(st, model, kin, g, dt)
        for _ in range(50):
            usde_update(st, model, kin, g, dt)
        hist = []
        for _ in range(n_ticks):
            hist.append(usde_update(st, model, kin, g - tau_ext, dt))
        return np.array(hist), tau_ext

    def test_constant_torque_recovered_within_two_percent(self, planar2r_gravity):
        hist, tau_ext = self._static_step_response(planar2r_gravity, 0.2,
                                                   1e-3, 1000)
        assert np.abs(hist[-1] - tau_ext).max() / 2.0 < 0.02
        np.testing.assert_allclose(hist[-1][1], 0.0, rtol=0.0, atol=1e-9)

    def test_lag_is_first_order_and_scales_with_k(self, planar2r_gravity):
        level = (1.0 - np.exp(-1.0)) * 2.0
        hist_a, _ = self._static_step_response(planar2r_gravity, 0.2, 1e-3, 400)
        hist_b, _ = self._static_step_response(planar2r_gravity, 0.1, 1e-3, 400)
        ta = np.argmax(hist_a[:, 0] >= level) + 1
        tb = np.argmax(hist_b[:, 0] >= level) + 1
        np.testing.assert_allclose(ta * 1e-3, 0.2, rtol=0.05)
        np.testing.assert_allclose(ta / tb, 2.0, rtol=0.05)

    def test_quiet_during_free_motion(self, planar2r_gravity):
        # full closed loop with a moving reference and no external torque:
        # the estimate has to stay far below the 3 N m detection threshold
        m = planar2r_gravity
        gains = GainSet.default(2)
        dt = 1e-3
        q0 = np.array([0.4, 1.2])
        amp = np.array([0.25, -0.15])

        def reference(t):
            ph = 2.0 * np.pi * 0.4 * t
            return q0 + (1 - np.cos(ph)) * amp, \
                2.0 * np.pi * 0.4 * np.sin(ph) * amp

        rec = run_episode(m, q0, gains, 1.2, dt,
                          (10.0, 10.0, 1, np.zeros(3)), reference=reference)
        settled = rec["r"][100:]
        assert np.abs(settled).max() < 0.05
        assert all(md is Mode.TRACKING for md in rec["mode"])

    def test_precomputed_terms_change_nothing(self, planar2r_gravity):
        # a state object reused across ticks and laws reads the same as one
        # built fresh for every call: no consumer writes into it
        m = planar2r_gravity
        q = np.array([0.3, 0.9])
        qd = np.array([0.2, -0.4])
        tau = np.array([1.0, -2.0])
        sa, sb = UsdeState(), UsdeState()
        shared = KinState.of(m, q, qd)
        for _ in range(3):
            ra = usde_update(sa, m, KinState.of(m, q, qd), tau, 1e-3)
            tracking_torque(shared, q, qd, GainSet.default(2))
            rb = usde_update(sb, m, shared, tau, 1e-3)
            np.testing.assert_array_equal(ra, rb)


class TestDetection:
    def test_below_threshold_is_none(self, panda7):
        r = np.full(7, 0.5)
        assert detect(panda7, np.zeros(7), r) is None

    def test_single_exceeding_joint_names_its_link(self, panda7):
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        r = np.zeros(7)
        r[3] = 5.0
        info = detect(panda7, q, r, t=1.5)
        assert info is not None
        assert info.link_index == 3
        assert info.detected_at == 1.5
        np.testing.assert_allclose(np.linalg.norm(info.n_c), 1.0, rtol=1e-12)

    def test_most_distal_of_several(self, panda7):
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        r = np.zeros(7)
        r[2] = 4.0
        r[5] = 6.0
        info = detect(panda7, q, r)
        assert info.link_index == 5

    def test_negative_estimate_counts(self, panda7):
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        r = np.zeros(7)
        r[3] = -4.5
        assert detect(panda7, q, r).link_index == 3

    def test_degenerate_direction_returns_none(self, panda7, caplog):
        # an estimate in the null space of the contact Jacobian carries no
        # direction; detection must decline and warn instead of reacting
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        link = 4
        fk = forward_kinematics(panda7, q)
        Jc = point_jacobian(panda7, fk, link, fk[link + 1].translation)
        _, _, Vt = np.linalg.svd(Jc)
        null = Vt[3:]
        r = null[np.argmax(np.abs(null[:, link]))]
        r = r * (4.0 / abs(r[link]))
        np.testing.assert_allclose(Jc @ r, 0.0, rtol=0.0, atol=1e-9)
        with caplog.at_level(logging.WARNING, logger="safemanip.controller"):
            info, norm = isolate_contact(panda7, at_rest(panda7, q), r, 3.0,
                                         0.0, None)
        assert info is None and norm <= 1e-6
        assert "degenerate" in caplog.text

    def test_episode_never_moves_inward(self, panda7):
        # only a proximal joint exceeds: the ongoing contact keeps its link
        # and detection time, and takes the direction the estimate gives it
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        kin = at_rest(panda7, q)
        r = np.zeros(7)
        r[5] = 4.0
        current = isolate_contact(panda7, kin, r, 3.0, 0.2, None)[0]
        r[2], r[5] = 8.0, 1.0
        info, norm = isolate_contact(panda7, kin, r, 3.0, 0.3, current)
        n_c, J_tilde, want = contact_direction(panda7, kin, 5, r)
        assert info.link_index == 5 and info.detected_at == 0.2
        np.testing.assert_array_equal(info.n_c, n_c)
        np.testing.assert_array_equal(info.J_tilde, J_tilde)
        assert norm == want

    def test_degenerate_outward_candidate_keeps_current_link(self, panda7):
        # the distal joint exceeds, but the estimate maps to no force on its
        # link: the contact stays on the current link, re-isolated there
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        kin = at_rest(panda7, q)
        fk = kin.frames
        Jc = point_jacobian(panda7, fk, 5, fk[6].translation)
        null = np.linalg.svd(Jc)[2][3:]
        r = null[np.argmax(np.abs(null[:, 5]))]
        r = r * (4.0 / abs(r[5]))
        assert np.nonzero(np.abs(r) > 3.0)[0].tolist() == [5]
        assert contact_direction(panda7, kin, 5, r)[0] is None
        n_c, J_tilde, want = contact_direction(panda7, kin, 3, r)
        assert want > 0.1
        current = ContactInfo(link_index=3, n_c=np.array([1.0, 0.0, 0.0]),
                              J_tilde=np.zeros(7), detected_at=0.25)
        info, norm = isolate_contact(panda7, kin, r, 3.0, 0.4, current)
        assert info.link_index == 3 and info.detected_at == 0.25
        np.testing.assert_array_equal(info.n_c, n_c)
        np.testing.assert_array_equal(info.J_tilde, J_tilde)
        assert norm == want
        # with no direction on the current link either, it is kept whole
        kept, norm = isolate_contact(panda7, kin, np.zeros(7), 3.0, 0.4,
                                     current)
        assert kept is current and norm == 0.0


class TestReducedContactJacobian:
    def test_direction_matches_static_push(self, planar2r):
        # torque induced by a known force maps back to that force direction
        m = planar2r
        q = np.array([0.4, 1.2])
        fk = forward_kinematics(m, q)
        tip = fk[2].translation
        F = np.array([0.6, -0.8, 0.0]) * 20.0
        Jc = point_jacobian(m, fk, 1, tip)
        n_c, J_tilde, norm = contact_direction(m, at_rest(m, q), 1, Jc.T @ F)
        np.testing.assert_allclose(norm, 20.0, rtol=1e-9)
        angle = np.degrees(np.arccos(np.clip(n_c @ (F / 20.0), -1.0, 1.0)))
        assert angle < 5.0
        np.testing.assert_allclose(n_c, F / 20.0, rtol=0.0, atol=1e-9)

    def test_scalar_velocity_consistency(self, panda7):
        # J_tilde qd equals the witness-point velocity along n_c, with the
        # point velocity taken from central differences of the kinematics
        m = panda7
        q = np.array([0.3, -0.5, 0.2, -1.8, 0.1, 1.4, 0.5])
        qd = np.array([0.2, -0.1, 0.3, 0.15, -0.2, 0.1, -0.3])
        link = 4
        r = np.zeros(7)
        r[link] = 4.0
        r[1] = -6.0
        n_c, J_tilde, _ = contact_direction(m, KinState.of(m, q, qd), link, r)
        h = 1e-6
        pp = forward_kinematics(m, q + h * qd)[link + 1].translation
        pm = forward_kinematics(m, q - h * qd)[link + 1].translation
        v_fd = (pp - pm) / (2.0 * h)
        np.testing.assert_allclose(J_tilde @ qd, n_c @ v_fd, rtol=0.0, atol=1e-6)

    def test_zero_estimate_has_no_direction(self, panda7):
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        assert contact_direction(panda7, at_rest(panda7, q), 3,
                                 np.zeros(7)) == (None, None, 0.0)


class TestContactSafeTorque:
    def _setup(self, model, q, qd):
        kin = KinState.of(model, q, qd)
        J = body_jacobian(model, kin.frames)
        td, damped = task_dynamics_from_jacobian(
            kin, J, jacobian_dot_qd(model, kin.frames, qd))
        assert not damped
        return kin, J, td

    def test_pure_bias_compensation(self, panda7):
        # no estimate, no drive, already at the desired state
        q = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        qd = np.array([0.2, -0.1, 0.3, 0.1, -0.2, 0.15, 0.1])
        kin, J, td = self._setup(panda7, q, qd)
        info = ContactInfo(link_index=4, n_c=np.array([0.0, 0.0, 1.0]),
                           J_tilde=np.zeros(7), detected_at=0.0)
        tau, damped = contact_safe_torque(panda7, kin, kin.frames[-1], J @ qd,
                                          info, np.zeros(7), GainSet.default(7),
                                          0.0)
        assert not damped
        np.testing.assert_allclose(tau, J.T @ td.eta, rtol=0.0, atol=1e-10)

    def test_reaction_is_invisible_to_task(self, panda7, rng):
        # the projected drive must not show up through the consistent inverse
        for _ in range(5):
            q = rng.uniform(-1.2, 1.2, 7)
            qd = rng.uniform(-0.5, 0.5, 7)
            kin, J, td = self._setup(panda7, q, qd)
            r = rng.normal(0.0, 5.0, 7)
            r[5:] = 0.0
            _, J_tilde, _ = contact_direction(panda7, kin, 4, r)
            N_t = np.eye(7) - J.T @ td.Jbar.T
            react = N_t @ (J_tilde * 2.5)
            assert np.abs(td.Jbar.T @ react).max() < 1e-8

    def test_reaction_causes_no_task_acceleration(self, panda7, rng):
        for _ in range(5):
            q = rng.uniform(-1.2, 1.2, 7)
            qd = rng.uniform(-0.5, 0.5, 7)
            kin, J, td = self._setup(panda7, q, qd)
            M = mass_matrix(panda7, forward_kinematics(panda7, q))
            r = rng.normal(0.0, 5.0, 7)
            r[5:] = 0.0
            _, J_tilde, _ = contact_direction(panda7, kin, 4, r)
            N_t = np.eye(7) - J.T @ td.Jbar.T
            acc = J @ np.linalg.solve(M, N_t @ (J_tilde * 3.0))
            assert np.abs(acc).max() < 1e-6

    def test_singular_task_falls_back_damped(self, planar2r, caplog):
        # a planar arm can never span the 6-D task, so the damped branch is
        # the normal path there: the law reports it and stays finite, and
        # each controller run counts its damped ticks and warns at the first
        m = planar2r
        q = np.array([0.4, 1.2])
        kin = at_rest(m, q)
        fk = kin.frames
        tip = fk[2].translation
        Jc = point_jacobian(m, fk, 1, tip)
        r = Jc.T @ np.array([0.0, -10.0, 0.0])
        n_c, J_tilde, _ = contact_direction(m, kin, 1, r)
        info = ContactInfo(link_index=1, n_c=n_c, J_tilde=J_tilde,
                           detected_at=0.0)
        tau, damped = contact_safe_torque(m, kin, fk[-1], np.zeros(6),
                                          info, r, GainSet.default(2), 1.0)
        assert damped
        assert np.all(np.isfinite(tau))
        for _ in range(2):
            # a fresh run in the same process: the fallback stays visible
            st = ControllerState.create(2)
            st.mode, st.contact = Mode.CONTACT_SAFE, info
            st.q_pre_contact, st.T_pre, st.V_pre = q, fk[-1], np.zeros(6)
            caplog.clear()
            with caplog.at_level(logging.WARNING,
                                 logger="safemanip.controller"):
                # the first tick only seeds the estimator
                for i in range(3):
                    mode, _ = mode_step(st, m, i * 1e-3, 1e-3, kin, q,
                                        np.zeros(2), GainSet.default(2))
            assert mode is Mode.CONTACT_SAFE
            assert st.damped_task_ticks == 2
            assert caplog.text.count("singular") == 1


class TestModeMachine:
    def test_reference_override_follows_mode(self):
        st = ControllerState.create(2)
        assert st.reference_override is None
        st.mode = Mode.RETURNING
        st.q_pre_contact = np.array([0.1, 0.2])
        np.testing.assert_array_equal(st.reference_override, [0.1, 0.2])

    def test_first_tick_seeds_and_tracks(self, planar2r_gravity):
        m = planar2r_gravity
        st = ControllerState.create(2)
        q = np.array([0.4, 1.2])
        mode, tau = mode_step(st, m, 0.0, 1e-3, at_rest(m, q), q, np.zeros(2),
                              GainSet.default(2))
        assert mode is Mode.TRACKING
        np.testing.assert_array_equal(tau,
                                      gravity_torque(m, forward_kinematics(m, q)))
        np.testing.assert_array_equal(st.r_hat, 0.0)
        assert st.usde.initialized

    def test_tracking_tick_matches_public_law(self, planar2r_gravity):
        # seed at a gravity-balanced rest so the held plant stays physical,
        # then change only the target: the tick must emit the tracking law
        m = planar2r_gravity
        st = ControllerState.create(2)
        q = np.array([0.4, 1.2])
        qd = np.zeros(2)
        kin = KinState.of(m, q, qd)
        mode_step(st, m, 0.0, 1e-3, kin, q, qd, GainSet.default(2))
        q_des = q + np.array([0.05, -0.02])
        mode, tau = mode_step(st, m, 1e-3, 1e-3, kin, q_des, np.zeros(2),
                              GainSet.default(2))
        assert mode is Mode.TRACKING
        expected = tracking_torque(kin, q_des, np.zeros(2), GainSet.default(2))
        np.testing.assert_array_equal(tau, expected)

    def test_full_episode_trace(self, planar2r_gravity):
        # push the distal link radially so only its own joint loads, hold for
        # half a second, then let the machine walk back to tracking
        m = planar2r_gravity
        q0 = np.array([0.4, 1.2])
        fk0 = forward_kinematics(m, q0)
        tip = fk0[2].translation
        force = 30.0 * tip / np.linalg.norm(tip)
        rec = run_episode(m, q0, GainSet.default(2), 2.0, 2e-3,
                          (0.3, 0.8, 1, force))
        seq = collapse(rec["mode"])
        assert seq == [Mode.TRACKING, Mode.CONTACT_SAFE, Mode.RETURNING,
                       Mode.RESUME_CHECK, Mode.TRACKING]
        t = np.array(rec["t"])
        modes = rec["mode"]
        detect_idx = next(i for i, md in enumerate(modes)
                          if md is Mode.CONTACT_SAFE)
        assert t[detect_idx] - 0.3 < 0.1
        assert rec["link"][detect_idx] == 1
        n_c = rec["n_c"][detect_idx]
        angle = np.degrees(np.arccos(np.clip(n_c @ (force / 30.0), -1, 1)))
        assert angle < 5.0
        st = rec["state"]
        assert st.q_pre_contact is None and st.T_pre is None

    def test_no_push_stays_tracking(self, planar2r_gravity):
        rec = run_episode(planar2r_gravity, np.array([0.4, 1.2]),
                          GainSet.default(2), 0.3, 1e-3,
                          (10.0, 10.0, 1, np.zeros(3)))
        assert all(md is Mode.TRACKING for md in rec["mode"])

    def test_repush_during_return_reenters_contact_safe(self, planar2r_gravity):
        # an unreachable resume tolerance pins the machine in RETURNING, so a
        # second push there must re-enter the reaction without re-latching
        m = planar2r_gravity
        params = ReactionParams(resume_tol=1e-9)
        gains = GainSet.default(2)
        st = ControllerState.create(2, params=params)
        q0 = np.array([0.4, 1.2])
        q = q0.copy()
        qd = np.zeros(2)
        dt = 2e-3
        latched = None
        saw = set()
        for i in range(int(2.4 / dt)):
            t = i * dt
            kin = KinState.of(m, q, qd)
            tau_ext = None
            pushing = 0.2 <= t < 0.6 or 1.6 <= t < 2.0
            if pushing:
                tip = kin.frames[2].translation
                Jc = point_jacobian(m, kin.frames, 1, tip)
                tau_ext = Jc.T @ (30.0 * tip / np.linalg.norm(tip))
            mode, tau = mode_step(st, m, t, dt, kin, q0, np.zeros(2), gains)
            saw.add(mode)
            if mode is Mode.CONTACT_SAFE and latched is None:
                latched = st.q_pre_contact.copy()
            if t >= 1.6 and st.mode is Mode.CONTACT_SAFE:
                np.testing.assert_array_equal(st.q_pre_contact, latched)
            q, qd = rk4_step(m, kin, tau, tau_ext, dt)
        assert Mode.RETURNING in saw
        assert st.mode is Mode.CONTACT_SAFE
        assert Mode.RESUME_CHECK not in saw

    def test_detection_latency_and_refinement_on_seven_dof(self, panda7):
        # a hard push whose strongest joint torque is proximal: the machine
        # must trip fast on that joint, then walk the identification out to
        # the true link as its own joint crosses the threshold
        m = panda7
        q0 = np.array([0.0, -0.6, 0.0, -2.0, 0.0, 1.6, 0.8])
        fk0 = forward_kinematics(m, q0)
        link = 3
        d = np.array([0.869, -0.004, -0.494])
        d = d / np.linalg.norm(d)
        Jc = point_jacobian(m, fk0, link, fk0[link + 1].translation)
        tau_ext = Jc.T @ (35.0 * d)
        assert abs(tau_ext[link]) > 3.5 and np.abs(tau_ext).max() > 14.0
        rec = run_episode(m, q0, GainSet.default(7), 0.6, 1e-3,
                          (0.15, 0.6, link, 35.0 * d))
        modes = rec["mode"]
        t = np.array(rec["t"])
        detect_idx = next(i for i, md in enumerate(modes)
                          if md is Mode.CONTACT_SAFE)
        assert t[detect_idx] - 0.15 < 0.05
        ids = rec["link"]
        exact_idx = next((i for i in range(detect_idx, len(ids))
                          if ids[i] == link), None)
        assert exact_idx is not None
        assert t[exact_idx] - 0.15 < 0.2
        assert all(ids[i] == link for i in range(exact_idx, len(ids)))
