"""Receding-horizon planner: cost terms, transcriptions, QP solver."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from safemanip.geometry import DistanceResult, Obstacle, Sphere, closest_pair_per_link
from safemanip.model import body_jacobian, forward_kinematics, robust_null_projector
from safemanip.planner import (
    MpcConfig,
    Planner,
    PlannerInput,
    build_context,
    predicted_twist,
    reference_twist,
    relaxation_factor,
    repulsive_velocity,
    shooting_defects,
    solve,
    stage_cost,
    terminal_cost,
    transcribe,
)
from safemanip.planner.planner import MpcSolution
from safemanip.planner.qp import make_feasible, solve_qp
from safemanip.planner.transcription import _braking_inputs, _rollout, _warm_inputs
from safemanip.se3 import Pose


def ball(center, radius=0.1, name="ball"):
    return Obstacle(shape=Sphere(radius=radius),
                    pose=Pose(translation=np.asarray(center, dtype=float)),
                    name=name)


def pair_result(d, normal=(0.0, 0.0, 1.0)):
    n = np.asarray(normal, dtype=float)
    p = np.zeros(3)
    return DistanceResult(distance=d, p_robot=p, p_obstacle=p + d * n,
                          normal=n, link=0, body_index=0, obstacle_index=0)


# cost terms


def test_reference_twist_pure_translation():
    T_now = Pose.identity()
    T_ref = Pose(translation=np.array([0.3, -0.1, 0.2]))
    V = reference_twist(T_now, T_ref)
    np.testing.assert_allclose(V[:3], 0.0, atol=1e-12)
    np.testing.assert_allclose(V[3:], [0.3, -0.1, 0.2], atol=1e-12)


def test_reference_twist_pure_rotation():
    T_ref = Pose.from_rpy((0.0, 0.0, 0.0), (0.0, 0.0, 0.4))
    V = reference_twist(Pose.identity(), T_ref)
    np.testing.assert_allclose(V[:3], [0.0, 0.0, 0.4], atol=1e-12)
    np.testing.assert_allclose(V[3:], 0.0, atol=1e-12)


def test_predicted_twist_matches_jacobian_product(planar2r):
    q = np.array([0.3, -0.4])
    J = body_jacobian(planar2r, forward_kinematics(planar2r, q))
    dq = np.array([0.02, -0.01])
    np.testing.assert_allclose(predicted_twist(J, q + dq, q), J @ dq)


def test_predicted_twist_null_motion_is_zero(panda7, rng):
    # a step inside the task null space predicts no end-effector motion
    q = rng.uniform(-1.0, 1.0, panda7.n)
    J = body_jacobian(panda7, forward_kinematics(panda7, q))
    N = robust_null_projector(J)
    step = N @ rng.standard_normal(panda7.n)
    np.testing.assert_allclose(predicted_twist(J, q + step, q), 0.0, atol=1e-12)


def test_relaxation_factor_outside_band_is_one():
    cfg = MpcConfig()
    assert relaxation_factor(cfg.d_th2, cfg) == 1.0
    assert relaxation_factor(1.0, cfg) == 1.0


def test_relaxation_factor_at_inner_threshold():
    cfg = MpcConfig(alpha=1.0)
    np.testing.assert_allclose(relaxation_factor(cfg.d_th1, cfg), np.exp(-1.0),
                               rtol=1e-12)


def test_relaxation_factor_monotone():
    cfg = MpcConfig(alpha=2.5)
    ds = np.linspace(0.0, 0.15, 100)
    vals = [relaxation_factor(d, cfg) for d in ds]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_repulsive_velocity_inside_band():
    cfg = MpcConfig(k_rep=1.0)
    v = repulsive_velocity(pair_result(0.06), cfg)
    np.testing.assert_allclose(v, [0.0, 0.0, 0.04], atol=1e-12)


def test_repulsive_velocity_saturates_below_inner_threshold():
    cfg = MpcConfig(k_rep=1.0)
    v_at = repulsive_velocity(pair_result(cfg.d_th1), cfg)
    v_below = repulsive_velocity(pair_result(0.5 * cfg.d_th1), cfg)
    np.testing.assert_allclose(v_below, v_at)
    np.testing.assert_allclose(np.linalg.norm(v_at), cfg.k_rep * (cfg.d_th2 - cfg.d_th1))


def test_repulsive_velocity_zero_outside_band():
    cfg = MpcConfig()
    np.testing.assert_allclose(repulsive_velocity(pair_result(0.2), cfg), 0.0)


def repulsion_only():
    """Config whose stage cost is the repulsion term alone."""
    return MpcConfig(q_ee=0.0, q_s=0.0, r=0.0)


def test_repulsive_cost_zero_outside_band(planar2r):
    cfg = repulsion_only()
    q = np.zeros(2)
    obs = (ball([1.0, 0.5, 0.0]),)
    ctx = build_context(planar2r, q, np.zeros(2), Pose.identity(), obs, cfg)
    assert ctx.d_min >= cfg.d_th2
    assert stage_cost(np.concatenate([q, np.ones(2)]), np.ones(2), ctx) == 0.0


def test_repulsive_cost_annihilated_in_task_range(panda7, rng):
    # velocities that differ from the target only inside the row space of J
    # carry no repulsion penalty: the null projector removes them
    cfg = repulsion_only()
    q = rng.uniform(-1.0, 1.0, panda7.n)
    p_ee = forward_kinematics(panda7, q)[-1].translation
    obs = (ball(p_ee + np.array([0.0, 0.0, 0.15]), radius=0.05),)
    ctx = build_context(panda7, q, np.zeros(panda7.n), Pose.identity(), obs, cfg)
    assert ctx.repulsions
    u = np.zeros(panda7.n)
    base = stage_cost(np.concatenate([q, np.zeros(panda7.n)]), u, ctx)
    qd = np.linalg.pinv(ctx.J_task) @ rng.standard_normal(6)
    shifted = stage_cost(np.concatenate([q, qd]), u, ctx)
    assert base > 0.0
    np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_stage_cost_hand_recomputation(planar2r):
    q = np.array([0.2, 0.1])
    cfg = MpcConfig()
    T_ref = Pose(translation=forward_kinematics(planar2r, q)[-1].translation
                 + np.array([0.05, 0.1, 0.0]))
    ctx = build_context(planar2r, q, np.zeros(2), T_ref, (), cfg)
    x = np.array([0.25, 0.05, 0.3, -0.2])
    u = np.array([1.0, -2.0])
    e = ctx.V_ref - ctx.J_task @ (x[:2] - q)
    want = e @ (ctx.W_stage * e) + 0.01 * x[2:] @ x[2:] + 1e-9 * u @ u
    np.testing.assert_allclose(stage_cost(x, u, ctx), want, rtol=1e-12)


def test_terminal_cost_uses_heavier_damping(planar2r):
    q = np.zeros(2)
    cfg = MpcConfig()
    ctx = build_context(planar2r, q, np.zeros(2), Pose.identity(), (), cfg)
    still = terminal_cost(np.array([0.0, 0.0, 0.0, 0.0]), ctx)
    moving = terminal_cost(np.array([0.0, 0.0, 1.0, 0.0]), ctx)
    np.testing.assert_allclose(moving - still, 10.0, rtol=1e-12)


def test_relaxation_applied_to_stage_weight(planar2r):
    # an obstacle close to the arm shrinks the tracking weight
    cfg = MpcConfig()
    far = build_context(planar2r, np.zeros(2), np.zeros(2), Pose.identity(), (), cfg)
    obs = (ball([1.0, 0.12, 0.0], radius=0.03),)
    near = build_context(planar2r, np.zeros(2), np.zeros(2), Pose.identity(), obs, cfg)
    assert near.d_min < cfg.d_th2
    assert near.lam < 1.0
    np.testing.assert_allclose(far.lam, 1.0)
    np.testing.assert_allclose(near.W_stage, near.lam * far.W_stage)


def test_baseline_mode_keeps_full_weight_and_rows(planar2r):
    cfg = MpcConfig(task_oriented=False)
    obs = (ball([1.0, 0.12, 0.0], radius=0.03),)
    ctx = build_context(planar2r, np.zeros(2), np.zeros(2), Pose.identity(), obs, cfg)
    assert ctx.lam == 1.0
    assert ctx.repulsions == ()
    assert len(ctx.distance_rows) > 0  # hard safety rows stay in baseline mode


def test_shooting_defects_zero_on_rollout(rng):
    U = rng.standard_normal((8, 3))
    X = _rollout(np.concatenate([rng.standard_normal(3), np.zeros(3)]), U, 0.05)
    for d in shooting_defects(X, U, 0.05):
        np.testing.assert_allclose(d, 0.0, atol=1e-15)


def test_shooting_defects_localized():
    # breaking one state produces exactly one nonzero defect
    U = np.zeros((5, 2))
    X = _rollout(np.array([0.1, -0.2, 0.3, 0.4]), U, 0.05)
    X[3, 0] += 0.01
    defects = shooting_defects(X, U, 0.05)
    nonzero = [k for k, d in enumerate(defects) if np.abs(d).max() > 1e-12]
    assert nonzero == [2, 3]  # arrival at node 3 and departure from it


def test_shooting_defects_shape_mismatch():
    with pytest.raises(ValueError, match="states"):
        shooting_defects(np.zeros((5, 4)), np.zeros((5, 2)), 0.05)


# configuration


def test_config_defaults_match_reported_tuning():
    cfg = MpcConfig()
    assert cfg.horizon == 50
    assert cfg.dt == 0.05
    np.testing.assert_allclose(cfg.q_ee, np.ones(6))
    np.testing.assert_allclose(cfg.q_ee_terminal, np.ones(6))
    assert cfg.q_rep == 0.01
    assert cfg.q_s == 0.01
    assert cfg.q_s_terminal == 10.0
    assert cfg.r == 1e-9
    assert cfg.d_th1 == 0.02
    assert cfg.d_th2 == 0.1


@pytest.mark.parametrize("bad", [
    {"horizon": 0},
    {"dt": 0.0},
    {"dt": -0.1},
    {"d_th1": 0.1, "d_th2": 0.1},
    {"d_th1": -0.01},
    {"r": -1.0},
    {"method": "collocation"},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        MpcConfig(**bad)


def test_config_from_dict_unknown_key():
    with pytest.raises(ValueError, match="unknown"):
        MpcConfig.from_dict({"horizons": 10})


# QP solver


def test_qp_unconstrained_matches_normal_equations(rng):
    n = 6
    B = rng.standard_normal((n, n))
    H = B @ B.T + n * np.eye(n)
    g = rng.standard_normal(n)
    A_in = np.eye(n)
    b_in = np.full(n, -100.0)  # inactive box
    res = solve_qp(H, g, None, None, A_in, b_in, np.zeros(n))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, np.linalg.solve(H, -g), atol=1e-8)
    assert res.working_set == ()


def test_qp_equality_constrained_oracle():
    # min |z|^2 subject to sum z = 1 puts equal weight on every entry
    n = 4
    H = 2.0 * np.eye(n)
    A_eq = np.ones((1, n))
    res = solve_qp(H, np.zeros(n), A_eq, np.array([1.0]), None, None,
                   np.array([1.0, 0.0, 0.0, 0.0]))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, np.full(n, 0.25), atol=1e-9)


def test_qp_active_box():
    # min (z-2)^2 with z <= 1 pins the bound
    H = np.array([[2.0]])
    g = np.array([-4.0])
    A_in = np.array([[-1.0]])
    b_in = np.array([-1.0])
    res = solve_qp(H, g, None, None, A_in, b_in, np.array([0.0]))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, [1.0], atol=1e-10)
    assert res.working_set == (0,)


def test_qp_already_optimal_start():
    H = np.diag([2.0, 4.0])
    g = np.array([-2.0, -4.0])
    res = solve_qp(H, g, None, None, np.eye(2), np.full(2, -10.0),
                   np.array([1.0, 1.0]))
    assert res.status == "optimal"
    assert res.iterations == 1


def test_qp_random_boxes_match_projection(rng):
    # separable quadratic with box constraints: solution is the clipped target
    for _ in range(20):
        n = 5
        d = rng.uniform(0.5, 3.0, n)
        target = rng.uniform(-2.0, 2.0, n)
        H = np.diag(2.0 * d)
        g = -2.0 * d * target
        A_in = np.vstack([np.eye(n), -np.eye(n)])
        b_in = np.concatenate([np.full(n, -1.0), np.full(n, -1.0)])  # |z| <= 1
        res = solve_qp(H, g, None, None, A_in, b_in, np.zeros(n))
        assert res.status == "optimal"
        np.testing.assert_allclose(res.z, np.clip(target, -1.0, 1.0), atol=1e-8)


def _enumerated_qp_optimum(H, g, A_eq, b_eq, A_in, b_in):
    """Oracle: the optimum of a strictly convex QP minimizes it on the face
    of some active set, so it is the best feasible point among the
    equality-constrained minimizers of every active set."""
    n = H.shape[0]
    best, best_f = None, np.inf
    for k in range(min(n - len(b_eq), len(b_in)) + 1):
        for rows in itertools.combinations(range(len(b_in)), k):
            A = np.vstack([A_eq, A_in[list(rows)]])
            b = np.concatenate([b_eq, b_in[list(rows)]])
            K = np.block([[H, A.T], [A, np.zeros((len(b), len(b)))]])
            z = np.linalg.solve(K, np.concatenate([-g, b]))[:n]
            f = 0.5 * z @ H @ z + g @ z
            if np.all(A_in @ z >= b_in - 1e-9) and f < best_f:
                best, best_f = z, f
    return best


@pytest.mark.parametrize("m_eq", [0, 1], ids=["inequality-only",
                                              "one-equality"])
def test_qp_matches_enumerated_active_sets(m_eq):
    # small strictly convex QPs with coupled (dense) inequality rows, fed to
    # the solver as dense arrays and as CSR matrices
    rng = np.random.default_rng(40 + m_eq)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n))
        H = B @ B.T + n * np.eye(n)
        g = rng.normal(0.0, 3.0, n)
        A_in = rng.normal(size=(m, n))
        A_eq = rng.normal(size=(m_eq, n))
        z0 = rng.normal(size=n)
        b_in = A_in @ z0 - rng.uniform(0.0, 1.0, m)
        b_eq = A_eq @ z0
        want = _enumerated_qp_optimum(H, g, A_eq, b_eq, A_in, b_in)
        for form in (np.asarray, sp.csr_matrix):
            res = solve_qp(form(H), g, form(A_eq) if m_eq else None,
                           b_eq if m_eq else None, form(A_in), b_in, z0)
            assert res.status == "optimal"
            np.testing.assert_allclose(res.z, want, rtol=0, atol=1e-8)


_DENSE_AND_CSR = pytest.mark.parametrize(
    "form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])


@_DENSE_AND_CSR
def test_make_feasible_repairs_marked_rows(form):
    A_in = np.array([[1.0, 0.0], [0.0, 1.0]])
    b_in = np.array([1.0, -5.0])
    z = make_feasible(None, None, form(A_in), b_in, np.zeros(2),
                      slack_rows=[0])
    assert z is not None
    assert A_in[0] @ z >= 1.0 - 1e-7


@_DENSE_AND_CSR
def test_make_feasible_keeps_equality_rows(form):
    # z0 >= 1 is repaired along the equality z0 = z1
    A_eq = np.array([[1.0, -1.0]])
    b_eq = np.array([0.0])
    A_in = np.array([[1.0, 0.0], [0.0, 1.0]])
    b_in = np.array([1.0, -5.0])
    z = make_feasible(form(A_eq), b_eq, form(A_in), b_in, np.zeros(2),
                      slack_rows=[0])
    assert z is not None
    assert A_in[0] @ z >= 1.0 - 1e-7
    assert abs(A_eq[0] @ z) <= 1e-9


@_DENSE_AND_CSR
def test_make_feasible_rejects_unmarked_violation(form):
    A_in = np.array([[1.0, 0.0]])
    b_in = np.array([1.0])
    assert make_feasible(None, None, form(A_in), b_in, np.zeros(2),
                         slack_rows=[]) is None


@_DENSE_AND_CSR
def test_make_feasible_detects_contradiction(form):
    # z >= 1 and -z >= 0 cannot both hold no matter the slack
    A_in = np.array([[1.0], [-1.0]])
    b_in = np.array([1.0, 0.0])
    assert make_feasible(None, None, form(A_in), b_in, np.array([0.5]),
                         slack_rows=[0, 1]) is None


# transcription


def test_variable_and_row_counts(planar2r):
    N = 6
    cfg = MpcConfig(horizon=N, method="multiple")
    obs = (ball([1.5, 0.4, 0.0]),)
    inp = PlannerInput(x0=np.zeros(4), T_ref=Pose.identity(), obstacles=obs)
    prob = transcribe(inp, cfg, planar2r)
    n = planar2r.n
    assert prob.n_vars == (N + 1) * 2 * n + N * n
    assert prob.A_eq.shape[0] == 2 * n * (N + 1)  # initial pin + N defects
    pairs = len(prob.context.distance_rows)
    assert pairs == len(planar2r.collision_bodies)
    # velocity rows on nodes 1..N, position rows on nodes 2..N, input rows,
    # distance rows on nodes 2..N
    want = 2 * n * N + 2 * n * (N - 1) + 2 * n * N + pairs * (N - 1)
    assert prob.A_in.shape[0] == want
    assert prob.n_distance_rows == pairs * (N - 1)


def test_single_shooting_variable_count(planar2r):
    cfg = MpcConfig(horizon=6, method="single")
    inp = PlannerInput(x0=np.zeros(4), T_ref=Pose.identity())
    prob = transcribe(inp, cfg, planar2r)
    assert prob.n_vars == 6 * planar2r.n
    assert prob.A_eq is None or prob.A_eq.shape[0] == 0


@pytest.mark.parametrize("method", ["multiple", "single"])
def test_split_join_round_trip(planar2r, rng, method):
    cfg = MpcConfig(horizon=5, method=method)
    inp = PlannerInput(x0=np.zeros(4), T_ref=Pose.identity())
    prob = transcribe(inp, cfg, planar2r)
    z = rng.standard_normal(prob.n_vars)
    X, U = prob.split(z)
    np.testing.assert_allclose(prob.join(X, U), z)


def test_single_shooting_is_condensed_multiple_shooting(panda7, rng):
    # oracle: the rollout z(U) in the multiple-shooting layout gives the
    # single-shooting QP at U the same objective (up to a constant) and the
    # same inequality residuals as the multiple-shooting QP at z(U)
    N, n = 6, panda7.n
    q0 = np.array([0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7])
    x0 = np.concatenate([q0, rng.uniform(-0.1, 0.1, n)])
    fk = forward_kinematics(panda7, q0)
    obs = (ball(fk[-1].translation + np.array([0.0, 0.15, 0.1]), radius=0.08),)
    T_ref = Pose(rotation=fk[-1].rotation.copy(),
                 translation=fk[-1].translation + np.array([0.0, 0.1, 0.0]))
    inp = PlannerInput(x0=x0, T_ref=T_ref, obstacles=obs)
    ms = transcribe(inp, MpcConfig(horizon=N, method="multiple"), panda7)
    ss = transcribe(inp, MpcConfig(horizon=N, method="single"), panda7)
    assert ms.n_distance_rows > 0
    assert ss.n_distance_rows == ms.n_distance_rows
    assert ss.slack_rows == ms.slack_rows

    def objective(prob, z):
        return 0.5 * z @ (prob.H @ z) + prob.g @ z

    draws = []
    for _ in range(2):
        U = rng.uniform(-1.0, 1.0, (N, n))
        X = _rollout(ms.x0, U, ms.dt)
        z = ms.join(X, U)
        np.testing.assert_allclose(ms.A_eq @ z, ms.b_eq, atol=1e-12)
        np.testing.assert_allclose(ss.A_in @ U.ravel() - ss.b_in,
                                   ms.A_in @ z - ms.b_in, atol=1e-12)
        X_ss, U_ss = ss.split(U.ravel())
        np.testing.assert_allclose(X_ss, X, atol=1e-12)
        np.testing.assert_allclose(U_ss, U, atol=0.0)
        draws.append((objective(ss, U.ravel()), objective(ms, z)))
    (ss_a, ms_a), (ss_b, ms_b) = draws
    np.testing.assert_allclose(ss_a - ss_b, ms_a - ms_b, rtol=1e-9)


def test_initial_guess_is_dynamically_feasible(planar2r):
    x0 = np.array([0.3, -0.2, 1.0, -0.5])
    cfg = MpcConfig(horizon=8, method="multiple")
    prob = transcribe(PlannerInput(x0=x0, T_ref=Pose.identity()), cfg, planar2r)
    X, U = prob.split(prob.z0)
    np.testing.assert_allclose(X[0], x0, atol=1e-12)
    for d in shooting_defects(X, U, cfg.dt):
        np.testing.assert_allclose(d, 0.0, atol=1e-12)


def test_braking_guess_respects_limits(planar2r):
    # from a fast start the cold-start guess slows down inside the boxes
    vmax = planar2r.limits.velocity
    amax = planar2r.limits.acceleration
    x0 = np.concatenate([np.zeros(2), vmax * 0.99])
    U = _braking_inputs(planar2r, x0, 10, 0.05)
    X = _rollout(x0, U, 0.05)
    assert np.all(np.abs(U) <= amax + 1e-12)
    assert np.all(np.abs(X[:, 2:]) <= vmax + 1e-12)
    np.testing.assert_allclose(X[-1, 2:], 0.0, atol=1e-9)


def test_warm_inputs_shift_by_one(planar2r):
    U_prev = np.arange(8.0).reshape(4, 2)

    class Prev:
        U = U_prev

    shifted = _warm_inputs(Prev(), planar2r, 4)
    np.testing.assert_allclose(shifted[:-1], U_prev[1:])
    np.testing.assert_allclose(shifted[-1], U_prev[-1])


def test_warm_inputs_rejects_stale_shape(planar2r):
    class Prev:
        U = np.zeros((7, 2))

    assert _warm_inputs(Prev(), planar2r, 4) is None
    assert _warm_inputs(None, planar2r, 4) is None


# full solves


def solve_once(model, cfg, x0, T_ref, obstacles=()):
    inp = PlannerInput(x0=x0, T_ref=T_ref, obstacles=obstacles)
    prob = transcribe(inp, cfg, model)
    return prob, solve(prob, cfg)


def test_unconstrained_reaches_reference(planar2r):
    # free-space reach toward a consistent pose: one solve closes most of the
    # gap, relinearized repeats converge onto the target
    q0 = np.array([0.4, 0.3])
    q_goal = q0 + np.array([-0.15, 0.2])
    T_ref = forward_kinematics(planar2r, q_goal)[-1]
    cfg = MpcConfig(horizon=25, method="multiple")
    prob, sol = solve_once(planar2r, cfg, np.concatenate([q0, np.zeros(2)]), T_ref)
    assert sol.status == "optimal"
    assert sol.converged
    err0 = np.linalg.norm(forward_kinematics(planar2r, q0)[-1].translation
                          - T_ref.translation)
    T_N = forward_kinematics(planar2r, sol.X[-1, :2])[-1]
    assert np.linalg.norm(T_N.translation - T_ref.translation) < 0.5 * err0

    q = sol.X[-1, :2]
    for _ in range(4):
        _, sol = solve_once(planar2r, cfg, np.concatenate([q, np.zeros(2)]), T_ref)
        q = sol.X[-1, :2]
    T_N = forward_kinematics(planar2r, q)[-1]
    assert np.linalg.norm(T_N.translation - T_ref.translation) < 2e-3
    np.testing.assert_allclose(q, q_goal, atol=5e-3)


def test_methods_agree_without_obstacles(planar2r):
    x0 = np.array([0.2, -0.1, 0.0, 0.0])
    T_ref = Pose(translation=np.array([1.2, 0.9, 0.0]))
    sols = {}
    for method in ("multiple", "single"):
        cfg = MpcConfig(horizon=12, method=method)
        _, sols[method] = solve_once(planar2r, cfg, x0, T_ref)
    assert sols["multiple"].status == "optimal"
    assert sols["single"].status == "optimal"
    np.testing.assert_allclose(sols["multiple"].X, sols["single"].X, atol=1e-7)
    np.testing.assert_allclose(sols["multiple"].cost, sols["single"].cost,
                               rtol=1e-9)


def constrained_case(model):
    q0 = np.array([0.1, 0.1])
    fk = forward_kinematics(model, q0)
    p_obs = fk[-1].translation + np.array([-0.35, 0.3, 0.0])
    obs = (ball(p_obs, radius=0.08),)
    T_ref = Pose(rotation=fk[-1].rotation.copy(),
                 translation=fk[-1].translation + np.array([-0.3, 0.45, 0.0]))
    return np.concatenate([q0, np.zeros(2)]), T_ref, obs


def test_distance_constraint_enforced(planar2r):
    x0, T_ref, obs = constrained_case(planar2r)
    sweep = closest_pair_per_link(planar2r, x0[:2], obs)
    cfg = MpcConfig(horizon=20, method="multiple")
    assert sweep.min_distance > cfg.d_th1  # scenario starts clear
    prob, sol = solve_once(planar2r, cfg, x0, T_ref, obs)
    assert sol.status == "optimal"
    assert prob.n_distance_rows > 0
    assert sol.min_predicted_distance >= cfg.d_th1 - 1e-6
    viol = np.maximum(prob.b_in - prob.A_in @ prob.join(sol.X, sol.U), 0.0)
    assert viol.max() <= 1e-6


def test_methods_agree_with_active_rows(planar2r):
    x0, T_ref, obs = constrained_case(planar2r)
    sols = {}
    for method in ("multiple", "single"):
        cfg = MpcConfig(horizon=20, method=method)
        _, sols[method] = solve_once(planar2r, cfg, x0, T_ref, obs)
        assert sols[method].status == "optimal"
    np.testing.assert_allclose(sols["multiple"].cost, sols["single"].cost,
                               rtol=1e-7)
    np.testing.assert_allclose(sols["multiple"].X, sols["single"].X, atol=1e-6)


def test_repeated_solves_bitwise_identical(planar2r):
    x0, T_ref, obs = constrained_case(planar2r)
    cfg = MpcConfig(horizon=20, method="multiple")
    _, a = solve_once(planar2r, cfg, x0, T_ref, obs)
    _, b = solve_once(planar2r, cfg, x0, T_ref, obs)
    assert a.iterations == b.iterations
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.U, b.U)
    assert a.cost == b.cost


def test_relaxation_lowers_tracking_pressure(planar2r):
    # with an obstacle inside the band, the relaxed problem commands a
    # smaller first step toward the goal than the baseline weighting
    x0, T_ref, _ = constrained_case(planar2r)
    fk = forward_kinematics(planar2r, x0[:2])
    obs = (ball(fk[-1].translation + np.array([-0.1, 0.16, 0.0]), radius=0.08),)
    sweep = closest_pair_per_link(planar2r, x0[:2], obs)
    assert sweep.min_distance < 0.1
    steps = {}
    for flag in (True, False):
        cfg = MpcConfig(horizon=15, task_oriented=flag)
        _, sol = solve_once(planar2r, cfg, x0, T_ref, obs)
        steps[flag] = np.linalg.norm(sol.U[0])
    assert steps[True] < steps[False]


def test_planner_session_warm_start_and_tracking(planar2r):
    # gentle flyby: every replanning cycle should succeed on the warm start
    q0 = np.array([0.1, 0.1])
    fk = forward_kinematics(planar2r, q0)
    obs = (ball(fk[-1].translation + np.array([-0.35, 0.4, 0.0]), radius=0.06),)
    T_ref = Pose(rotation=fk[-1].rotation.copy(),
                 translation=fk[-1].translation + np.array([-0.25, 0.35, 0.0]))
    cfg = MpcConfig(horizon=15)
    session = Planner(planar2r, cfg)
    x = np.concatenate([q0, np.zeros(2)])
    for _ in range(8):
        step = session.plan_step(x, T_ref, obs)
        assert not step.used_fallback
        assert step.solution.status == "optimal"
        x = np.concatenate([step.q_des, step.qd_des])
        d = closest_pair_per_link(planar2r, x[:2], obs).min_distance
        assert d >= cfg.d_th1 - 1e-3  # curvature can nibble at the margin
    assert np.all(np.isfinite(x))


def test_planner_fallback_consumes_previous_plan(planar2r, monkeypatch):
    x0, T_ref, obs = constrained_case(planar2r)
    cfg = MpcConfig(horizon=10)
    session = Planner(planar2r, cfg)
    good = session.plan_step(x0, T_ref, obs)
    X_good = good.solution.X

    import safemanip.planner.planner as planner_mod
    real_solve = planner_mod.solve

    def fake_solve(problem, cfg):
        sol = real_solve(problem, cfg)
        return MpcSolution(X=sol.X, U=sol.U, cost=sol.cost,
                           max_defect=sol.max_defect,
                           min_predicted_distance=sol.min_predicted_distance,
                           iterations=sol.iterations, converged=False,
                           status="infeasible")

    monkeypatch.setattr(planner_mod, "solve", fake_solve)
    for miss in range(1, 4):
        step = session.plan_step(x0, T_ref, obs)
        assert step.used_fallback
        np.testing.assert_allclose(step.q_des, X_good[1 + miss, :2])
    # a shifted plan runs out at the horizon end and then holds the last node
    for _ in range(20):
        step = session.plan_step(x0, T_ref, obs)
    np.testing.assert_allclose(step.q_des, X_good[-1, :2])


def test_planner_fallback_without_history_holds_position(planar2r, monkeypatch):
    import safemanip.planner.planner as planner_mod
    real_solve = planner_mod.solve

    def fake_solve(problem, cfg):
        sol = real_solve(problem, cfg)
        return MpcSolution(X=sol.X, U=sol.U, cost=sol.cost,
                           max_defect=sol.max_defect,
                           min_predicted_distance=sol.min_predicted_distance,
                           iterations=sol.iterations, converged=False,
                           status="infeasible")

    monkeypatch.setattr(planner_mod, "solve", fake_solve)
    session = Planner(planar2r, MpcConfig(horizon=10))
    x0 = np.array([0.3, -0.2, 0.4, 0.0])
    step = session.plan_step(x0, Pose.identity())
    assert step.used_fallback
    np.testing.assert_allclose(step.q_des, x0[:2])
    np.testing.assert_allclose(step.qd_des, 0.0)


def test_solution_velocity_limits_respected(planar2r):
    # an aggressive far-away target saturates but never exceeds the boxes
    x0 = np.zeros(4)
    T_ref = Pose(translation=np.array([-1.5, 1.0, 0.0]))
    cfg = MpcConfig(horizon=20)
    _, sol = solve_once(planar2r, cfg, x0, T_ref)
    assert sol.status == "optimal"
    vmax = planar2r.limits.velocity
    amax = planar2r.limits.acceleration
    assert np.all(np.abs(sol.X[1:, 2:]) <= vmax[None, :] + 1e-7)
    assert np.all(np.abs(sol.U) <= amax[None, :] + 1e-7)
    assert np.abs(sol.X[1:, 2:]).max() > 0.9 * vmax.min()  # actually works hard
