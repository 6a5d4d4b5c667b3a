"""Receding-horizon planner: cost terms, transcriptions, QP solver."""

import dataclasses
import itertools
import logging

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from safemanip import sim
from safemanip.geometry import (
    Capsule,
    DistanceResult,
    Obstacle,
    Sphere,
    closest_pair_per_link,
)
from safemanip.model import body_jacobian, forward_kinematics, robust_null_projector
from safemanip.planner import qp
from safemanip.planner.config import MpcConfig
from safemanip.planner.costs import build_context, relaxation_factor, repulsive_velocity
from safemanip.planner.planner import MpcSolution, Planner, solve
from safemanip.planner.qp import make_feasible, solve_qp
from safemanip.planner.transcription import PlannerInput, transcribe
from safemanip.scenario import scenario_from_dict
from safemanip.se3 import Pose, pose_diff


def ball(center, radius=0.1, name="ball"):
    return Obstacle(shape=Sphere(radius=radius),
                    pose=Pose(translation=np.asarray(center, dtype=float)),
                    name=name)


def pair_result(d, normal=(0.0, 0.0, 1.0)):
    n = np.asarray(normal, dtype=float)
    p = np.zeros(3)
    return DistanceResult(distance=d, p_robot=p, p_obstacle=p + d * n,
                          normal=n, link=0, body_index=0, obstacle_index=0)


# per-node oracle: the cost, shooting defects and linearized clearance of a
# plan summed node by node, independent of the QP's H, g, c and rows


def _split(x, n):
    x = np.asarray(x, dtype=float).reshape(-1)
    return x[:n], x[n:]


def predicted_twist(J_now, q_k, q_now):
    """Linearized twist J(q)(q_k - q) with J and q frozen at the measurement."""
    q_k = np.asarray(q_k, dtype=float).reshape(-1)
    q_now = np.asarray(q_now, dtype=float).reshape(-1)
    return np.asarray(J_now) @ (q_k - q_now)


def stage_cost(x_k, u_k, context):
    """Tracking + repulsion + smoothness + input effort for one node."""
    n = context.q.size
    q_k, qd_k = _split(x_k, n)
    u_k = np.asarray(u_k, dtype=float).reshape(-1)
    e_ee = context.V_ref - predicted_twist(context.J_task, q_k, context.q)
    cost = float(e_ee @ (context.W_stage * e_ee))
    for rep in context.repulsions:
        e = context.N_t @ (qd_k - rep.qd_target)
        cost += float(e @ (context.Q_rep * e))
    if context.qd_return is not None:
        e = context.N_t @ (qd_k - context.qd_return)
        cost += float(e @ (context.Q_return * e))
    cost += float(qd_k @ (context.Q_s * qd_k))
    cost += float(u_k @ (context.R * u_k))
    return cost


def terminal_cost(x_N, context):
    """Tracking + smoothness with the terminal weights; no input or
    repulsion terms."""
    n = context.q.size
    q_N, qd_N = _split(x_N, n)
    e_ee = context.V_ref - predicted_twist(context.J_task, q_N, context.q)
    cost = float(e_ee @ (context.W_terminal * e_ee))
    cost += float(qd_N @ (context.Q_s_terminal * qd_N))
    return cost


def shooting_defects(X, U, dt):
    """Gaps between each shooting state and the explicit-Euler prediction
    from its predecessor."""
    X = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    if X.shape[0] != U.shape[0] + 1:
        raise ValueError(f"need N+1 states for N inputs, got {X.shape[0]} "
                         f"states and {U.shape[0]} inputs")
    n = X.shape[1] // 2
    defects = []
    for k in range(U.shape[0]):
        q_k, qd_k = X[k, :n], X[k, n:]
        pred = np.concatenate([q_k + dt * qd_k, qd_k + dt * U[k]])
        defects.append(X[k + 1] - pred)
    return defects


def _rollout(x0, U, dt):
    """States of the explicit-Euler rollout of inputs U from x0: the defect
    oracle, written apart from the QP's equality rows."""
    n = U.shape[1]
    X = np.empty((U.shape[0] + 1, 2 * n))
    X[0] = x0
    for k in range(U.shape[0]):
        X[k + 1, :n] = X[k, :n] + dt * X[k, n:]
        X[k + 1, n:] = X[k, n:] + dt * U[k]
    return X


def join(problem, X, U):
    """(X, U) -> decision vector, the inverse of ``MpcProblem.split``."""
    n, N = problem.n, problem.N
    nodes = np.zeros((N + 1, 3 * n))
    nodes[:, :2 * n] = X
    nodes[:N, 2 * n:] = U
    return nodes.reshape(-1)[:N * 3 * n + 2 * n]


def linearized_min_distance(problem, X):
    """Least linearized distance d + grad (q_k - q) over the distance rows
    and nodes 2..N (inf without rows)."""
    ctx = problem.context
    if not ctx.distance_rows:
        return np.inf
    n = problem.n
    best = np.inf
    for row in ctx.distance_rows:
        for k in range(2, problem.N + 1):
            d = row.distance + float(row.gradient @ (X[k, :n] - ctx.q))
            if d < best:
                best = d
    return best


# cost terms


def test_reference_twist_pure_translation():
    T_now = Pose.identity()
    T_ref = Pose(translation=np.array([0.3, -0.1, 0.2]))
    V = pose_diff(T_now, T_ref)
    np.testing.assert_allclose(V[:3], 0.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(V[3:], [0.3, -0.1, 0.2], rtol=0.0, atol=1e-12)


def test_reference_twist_pure_rotation():
    T_ref = Pose.from_rpy((0.0, 0.0, 0.0), (0.0, 0.0, 0.4))
    V = pose_diff(Pose.identity(), T_ref)
    np.testing.assert_allclose(V[:3], [0.0, 0.0, 0.4], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(V[3:], 0.0, rtol=0.0, atol=1e-12)


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
    np.testing.assert_allclose(predicted_twist(J, q + step, q), 0.0,
                               rtol=0.0, atol=1e-12)


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
    np.testing.assert_allclose(v, [0.0, 0.0, 0.04], rtol=0.0, atol=1e-12)


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
    np.testing.assert_allclose(shifted, base, rtol=0.0, atol=1e-9)


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
    # explicit Euler rolled out here, not by the package, is the oracle
    dt = 0.05
    for n in (2, 3, 7):
        for _ in range(10):
            N = int(rng.integers(3, 9))
            U = rng.uniform(-1.0, 1.0, (N, n))
            X = np.empty((N + 1, 2 * n))
            X[0, :n] = rng.uniform(-2.5, 2.5, n)
            X[0, n:] = rng.uniform(-0.3, 0.3, n)
            for k in range(N):
                X[k + 1, :n] = X[k, :n] + dt * X[k, n:]
                X[k + 1, n:] = X[k, n:] + dt * U[k]
            for d in shooting_defects(X, U, dt):
                np.testing.assert_allclose(d, 0.0, rtol=0.0, atol=1e-15)


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
    res = solve_qp(H, g, None, None, A_in, b_in)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, np.linalg.solve(H, -g), rtol=0.0, atol=1e-8)
    assert res.working_set == ()


def test_qp_equality_constrained_oracle(rng):
    # min |z|^2 subject to sum z = 1 puts equal weight on every entry
    n = 4
    H = 2.0 * np.eye(n)
    A_eq = np.ones((1, n))
    res = solve_qp(H, np.zeros(n), A_eq, np.array([1.0]), None, None)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, np.full(n, 0.25), rtol=0.0, atol=1e-9)
    # random equality-only QPs against the KKT system solved densely
    for _ in range(20):
        n = int(rng.integers(4, 12))
        m_eq = int(rng.integers(1, n - 1))
        B = rng.normal(size=(n, n))
        H = B @ B.T + n * np.eye(n)
        g = rng.normal(size=n)
        A_eq = rng.normal(size=(m_eq, n))
        b_eq = rng.normal(size=m_eq)
        res = solve_qp(H, g, A_eq, b_eq, None, np.zeros(0))
        assert res.status == "optimal"
        K = np.block([[H, A_eq.T], [A_eq, np.zeros((m_eq, m_eq))]])
        want = np.linalg.solve(K, np.concatenate([-g, b_eq]))[:n]
        np.testing.assert_allclose(res.z, want, rtol=0.0, atol=1e-9)


def test_qp_active_box():
    # min (z-2)^2 with z <= 1 pins the bound
    H = np.array([[2.0]])
    g = np.array([-4.0])
    A_in = np.array([[-1.0]])
    b_in = np.array([-1.0])
    res = solve_qp(H, g, None, None, A_in, b_in)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, [1.0], rtol=0.0, atol=1e-10)
    assert res.working_set == (0,)


def test_qp_already_optimal_start(monkeypatch):
    # x_eq, the start of the dual method, meets every row: no step is taken
    # and the only backsolve is the one that computes x_eq
    counts = _count_kkt_work(monkeypatch)
    H = np.diag([2.0, 4.0])
    g = np.array([-2.0, -4.0])
    res = solve_qp(H, g, None, None, np.eye(2), np.full(2, -10.0))
    assert res.status == "optimal"
    assert res.iterations == 0
    assert counts == {"solve": 1, "_factor": 1, "add": 0}
    np.testing.assert_allclose(res.z, [1.0, 1.0], rtol=0.0, atol=1e-15)


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
        res = solve_qp(H, g, None, None, A_in, b_in)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.z, np.clip(target, -1.0, 1.0),
                                   rtol=0.0, atol=1e-8)


def kkt_certificate(H, g, A_eq, b_eq, A_in, b_in, z, tol=1e-8):
    """Why z is not the optimum of min 0.5 z'Hz + g'z s.t. A_eq z = b_eq,
    A_in z >= b_in, or None when it certifies: every row holds within tol
    (relative to 1 + |b|), and H z + g = A_eq' nu + A_act' mu with mu >= 0
    over the rows active at z, fitted by bounded least squares, leaves a
    residual within tol.  It reads nothing of the solver but z."""
    def dense(M):
        return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)

    H, A_in = dense(H), dense(A_in)
    A_eq = np.zeros((0, z.size)) if A_eq is None else dense(A_eq)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq)
    eq = np.abs(A_eq @ z - b_eq).max(initial=0.0)
    if eq > tol * (1.0 + np.abs(b_eq).max(initial=0.0)):
        return f"equality residual {eq:.2e}"
    scale = 1.0 + np.abs(b_in)
    slack = A_in @ z - b_in
    if np.any(slack < -tol * scale):
        return f"row violated by {-(slack / scale).min():.2e}"
    A = np.vstack([A_eq, A_in[slack <= tol * scale]])
    grad = H @ z + g
    resid = np.abs(grad).max()
    if A.shape[0]:
        m = A_eq.shape[0]
        lower = np.concatenate([np.full(m, -np.inf), np.zeros(len(A) - m)])
        fit = scipy.optimize.lsq_linear(A.T, grad, bounds=(lower, np.inf),
                                        method="bvls")
        resid = np.abs(A.T @ fit.x - grad).max()
    if resid > tol:
        return f"no multipliers >= 0 fit H z + g: residual {resid:.2e}"
    return None


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


def random_qps(m_eq, count=300):
    """(H, g, A_eq, b_eq, A_in, b_in): small strictly convex QPs with coupled
    (dense) inequality rows, feasible by construction."""
    rng = np.random.default_rng(40 + m_eq)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n))
        H = B @ B.T + n * np.eye(n)
        g = rng.normal(0.0, 3.0, n)
        A_in = rng.normal(size=(m, n))
        A_eq = rng.normal(size=(m_eq, n))
        z0 = rng.normal(size=n)
        b_in = A_in @ z0 - rng.uniform(0.0, 1.0, m)
        yield H, g, A_eq, A_eq @ z0, A_in, b_in


@pytest.mark.parametrize("m_eq", [0, 1], ids=["inequality-only",
                                              "one-equality"])
def test_qp_matches_enumerated_active_sets(m_eq):
    # fed to the solver as dense arrays and as CSR matrices; each answer
    # also passes the KKT certificate
    for H, g, A_eq, b_eq, A_in, b_in in random_qps(m_eq):
        want = _enumerated_qp_optimum(H, g, A_eq, b_eq, A_in, b_in)
        for form in (np.asarray, sp.csr_matrix):
            res = solve_qp(form(H), g, form(A_eq) if m_eq else None,
                           b_eq if m_eq else None, form(A_in), b_in)
            assert res.status == "optimal"
            np.testing.assert_allclose(res.z, want, rtol=0, atol=1e-8)
            assert kkt_certificate(form(H), g, A_eq, b_eq, form(A_in), b_in,
                                   res.z) is None


def test_kkt_certificate_fails_when_the_partial_step_never_drops(
        monkeypatch):
    # fault: a working row whose multiplier falls to zero stays, so rows
    # with negative multipliers can end in the working set; the certificate
    # must reject those answers, and the solver's own check must not call
    # them optimal
    monkeypatch.setattr(qp, "_partial_step", lambda u, du: (np.inf, -1))
    rejected = 0
    for H, g, A_eq, b_eq, A_in, b_in in random_qps(1, count=100):
        res = solve_qp(H, g, A_eq, b_eq, A_in, b_in)
        if kkt_certificate(H, g, A_eq, b_eq, A_in, b_in, res.z) is not None:
            rejected += 1
            assert res.status != "optimal"
    assert rejected


_DENSE_AND_CSR = pytest.mark.parametrize(
    "form", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])


def test_qp_working_set_skips_dependent_rows():
    # row 4 = row 0 + row 1 (and b4 = b0 + b1) is implied by rows 0 and 1,
    # so the optimum is that of rows 0-3.  Along a step that keeps rows 0 and
    # 1 active, a4.p is roundoff, about 1e-12 at this scale: an absolute
    # direction test let such rows block and enter the working set, which
    # then lost rank (15 of 600 solves here)
    rng = np.random.default_rng(0)
    scale = 1e3
    for _ in range(300):
        n = int(rng.integers(2, 6))
        B = rng.normal(size=(n, n))
        H = B @ B.T + n * np.eye(n)
        g = scale * rng.normal(0.0, 3.0, n)
        A_in = scale * rng.normal(size=(4, n))
        z0 = rng.normal(size=n)
        b_in = A_in @ z0 - scale * rng.uniform(0.0, 1.0, 4)
        want = _enumerated_qp_optimum(H, g, np.zeros((0, n)), np.zeros(0),
                                      A_in, b_in)
        A_in = np.vstack([A_in, A_in[0] + A_in[1]])
        b_in = np.append(b_in, b_in[0] + b_in[1])
        for form in (np.asarray, sp.csr_matrix):
            res = solve_qp(form(H), g, None, None, form(A_in), b_in)
            assert res.status == "optimal"
            rows = list(res.working_set)
            assert np.linalg.matrix_rank(A_in[rows]) == len(rows)
            np.testing.assert_allclose(res.z, want, rtol=0, atol=1e-8 * scale)


def _count_kkt_work(monkeypatch):
    """Live counts of KKT backsolves, factorizations and working-set adds."""
    counts = dict.fromkeys(("solve", "_factor", "add"), 0)
    for name in counts:
        def counted(self, *args, _name=name,
                    _method=getattr(qp._BaseKkt, name)):
            counts[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(qp._BaseKkt, name, counted)
    return counts


@_DENSE_AND_CSR
def test_qp_backsolves_once_per_factorization_and_added_row(form,
                                                            monkeypatch):
    # the random QPs of test_qp_matches_enumerated_active_sets; some of them
    # drop rows and add them back, and every add costs one backsolve
    counts = _count_kkt_work(monkeypatch)
    rng = np.random.default_rng(41)
    readded = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 7))
        B = rng.normal(size=(n, n))
        H = B @ B.T + n * np.eye(n)
        A_in = rng.normal(size=(m, n))
        A_eq = rng.normal(size=(1, n))
        z0 = rng.normal(size=n)
        b_in = A_in @ z0 - rng.uniform(0.0, 1.0, m)
        before = dict(counts)
        res = solve_qp(form(H), rng.normal(0.0, 3.0, n), form(A_eq),
                       A_eq @ z0, form(A_in), b_in)
        assert res.status == "optimal"
        work = {k: counts[k] - before[k] for k in counts}
        assert work["_factor"] == 1  # no regularization step
        assert work["solve"] == 1 + work["add"]
        readded += work["add"] > len(res.working_set)
    assert readded  # the corpus exercises drops


@_DENSE_AND_CSR
def test_qp_large_working_set_matches_projection(form, monkeypatch):
    # 160 of 200 coordinates end on a bound, one add per iteration, so the
    # working arrays outgrow their first capacity several times
    rng = np.random.default_rng(3)
    n, n_out = 200, 160
    d = rng.uniform(0.5, 3.0, n)
    target = rng.uniform(-0.9, 0.9, n)
    out = rng.permutation(n)[:n_out]
    target[out] = rng.choice([-1.0, 1.0], n_out) * rng.uniform(1.5, 3.0, n_out)
    A_in = np.vstack([np.eye(n), -np.eye(n)])
    counts = _count_kkt_work(monkeypatch)
    res = solve_qp(form(np.diag(2.0 * d)), -2.0 * d * target, None, None,
                   form(A_in), np.full(2 * n, -1.0))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.z, np.clip(target, -1.0, 1.0), rtol=0.0, atol=1e-8)
    assert len(res.working_set) == n_out
    assert counts == {"solve": 1 + n_out, "_factor": 1, "add": n_out}


def test_singular_kkt_climbs_the_regularization_ladder(planar2r,
                                                       monkeypatch):
    # with no input cost and no terminal velocity cost, nothing in the QP
    # prices the last input: the KKT matrix is singular, the solve refactors
    # at the ladder's second level, and its answer must still certify as the
    # optimum of the unregularized QP
    cfg = MpcConfig(horizon=3, r=0.0, q_s_terminal=0.0)
    inp = PlannerInput(x0=np.array([0.2, -0.1, 0.0, 0.0]),
                       T_ref=Pose(translation=np.array([-1.5, 1.0, 0.0])))
    prob = transcribe(inp, cfg, planar2r)
    counts = _count_kkt_work(monkeypatch)
    res = solve_qp(prob.H, prob.g, prob.A_eq, prob.b_eq, prob.A_in,
                   prob.b_in, max_iters=cfg.max_iters, tol=cfg.kkt_tol)
    assert res.status == "optimal"
    assert counts["_factor"] == 2  # levels 0 and 1e-12 of the ladder
    assert res.working_set
    assert kkt_certificate(prob.H, prob.g, prob.A_eq, prob.b_eq, prob.A_in,
                           prob.b_in, res.z) is None


def test_recorded_plan_cycles_pass_the_kkt_certificate(panda7,
                                                       recorded_solves):
    # three cycles of the probe scene at N = 20, each planned from the
    # state its predecessor reached after one node
    planner = Planner(panda7, MpcConfig(horizon=20))
    x = np.concatenate([[0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7], np.zeros(7)])
    T_ref = Pose.from_rpy([0.45, 0.0, 0.45], [np.pi, 0.0, 0.0])
    obs = (ball([0.45, 0.15, 0.55], radius=0.08),)
    for _ in range(3):
        step = planner.plan_step(x, T_ref, obs)
        x = np.concatenate([step.q_des, step.qd_des])
    assert len(recorded_solves) == 3
    for prob, sol in recorded_solves:
        assert sol.status == "optimal"
        z = join(prob, sol.X, sol.U)
        assert kkt_certificate(prob.H, prob.g, prob.A_eq, prob.b_eq,
                               prob.A_in, prob.b_in, z) is None


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
    # single shooting names the multiple-shooting QP: the same variables and
    # the same equality rows
    cfg = MpcConfig(horizon=6, method="single")
    inp = PlannerInput(x0=np.zeros(4), T_ref=Pose.identity())
    prob = transcribe(inp, cfg, planar2r)
    n = planar2r.n
    assert prob.n_vars == 7 * 2 * n + 6 * n
    assert prob.A_eq.shape == (2 * n * 7, prob.n_vars)


@pytest.mark.parametrize("method", ["multiple", "single"])
def test_split_join_round_trip(planar2r, rng, method):
    cfg = MpcConfig(horizon=5, method=method)
    inp = PlannerInput(x0=np.zeros(4), T_ref=Pose.identity())
    prob = transcribe(inp, cfg, planar2r)
    z = rng.standard_normal(prob.n_vars)
    X, U = prob.split(z)
    np.testing.assert_allclose(join(prob, X, U), z)


# the QP's objective, equality residual and distance-row slacks against the
# per-node oracle, with and without each optional cost term and row group

_SCENES = {  # name: (obstacle, posture target, task_oriented)
    "free": (False, False, True),
    "posture": (False, True, True),
    "obstacle": (True, False, True),
    "rows_only": (True, False, False),
    "obstacle_posture": (True, True, True),
}
_ORACLE_CASES = pytest.mark.parametrize(
    "method,scene", list(itertools.product(("multiple", "single"), _SCENES)))


_ORACLE_Q0 = {"panda7": [0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7],
              "planar2r": [0.1, 0.1]}


def oracle_problem(model, method, scene, horizon=8):
    """A problem near a fixed start pose (panda7: the probe pose) whose
    context holds repulsions, distance rows and a posture-return term exactly
    as the scene names."""
    obstacle, posture, task_oriented = _SCENES[scene]
    q0 = np.array(_ORACLE_Q0[model.name])
    x0 = np.concatenate([q0, 0.1 * np.sin(np.arange(1.0, model.n + 1.0))])
    fk = forward_kinematics(model, q0)
    obs = ()
    if obstacle:
        obs = (ball(fk[-1].translation + np.array([0.0, 0.2, 0.1]),
                    radius=0.08),)
    T_ref = Pose(rotation=fk[-1].rotation.copy(),
                 translation=fk[-1].translation + np.array([0.0, 0.1, 0.0]))
    cfg = MpcConfig(horizon=horizon, method=method,
                    task_oriented=task_oriented)
    inp = PlannerInput(x0=x0, T_ref=T_ref, obstacles=obs,
                       posture_target=q0 + 0.3 if posture else None)
    prob = transcribe(inp, cfg, model)
    ctx = prob.context
    assert bool(ctx.repulsions) == (obstacle and task_oriented)
    assert bool(ctx.distance_rows) == obstacle
    assert (ctx.qd_return is not None) == posture
    return prob, cfg


def node_cost(prob, X, U):
    ctx = prob.context
    cost = sum(stage_cost(X[k], U[k], ctx) for k in range(prob.N))
    return cost + terminal_cost(X[prob.N], ctx)


@_ORACLE_CASES
def test_qp_objective_plus_offset_is_the_summed_node_cost(panda7, rng, method,
                                                          scene):
    prob, _ = oracle_problem(panda7, method, scene)
    for _ in range(5):
        z = rng.uniform(-1.0, 1.0, prob.n_vars)
        got = 0.5 * z @ (prob.H @ z) + prob.g @ z + prob.cost_offset
        np.testing.assert_allclose(got, node_cost(prob, *prob.split(z)),
                                   rtol=1e-12, atol=0)


@_ORACLE_CASES
def test_min_predicted_distance_is_the_least_linearized_distance(
        panda7, method, scene):
    prob, cfg = oracle_problem(panda7, method, scene)
    sol = solve(prob, cfg)
    assert sol.status == "optimal"
    want = linearized_min_distance(prob, sol.X)
    if np.isinf(want):
        assert sol.min_predicted_distance == np.inf
    else:
        assert abs(sol.min_predicted_distance - want) <= 1e-12
    # at the optimum the cost is about 1e-3 of c and of the quadratic part
    # that cancels it, so it carries their roundoff at that relative weight
    np.testing.assert_allclose(sol.cost, node_cost(prob, sol.X, sol.U),
                               rtol=1e-10, atol=0)


@_ORACLE_CASES
def test_max_defect_is_the_largest_shooting_defect(panda7, method, scene):
    # both method values solve the multiple-shooting QP, so both report the
    # defects of that QP's plan
    prob, cfg = oracle_problem(panda7, method, scene)
    sol = solve(prob, cfg)
    assert sol.status == "optimal"
    want = max(float(np.abs(d).max())
               for d in shooting_defects(sol.X, sol.U, prob.dt))
    assert abs(sol.max_defect - want) <= 1e-14


# single shooting as a test oracle: the planner's QP condensed onto the
# inputs by the dense lift, S = S_scalar (x) I_n built by np.kron


def dense_lift(n, N, dt):
    """(T, S) as dense arrays, with T x0 + S u the rollout in the node
    layout: x_k = [[I, k dt I], [0, I]] x0
    + sum_{j<k} [[(k-1-j) dt^2 I], [dt I]] u_j."""
    k = np.arange(N + 1)[:, None]
    j = np.arange(N)[None, :]
    before = j < k
    # scalar coefficients of the q, qd and u rows of node k
    T = np.zeros((N + 1, 3, 2))
    T[:, 0, 0] = 1.0
    T[:, 0, 1] = k[:, 0] * dt
    T[:, 1, 1] = 1.0
    S = np.stack([np.where(before, (k - 1 - j) * dt * dt, 0.0),
                  np.where(before, dt, 0.0),
                  np.where(k == j, 1.0, 0.0)], axis=1)
    nz = N * 3 * n + 2 * n
    return (np.kron(T.reshape(-1, 2), np.eye(n))[:nz],
            np.kron(S.reshape(-1, N), np.eye(n))[:nz])


_ROBOTS = pytest.mark.parametrize("robot", ["planar2r", "panda7"])
_HORIZONS = pytest.mark.parametrize("N", [1, 2, 6, 50])


@_ROBOTS
@_HORIZONS
@pytest.mark.parametrize("scene", list(_SCENES))
def test_condensing_matches_the_dense_lift(request, robot, N, scene):
    # z = T x0 + S u meets every equality row for every u, so substituting it
    # leaves the single-shooting QP in u alone; its optimum is the plan the
    # planner returns
    model = request.getfixturevalue(robot)
    prob, cfg = oracle_problem(model, "multiple", scene, horizon=N)
    T, S = dense_lift(prob.n, prob.N, prob.dt)
    z_free = T @ prob.x0
    np.testing.assert_allclose(prob.A_eq @ S, 0.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(prob.A_eq @ z_free, prob.b_eq, rtol=0.0,
                               atol=1e-12)
    Hz = prob.H @ z_free
    H = S.T @ (prob.H @ S)
    g = S.T @ (Hz + prob.g)
    c = prob.cost_offset + float(z_free @ (0.5 * Hz + prob.g))
    A_in, b_in = prob.A_in @ S, prob.b_in - prob.A_in @ z_free
    res = solve_qp(0.5 * (H + H.T), g, None, None, A_in, b_in,
                   max_iters=cfg.max_iters, tol=cfg.kkt_tol)
    sol = solve(prob, cfg)
    assert res.status == sol.status
    X, _ = prob.split(z_free + S @ res.z)
    np.testing.assert_allclose(X, sol.X, rtol=0.0, atol=1e-8)
    cost = 0.5 * res.z @ (H @ res.z) + g @ res.z + c
    np.testing.assert_allclose(cost, sol.cost, rtol=1e-10, atol=0.0)


def test_single_shooting_is_condensed_multiple_shooting(panda7, rng):
    # single shooting names the multiple-shooting QP, whose states the
    # rollout z(U) eliminates: both method values build the same QP, bit for
    # bit, and z(U) of any inputs meets its equality rows
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
    for name in ("H", "A_eq", "A_in"):
        np.testing.assert_array_equal(getattr(ss, name).toarray(),
                                      getattr(ms, name).toarray())
    for name in ("g", "b_eq", "b_in"):
        np.testing.assert_array_equal(getattr(ss, name), getattr(ms, name))
    assert ss.cost_offset == ms.cost_offset
    for _ in range(2):
        U = rng.uniform(-1.0, 1.0, (N, n))
        X = _rollout(ss.x0, U, ss.dt)
        z = join(ss, X, U)
        np.testing.assert_allclose(ss.A_eq @ z, ss.b_eq, rtol=0.0, atol=1e-12)
        X_ss, U_ss = ss.split(z)
        np.testing.assert_array_equal(X_ss, X)
        np.testing.assert_array_equal(U_ss, U)


def test_both_methods_plan_out_of_a_start_inside_d_th1(planar2r):
    # at rest, with the obstacle 1e-4 m, then 5e-4 m, inside d_th1 of the
    # second link: staying at rest violates every distance row, and the plan
    # must move the arm out by node 2.  At 5e-4 m the slack repair the
    # solver used to need called this feasible QP infeasible
    q0 = np.array([0.1, 0.1])
    fk = forward_kinematics(planar2r, q0)
    d_th1 = MpcConfig().d_th1
    probe = fk[-1].translation + np.array([0.0, 0.2, 0.0])
    d = closest_pair_per_link(planar2r, q0, (ball(probe, radius=0.08),)).min_distance
    T_ref = Pose(rotation=fk[-1].rotation.copy(),
                 translation=fk[-1].translation + np.array([0.05, -0.05, 0.0]))
    rest = np.zeros((10, 2))
    for depth in (1e-4, 5e-4):
        obs = (ball(probe - np.array([0.0, d - d_th1 + depth, 0.0]),
                    radius=0.08),)
        assert closest_pair_per_link(planar2r, q0, obs).min_distance < d_th1
        inp = PlannerInput(x0=np.concatenate([q0, np.zeros(2)]), T_ref=T_ref,
                           obstacles=obs)
        sols = {}
        for method in ("multiple", "single"):
            cfg = MpcConfig(horizon=10, method=method)
            prob = transcribe(inp, cfg, planar2r)
            z_rest = join(prob, _rollout(prob.x0, rest, prob.dt), rest)
            slack = prob.A_in @ z_rest - prob.b_in
            assert np.all(slack[-prob.n_distance_rows:] < 0.0)
            assert sp.issparse(prob.A_in)
            sols[method] = solve(prob, cfg)
            assert sols[method].status == "optimal"
            assert sols[method].converged
        np.testing.assert_allclose(sols["single"].cost,
                                   sols["multiple"].cost, rtol=1e-8)


def test_state_outside_the_envelope_is_clamped(planar2r, caplog):
    # joint 0 starts above its upper position limit, joint 1 inside its box
    # but moving down faster than it can stop before the lower limit: both
    # velocities are cut to the discrete stopping-distance cap
    # sqrt((dt a/2)^2 + 2 a gap) - dt a/2, which is 0 at the limit itself
    cfg = MpcConfig(horizon=5)
    lim = planar2r.limits
    lo, hi, a = lim.position_lower, lim.position_upper, lim.acceleration
    x0 = np.array([hi[0] + 0.1, lo[1] + 0.01, 0.5 * lim.velocity[0],
                   -0.9 * lim.velocity[1]])
    gap = x0[1] - lo[1]
    half = 0.5 * cfg.dt * a[1]
    cap = np.sqrt(half ** 2 + 2.0 * a[1] * gap) - half
    assert cap < 0.9 * lim.velocity[1]
    with caplog.at_level(logging.WARNING,
                         logger="safemanip.planner.transcription"):
        prob = transcribe(PlannerInput(x0=x0, T_ref=Pose.identity()), cfg,
                          planar2r)
    assert "outside the feasible envelope" in caplog.text
    np.testing.assert_array_equal(prob.x0[:2], [hi[0], x0[1]])
    np.testing.assert_allclose(prob.x0[2:], [0.0, -cap], rtol=1e-12, atol=0.0)


def test_zero_distance_pair_skips_its_row_with_a_warning(planar2r, caplog):
    # power-of-two sizes put the sphere's surface on link 0's capsule at
    # exactly zero distance (core 0.25 = 0.0625 + 0.1875), where the distance
    # gradient is undefined: that pair's hard row is skipped, with a warning,
    # and only link 1's row is transcribed
    bodies = tuple(dataclasses.replace(body, shape=Capsule(
        0.0625, body.shape.a, body.shape.b))
        for body in planar2r.collision_bodies)
    model = dataclasses.replace(planar2r, collision_bodies=bodies)
    obs = (ball([0.5, 0.25, 0.0], radius=0.1875),)
    sweep = closest_pair_per_link(model, np.zeros(2), obs)
    assert sweep.results[0].distance == 0.0
    N = 6
    with caplog.at_level(logging.WARNING, logger="safemanip.planner.costs"):
        prob = transcribe(PlannerInput(x0=np.zeros(4), T_ref=Pose.identity(),
                                       obstacles=obs),
                          MpcConfig(horizon=N), model)
    assert "body 0 / obstacle 0" in caplog.text
    assert "hard row skipped" in caplog.text
    assert [row.body_index for row in prob.context.distance_rows] == [1]
    assert prob.n_distance_rows == N - 1


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
    np.testing.assert_allclose(q, q_goal, rtol=0.0, atol=5e-3)


def test_methods_agree_without_obstacles(planar2r):
    x0 = np.array([0.2, -0.1, 0.0, 0.0])
    T_ref = Pose(translation=np.array([1.2, 0.9, 0.0]))
    sols = {}
    for method in ("multiple", "single"):
        cfg = MpcConfig(horizon=12, method=method)
        _, sols[method] = solve_once(planar2r, cfg, x0, T_ref)
    assert sols["multiple"].status == "optimal"
    assert sols["single"].status == "optimal"
    np.testing.assert_allclose(sols["multiple"].X, sols["single"].X,
                               rtol=0.0, atol=1e-7)
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


@pytest.mark.parametrize("method", ["multiple", "single"])
@pytest.mark.parametrize("N", [20, 50])
def test_cold_solve_of_the_probe_scene_finishes(panda7, N, method):
    # the probe scene with no warm start: panda7 at rest at the probe q0,
    # the 0.08 m sphere, the reference's first pose
    x0 = np.concatenate([[0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7], np.zeros(7)])
    T_ref = Pose.from_rpy([0.45, 0.0, 0.45], [np.pi, 0.0, 0.0])
    cfg = MpcConfig(horizon=N, method=method)
    _, sol = solve_once(panda7, cfg, x0, T_ref,
                        (ball([0.45, 0.15, 0.55], radius=0.08),))
    assert sol.status == "optimal"
    assert sol.iterations < cfg.max_iters


def test_distance_constraint_enforced(planar2r):
    x0, T_ref, obs = constrained_case(planar2r)
    sweep = closest_pair_per_link(planar2r, x0[:2], obs)
    cfg = MpcConfig(horizon=20, method="multiple")
    assert sweep.min_distance > cfg.d_th1  # scenario starts clear
    prob, sol = solve_once(planar2r, cfg, x0, T_ref, obs)
    assert sol.status == "optimal"
    assert prob.n_distance_rows > 0
    assert sol.min_predicted_distance >= cfg.d_th1 - 1e-6
    viol = np.maximum(prob.b_in - prob.A_in @ join(prob, sol.X, sol.U), 0.0)
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
    np.testing.assert_allclose(sols["multiple"].X, sols["single"].X,
                               rtol=0.0, atol=1e-6)


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


def test_a_plan_that_is_not_optimal_is_never_executed(planar2r):
    # one QP step cannot solve the constrained case, and a dual iterate
    # stopped at its budget violates rows: the planner holds when it has no
    # plan and otherwise runs the previous plan one node further on
    x0, T_ref, obs = constrained_case(planar2r)
    capped = MpcConfig(horizon=10, max_iters=1)
    session = Planner(planar2r, capped)
    step = session.plan_step(x0, T_ref, obs)
    assert step.used_fallback
    assert step.solution.status == "max_iters"
    np.testing.assert_array_equal(step.q_des, x0[:2])
    np.testing.assert_array_equal(step.qd_des, 0.0)
    session.cfg = MpcConfig(horizon=10)
    good = session.plan_step(x0, T_ref, obs)
    assert not good.used_fallback
    session.cfg = capped
    step = session.plan_step(x0, T_ref, obs)
    assert step.used_fallback
    assert step.solution.status == "max_iters"
    np.testing.assert_array_equal(step.q_des, good.solution.X[2, :2])
    np.testing.assert_array_equal(step.qd_des, good.solution.X[2, 2:])


# closed loop against a moving obstacle


def test_every_infeasible_verdict_is_lp_infeasible(tmp_path, recorded_solves):
    # panda7 at the probe q0 with perfbench's reference, no push; the 0.08 m
    # sphere crosses the reference at 0.2 m/s.  The planner holds the sphere
    # still over its horizon and freezes its rows at the measured q, so the
    # arm reacts late and some cycles have no plan that meets every row.
    # Each such verdict must be infeasible under an independent LP solver
    # (HiGHS), and no solve may stop at its budget.  The run may abort on
    # its fallback budget; clearance is not asserted here
    rpy = [np.pi, 0.0, 0.0]
    doc = {
        "name": "moving-sphere", "robot": "panda7", "duration": 2.0,
        "control_rate": 1000, "planner_rate": 20,
        "q0": [0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7],
        "obstacles": [{"name": "sphere",
                       "shape": {"type": "sphere", "radius": 0.08},
                       "track": [{"t": 0.0, "position": [0.45, 0.55, 0.50]},
                                 {"t": 5.0, "position": [0.45, -0.45, 0.50]}]}],
        "reference": [
            {"t": 0.0, "position": [0.45, 0.0, 0.45], "orientation_rpy": rpy},
            {"t": 0.5, "position": [0.45, 0.1, 0.45], "orientation_rpy": rpy}],
        "planner": {"N": 20},
    }
    try:
        sim.run(scenario_from_dict(doc), tmp_path)
    except sim.SolverAbort:
        pass
    statuses = [sol.status for _, sol in recorded_solves]
    assert "max_iters" not in statuses
    infeasible = [prob for prob, sol in recorded_solves
                  if sol.status == "infeasible"]
    assert infeasible  # the oracle below is not vacuous
    for prob in infeasible:
        lp = scipy.optimize.linprog(
            np.zeros(prob.n_vars), A_ub=-prob.A_in, b_ub=-prob.b_in,
            A_eq=prob.A_eq, b_eq=prob.b_eq, bounds=(None, None),
            method="highs")
        assert lp.status == 2, lp.message  # 2: infeasible
