"""Self-check suites over the bundled models.

Each suite runs a batch of randomized property checks against an independent
oracle (finite differences, algebraic identities, a dense least-squares
solver, byte comparison of repeated runs) and reports pass/fail counts.  The
``validate`` CLI subcommand prints the summary; ``tests/test_validate.py``
runs the same suites.

The checks call through the module objects (``dynamics.gravity_torque`` and
friends) so a deliberately injected fault is observed, which is how the
fault-injection test verifies the validator actually discriminates.
"""

import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dynamics, geometry, model as model_mod
from .planner import MpcConfig, shooting_defects, transcribe
from .planner.qp import solve_qp
from .planner.transcription import PlannerInput
from .robots import load_robot
from .se3 import Pose, pose_diff

_BUNDLED = ("planar2r", "planar3r", "panda7")


@dataclass
class SuiteResult:
    suite: str
    passed: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, message: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.messages.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _models(models):
    if models is not None:
        return list(models)
    return [load_robot(name) for name in _BUNDLED]


def _random_q(m, rng):
    lo = np.maximum(m.limits.position_lower, -2.5)
    hi = np.minimum(m.limits.position_upper, 2.5)
    return rng.uniform(lo, hi)


def check_jacobians(models=None, n_configs: int = 25, seed: int = 0,
                    tol: float = 1e-5) -> SuiteResult:
    """Body and point Jacobians against central differences."""
    res = SuiteResult("jacobian-fd")
    # the relative-pose log between the two probes avoids near-identity log
    # noise; 1e-4 balances truncation against that floor
    h = 1e-4
    h_pt = 1e-6
    for m in _models(models):
        rng = np.random.default_rng(seed)
        for _ in range(n_configs):
            q = _random_q(m, rng)
            frames = model_mod.forward_kinematics(m, q)
            J = model_mod.body_jacobian(m, frames)
            J_fd = np.empty_like(J)
            for j in range(m.n):
                e = np.zeros(m.n)
                e[j] = h
                Tp = model_mod.forward_kinematics(m, q + e)[-1]
                Tm = model_mod.forward_kinematics(m, q - e)[-1]
                J_fd[:, j] = pose_diff(Tm, Tp) / (2 * h)
            err = np.abs(J - J_fd).max()
            res.check(err <= tol,
                      f"{m.name}: body jacobian fd error {err:.2e}")
            link = int(rng.integers(0, m.n))
            p_local = rng.uniform(-0.2, 0.2, 3)
            Jp = model_mod.point_jacobian(m, frames, link, p_local)
            Jp_fd = np.empty_like(Jp)
            for j in range(m.n):
                e = np.zeros(m.n)
                e[j] = h_pt
                pp = model_mod.forward_kinematics(m, q + e)[link].apply(p_local)
                pm = model_mod.forward_kinematics(m, q - e)[link].apply(p_local)
                Jp_fd[:, j] = (pp - pm) / (2 * h_pt)
            err = np.abs(Jp - Jp_fd).max()
            res.check(err <= tol,
                      f"{m.name}: point jacobian fd error {err:.2e}")
    return res


def check_mass_matrix(models=None, n_configs: int = 100, seed: int = 0,
                      tol: float = 1e-9) -> SuiteResult:
    """Symmetry and positive definiteness of the joint-space inertia."""
    res = SuiteResult("mass-spd")
    for m in _models(models):
        rng = np.random.default_rng(seed)
        for _ in range(n_configs):
            q = _random_q(m, rng)
            M = dynamics.mass_matrix(m, model_mod.forward_kinematics(m, q))
            sym = np.abs(M - M.T).max()
            eig = float(np.linalg.eigvalsh(M).min())
            res.check(sym <= tol and eig > 0.0,
                      f"{m.name}: asymmetry {sym:.2e}, min eig {eig:.2e}")
    return res


def check_gravity(models=None, n_configs: int = 25, seed: int = 0,
                  tol: float = 1e-5) -> SuiteResult:
    """Gravity torque against the potential-energy gradient."""
    res = SuiteResult("gravity-oracle")
    h = 1e-6
    for m in _models(models):
        rng = np.random.default_rng(seed)
        for _ in range(n_configs):
            q = _random_q(m, rng)
            g = dynamics.gravity_torque(m, model_mod.forward_kinematics(m, q))
            g_fd = np.empty(m.n)
            for j in range(m.n):
                e = np.zeros(m.n)
                e[j] = h
                g_fd[j] = (dynamics.potential_energy(m, q + e)
                           - dynamics.potential_energy(m, q - e)) / (2 * h)
            err = np.abs(g - g_fd).max()
            res.check(err <= tol, f"{m.name}: gravity fd error {err:.2e}")
    return res


def check_mdot_power(models=None, n_configs: int = 25, seed: int = 0,
                     tol: float = 1e-10) -> SuiteResult:
    """Analytic ``Mdot qd`` against the power identity
    ``qd' Mdot qd = 2 qd' C qd``, with ``C qd = bias - g`` from RNEA."""
    res = SuiteResult("mdot-power")
    for m in _models(models):
        rng = np.random.default_rng(seed)
        for _ in range(n_configs):
            q = _random_q(m, rng)
            qd = rng.uniform(-2.0, 2.0, m.n)
            frames = model_mod.forward_kinematics(m, q)
            power = float(qd @ dynamics.mdot_qd(m, frames, qd))
            c_qd = (dynamics.bias_forces(m, frames, qd)
                    - dynamics.gravity_torque(m, frames))
            want = 2.0 * float(qd @ c_qd)
            err = abs(power - want) / max(abs(want), 1.0)
            res.check(err <= tol,
                      f"{m.name}: power identity error {err:.2e}")
    return res


def check_null_projector(models=None, n_configs: int = 25, seed: int = 0,
                         tol: float = 1e-8) -> SuiteResult:
    """Idempotence and task annihilation of the dynamically consistent
    null-space projector (full-rank task required, so 7-DoF only)."""
    res = SuiteResult("null-projector")
    for m in _models(models):
        if m.n < 6:
            continue
        rng = np.random.default_rng(seed)
        for _ in range(n_configs):
            q = _random_q(m, rng)
            qd = rng.uniform(-0.5, 0.5, m.n)
            kin = dynamics.KinState.of(m, q, qd)
            J = model_mod.body_jacobian(m, kin.frames)
            td, damped = dynamics.task_dynamics_from_jacobian(
                kin, J, dynamics.jacobian_dot_qd(m, kin.frames, qd))
            if damped:
                # identities only hold at full task rank; skip singular draws
                continue
            N_t = np.eye(m.n) - J.T @ td.Jbar.T
            idem = np.abs(N_t @ N_t - N_t).max()
            annil = np.abs(td.Jbar.T @ N_t).max()
            dyn = np.abs(J @ np.linalg.solve(kin.M, N_t)).max()
            res.check(idem <= tol and annil <= tol and dyn <= tol,
                      f"{m.name}: idempotence {idem:.2e}, "
                      f"annihilation {annil:.2e}, accel leak {dyn:.2e}")
    return res


def check_defect_closure(models=None, n_cases: int = 10, seed: int = 0,
                         tol: float = 1e-8) -> SuiteResult:
    """Rolled-out input sequences close the multiple-shooting defects."""
    res = SuiteResult("defect-closure")
    cfg_dt = 0.05
    for m in _models(models):
        rng = np.random.default_rng(seed)
        for _ in range(n_cases):
            N = int(rng.integers(3, 9))
            q = _random_q(m, rng)
            qd = rng.uniform(-0.3, 0.3, m.n)
            U = rng.uniform(-1.0, 1.0, (N, m.n))
            X = np.empty((N + 1, 2 * m.n))
            X[0] = np.concatenate([q, qd])
            for k in range(N):
                X[k + 1, :m.n] = X[k, :m.n] + cfg_dt * X[k, m.n:]
                X[k + 1, m.n:] = X[k, m.n:] + cfg_dt * U[k]
            defects = shooting_defects(X, U, cfg_dt)
            worst = max(float(np.abs(d).max()) for d in defects)
            res.check(worst <= tol, f"{m.name}: defect {worst:.2e}")
    return res


def check_qp_oracle(n_cases: int = 20, seed: int = 0,
                    tol: float = 1e-6) -> SuiteResult:
    """Equality-constrained QPs against a dense least-squares solution."""
    res = SuiteResult("qp-oracle")
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(4, 12))
        m_eq = int(rng.integers(1, n - 1))
        A = rng.normal(size=(n, n))
        H = A @ A.T + n * np.eye(n)
        g = rng.normal(size=n)
        A_eq = rng.normal(size=(m_eq, n))
        b_eq = rng.normal(size=m_eq)
        z0 = np.linalg.lstsq(A_eq, b_eq, rcond=None)[0]
        got = solve_qp(H, g, A_eq, b_eq, None, np.zeros(0), z0).z
        # KKT system solved densely is the oracle
        K = np.block([[H, A_eq.T], [A_eq, np.zeros((m_eq, m_eq))]])
        rhs = np.concatenate([-g, b_eq])
        want = np.linalg.solve(K, rhs)[:n]
        err = np.abs(got - want).max()
        res.check(err <= tol, f"qp vs dense KKT error {err:.2e}")
    return res


def check_distance_gradients(models=None, n_cases: int = 25, seed: int = 0,
                             tol: float = 1e-5) -> SuiteResult:
    """Obstacle distance gradients against central differences."""
    res = SuiteResult("distance-gradient")
    h = 1e-6
    for m in _models(models):
        if not m.collision_bodies:
            continue
        rng = np.random.default_rng(seed)
        done = 0
        attempts = 0
        while done < n_cases and attempts < 20 * n_cases:
            attempts += 1
            q = _random_q(m, rng)
            obs = geometry.Obstacle(
                shape=geometry.Sphere(radius=0.08),
                pose=Pose.from_rpy(rng.uniform(-1.0, 1.0, 3)))
            sweep = geometry.closest_pair_per_link(m, q, [obs])
            best = sweep.min_result
            if best is None or best.distance < 0.05:
                continue
            grad = geometry.distance_gradient(
                m, model_mod.forward_kinematics(m, q), best)
            grad_fd = np.empty(m.n)
            bi = best.body_index
            for j in range(m.n):
                e = np.zeros(m.n)
                e[j] = h
                dp = geometry.closest_pair_per_link(m, q + e, [obs]).results[bi]
                dm = geometry.closest_pair_per_link(m, q - e, [obs]).results[bi]
                grad_fd[j] = (dp.distance - dm.distance) / (2 * h)
            err = np.abs(grad - grad_fd).max()
            res.check(err <= tol, f"{m.name}: distance grad error {err:.2e}")
            done += 1
    return res


def check_determinism(seed: int = 0) -> SuiteResult:
    """A short closed-loop run repeated twice must write identical logs."""
    from .scenario import scenario_from_dict
    from .sim import run

    res = SuiteResult("determinism")
    doc = {
        "robot": "planar2r",
        "duration": 0.2,
        "control_rate": 1000,
        "planner_rate": 20,
        "seed": seed,
        "q0": [0.4, 1.2],
        "planner": {"horizon": 8, "dt": 0.05,
                    "task_selection": [0, 0, 1, 1, 1, 0]},
        "reference": [
            {"t": 0.0, "position": [0.8, 1.2, 0.0]},
            {"t": 0.2, "position": [0.7, 1.3, 0.0]},
        ],
    }
    sc = scenario_from_dict(doc, label="determinism-check")
    with tempfile.TemporaryDirectory() as tmp:
        run(sc, out_dir=f"{tmp}/a")
        run(sc, out_dir=f"{tmp}/b")
        for name in ("log.csv", "solves.csv"):
            wa = open(f"{tmp}/a/{name}", "rb").read()
            wb = open(f"{tmp}/b/{name}", "rb").read()
            res.check(wa == wb, f"{name} differs between identical runs")
    return res


def run_suites(models=None, seed: int = 0, n_configs: Optional[int] = None):
    """All suites with CLI-sized case counts; returns a list of results."""
    kw = {} if n_configs is None else {"n_configs": n_configs}
    return [
        check_jacobians(models, seed=seed, **kw),
        check_mass_matrix(models, seed=seed, **kw),
        check_gravity(models, seed=seed, **kw),
        check_mdot_power(models, seed=seed, **kw),
        check_null_projector(models, seed=seed, **kw),
        check_defect_closure(models, seed=seed),
        check_qp_oracle(seed=seed),
        check_distance_gradients(models, seed=seed),
        check_determinism(seed=seed),
    ]


def summarize(results) -> str:
    lines = []
    for r in results:
        mark = "ok" if r.ok else "FAIL"
        lines.append(f"{r.suite}: {r.passed} passed, {r.failed} failed "
                     f"[{mark}]")
        for msg in r.messages[:5]:
            lines.append(f"  {msg}")
        if len(r.messages) > 5:
            lines.append(f"  ... {len(r.messages) - 5} more")
    total_pass = sum(r.passed for r in results)
    total_fail = sum(r.failed for r in results)
    lines.append(f"total: {total_pass} passed, {total_fail} failed")
    return "\n".join(lines)
