import dataclasses

import numpy as np
import pytest

from safemanip.dynamics import inverse_dynamics
from safemanip.robots import load_robot


def is_rigid_transform(T, tol):
    """Whether a Pose's rotation is orthonormal with determinant +1."""
    R = T.rotation
    return (np.abs(R.T @ R - np.eye(3)).max() < tol
            and abs(np.linalg.det(R) - 1.0) < tol)


def gravity_torque(model, frames):
    """Joint torques that hold the arm still against gravity: RNEA at
    qd = qdd = 0."""
    z = np.zeros(model.n)
    return inverse_dynamics(model, frames, z, z)


def min_result(sweep):
    """The closest of a sweep's per-body results (None without any)."""
    return None if sweep.min_index is None else sweep.results[sweep.min_index]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def planar2r():
    return dataclasses.replace(load_robot("planar2r"), gravity=np.zeros(3))


@pytest.fixture(scope="session")
def planar2r_gravity():
    return load_robot("planar2r")


@pytest.fixture(scope="session")
def planar3r():
    return dataclasses.replace(load_robot("planar3r"), gravity=np.zeros(3))


@pytest.fixture(scope="session")
def planar3r_gravity():
    return load_robot("planar3r")


@pytest.fixture(scope="session")
def panda7():
    return load_robot("panda7")


@pytest.fixture
def recorded_solves(monkeypatch):
    """Every (problem, solution) pair that ``planner.solve`` returns while
    the test runs, in call order; ``Planner.plan_step`` and ``sim.run``
    reach it through the module attribute, which this wraps."""
    import safemanip.planner.planner as planner_mod
    pairs = []
    real_solve = planner_mod.solve

    def recording(problem, cfg):
        sol = real_solve(problem, cfg)
        pairs.append((problem, sol))
        return sol

    monkeypatch.setattr(planner_mod, "solve", recording)
    return pairs
