import dataclasses

import numpy as np
import pytest

from safemanip.robots import load_robot


def is_rigid_transform(T, tol):
    """Whether a Pose's rotation is orthonormal with determinant +1."""
    R = T.rotation
    return (np.abs(R.T @ R - np.eye(3)).max() < tol
            and abs(np.linalg.det(R) - 1.0) < tol)


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
