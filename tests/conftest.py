import dataclasses

import numpy as np
import pytest

from safemanip.robots import load_robot


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
def panda7():
    return load_robot("panda7")
