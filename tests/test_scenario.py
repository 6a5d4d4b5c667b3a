"""Scenario loading beyond the error contract of ``tests/test_cli.py``."""

import numpy as np

from safemanip.scenario import scenario_from_dict


def test_scalar_gain_covers_every_joint():
    # the schema's scalar form: kp1 sets all n diagonal entries and the
    # other gains keep their defaults
    doc = {"robot": "planar2r", "duration": 0.1,
           "controller": {"gains": {"kp1": 150, "kd3": 80.0}}}
    gains = scenario_from_dict(doc).gains
    np.testing.assert_array_equal(gains.kp1, [150.0, 150.0])
    np.testing.assert_array_equal(gains.kd1, [10.0, 10.0])
    np.testing.assert_array_equal(gains.kd3, np.full(6, 80.0))
