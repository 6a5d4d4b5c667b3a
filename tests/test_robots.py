import re

import numpy as np
import pytest

from safemanip.geometry import Capsule, Sphere
from safemanip.model import forward_kinematics
from safemanip.robots import InputFileError, load_robot, robot_from_dict


def minimal_doc():
    return {
        "joints": [{"axis": [0, 0, 1], "origin": {"xyz": [0, 0, 0]},
                    "limits": {"position": [-3.0, 3.0], "velocity": 2.0,
                               "acceleration": 10.0}}],
        "links": [{"mass": 1.0, "com": [0.5, 0, 0], "inertia": [0.01, 0.01, 0.01]}],
        "ee": {"origin": {"xyz": [1.0, 0, 0]}},
        "gravity": [0, 0, -9.81],
    }


def test_load_bundled_names():
    for name, n in (("planar2r", 2), ("planar3r", 3), ("panda7", 7)):
        model = load_robot(name)
        assert model.n == n
        assert model.collision_bodies
        frames = forward_kinematics(model, np.zeros(n))
        assert len(frames) == n + 1


def test_panda7_has_one_body_per_link():
    model = load_robot("panda7")
    assert sorted(b.link for b in model.collision_bodies) == list(range(7))
    for b in model.collision_bodies:
        assert isinstance(b.shape, (Sphere, Capsule))


def test_unknown_robot_name():
    with pytest.raises(InputFileError, match="robot file not found: "
                                             "not_a_robot"):
        load_robot("not_a_robot")


def test_robot_from_dict_minimal():
    model = robot_from_dict(minimal_doc(), name="mini")
    assert model.n == 1
    np.testing.assert_allclose(model.gravity, [0, 0, -9.81])
    T = forward_kinematics(model, np.zeros(1))[-1]
    np.testing.assert_allclose(T.translation, [1.0, 0, 0])


def test_robot_from_dict_missing_field_names_path():
    doc = minimal_doc()
    del doc["joints"][0]["axis"]
    with pytest.raises(InputFileError, match=r"joints\[0\]\.axis"):
        robot_from_dict(doc)


def test_robot_from_dict_bad_mass():
    doc = minimal_doc()
    doc["links"][0]["mass"] = -1.0
    with pytest.raises(InputFileError, match=r"links\[0\]\.mass"):
        robot_from_dict(doc)


@pytest.mark.parametrize("where, key", [
    ("", "joint"),
    ("joints[0]", "orgin"),
    ("joints[0].limits", "effort"),
    ("joints[0].origin", "rotation"),
    ("links[0]", "inertial"),
    ("ee", "frame"),
    ("collision[0]", "center"),
])
def test_robot_file_key_outside_the_format_is_rejected(where, key):
    doc = minimal_doc()
    doc["collision"] = [{"link": 0, "type": "capsule", "radius": 0.05,
                         "a": [0, 0, 0], "b": [1, 0, 0]}]
    node = doc
    for part in where.replace("[0]", ".0").split(".") if where else ():
        node = node[int(part)] if part.isdigit() else node[part]
    node[key] = [0.0, 0.0, 0.0]
    message = f"unknown keys ['{key}']"
    with pytest.raises(InputFileError, match=re.escape(
            f"{where}: {message}" if where else message)):
        robot_from_dict(doc)


def test_box_collision_becomes_capsules():
    doc = minimal_doc()
    doc["collision"] = [{"link": 0, "type": "box", "size": [0.4, 0.2, 0.2],
                         "origin": {"xyz": [0.5, 0, 0]}, "name": "crate"}]
    model = robot_from_dict(doc)
    assert len(model.collision_bodies) >= 1
    for b in model.collision_bodies:
        assert isinstance(b.shape, Capsule)
        assert b.name.startswith("crate")


def test_planar_2r_limits_and_gravity_default():
    model = load_robot("planar2r")
    np.testing.assert_allclose(model.gravity, [0.0, -9.81, 0.0])
    np.testing.assert_allclose(model.limits.velocity, [4.0, 4.0])
    np.testing.assert_allclose(model.limits.acceleration, [25.0, 25.0])
    doc = minimal_doc()
    del doc["gravity"]
    np.testing.assert_allclose(robot_from_dict(doc).gravity, [0.0, 0.0, -9.81])
