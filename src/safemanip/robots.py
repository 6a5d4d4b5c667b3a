"""Robot description files.

The on-disk format is a YAML document with one entry per joint and link;
:func:`robot_from_dict` is the field reference (required fields, defaults and
the accepted collision primitives).  The bundled models in ``data/robots/``
(``planar2r``, ``planar3r``, ``panda7``) are complete examples and are
addressable by bare name.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

import numpy as np
import yaml

from .geometry import Capsule, Sphere, box_capsules
from .model import CollisionBody, Joint, JointLimits, LinkInertia, RobotModel
from .se3 import Pose


class RobotFileError(ValueError):
    """Malformed robot description; the message names the offending field."""


def data_path(*parts) -> Path:
    return Path(str(files("safemanip").joinpath("data", *parts)))


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise RobotFileError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _parse_pose(entry, where) -> Pose:
    if entry is None:
        return Pose.identity()
    xyz = entry.get("xyz", [0.0, 0.0, 0.0])
    rpy = entry.get("rpy", [0.0, 0.0, 0.0])
    try:
        return Pose.from_rpy(xyz, rpy)
    except Exception as exc:
        raise RobotFileError(f"{where}: bad pose ({exc})") from exc


def _parse_inertia(entry, where) -> np.ndarray:
    arr = np.asarray(entry, dtype=float)
    if arr.shape == (3,):
        return np.diag(arr)
    if arr.shape == (3, 3):
        return arr
    raise RobotFileError(f"{where}: inertia must be a diagonal 3-list or 3x3 matrix")


def _parse_collision(entries, n_joints) -> list:
    bodies = []
    for i, entry in enumerate(entries or []):
        where = f"collision[{i}]"
        link = int(_require(entry, "link", where))
        if not 0 <= link < n_joints:
            raise RobotFileError(f"{where}: link {link} out of range 0..{n_joints - 1}")
        kind = _require(entry, "type", where)
        name = entry.get("name", f"body{i}")
        if kind == "sphere":
            shape = Sphere(radius=float(_require(entry, "radius", where)))
            local = Pose(np.eye(3), np.asarray(entry.get("center", [0, 0, 0]), dtype=float))
            bodies.append(CollisionBody(link=link, shape=shape, local=local, name=name))
        elif kind == "capsule":
            shape = Capsule(radius=float(_require(entry, "radius", where)),
                            a=_require(entry, "a", where), b=_require(entry, "b", where))
            bodies.append(CollisionBody(link=link, shape=shape, name=name))
        elif kind == "box":
            local = _parse_pose(entry.get("origin"), where)
            for j, capsule in enumerate(box_capsules(_require(entry, "size", where))):
                bodies.append(CollisionBody(link=link, shape=capsule, local=local,
                                            name=f"{name}.{j}"))
        else:
            raise RobotFileError(f"{where}: unknown primitive type '{kind}'")
    return bodies


def robot_from_dict(doc: dict, name: str = "robot") -> RobotModel:
    joints_doc = _require(doc, "joints", "robot")
    links_doc = _require(doc, "links", "robot")
    if len(joints_doc) != len(links_doc):
        raise RobotFileError(
            f"robot: {len(joints_doc)} joints but {len(links_doc)} links")
    joints, links = [], []
    pos_lo, pos_hi, vel, acc = [], [], [], []
    for i, jd in enumerate(joints_doc):
        where = f"joints[{i}]"
        try:
            joints.append(Joint(axis=_require(jd, "axis", where),
                                origin=_parse_pose(jd.get("origin"), where)))
        except ValueError as exc:
            raise RobotFileError(f"{where}: {exc}") from exc
        lim = jd.get("limits", {})
        p = lim.get("position", [-3.0, 3.0])
        if np.isscalar(p):
            p = [-abs(p), abs(p)]
        pos_lo.append(float(p[0]))
        pos_hi.append(float(p[1]))
        vel.append(float(lim.get("velocity", 2.5)))
        acc.append(float(lim.get("acceleration", 15.0)))
    for i, ld in enumerate(links_doc):
        where = f"links[{i}]"
        try:
            links.append(LinkInertia(mass=float(_require(ld, "mass", where)),
                                     com=_require(ld, "com", where),
                                     inertia=_parse_inertia(ld.get("inertia", [0, 0, 0]), where)))
        except RobotFileError:
            raise
        except ValueError as exc:
            raise RobotFileError(f"{where}: {exc}") from exc
    limits = JointLimits(np.array(pos_lo), np.array(pos_hi),
                         np.array(vel), np.array(acc))
    ee = _parse_pose(doc.get("ee", {}).get("origin") if "ee" in doc else None, "ee")
    return RobotModel(joints=tuple(joints), links=tuple(links), ee_frame=ee,
                      collision_bodies=tuple(_parse_collision(doc.get("collision"),
                                                              len(joints))),
                      gravity=doc.get("gravity", [0.0, 0.0, -9.81]),
                      limits=limits, name=doc.get("name", name))


def load_robot(spec) -> RobotModel:
    """Load a robot by file path or bundled name (planar2r, planar3r, panda7)."""
    path = Path(spec)
    if not path.exists():
        bundled = data_path("robots", f"{spec}.yaml")
        if bundled.exists():
            path = bundled
        else:
            raise RobotFileError(f"robot description not found: {spec}")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise RobotFileError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(doc, dict):
        raise RobotFileError(f"{path}: document root must be a mapping")
    return robot_from_dict(doc, name=path.stem)
