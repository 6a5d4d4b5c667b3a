"""Robot description files, and the field checks every input file shares.

Robot and scenario files are YAML mappings read through the helpers here
(:func:`read_input`, :func:`mapping`, :func:`number`, :func:`vector`,
:func:`primitive`, ...).  So every number must be finite, a key the format
does not define is rejected, and every error is an :class:`InputFileError`
whose message names the file and the field path (``joints[0].limits``).
The robot format::

    name: planar2r                 # optional, default: the file stem
    gravity: [0, -9.81, 0]         # optional, default [0, 0, -9.81]
    joints:                        # revolute, base first
      - axis: [0, 0, 1]            # unit vector
        origin: {xyz: [...], rpy: [...]}    # optional
        limits: {position: [-3, 3], velocity: 2.5, acceleration: 15}
    links:                         # one per joint
      - {mass: 1.0, com: [...], inertia: [ixx, iyy, izz]}  # or a 3x3 list
    ee: {origin: {xyz: [...], rpy: [...]}}  # optional
    collision:                     # optional
      - {link: 0, type: capsule, radius: 0.05, a: [...], b: [...], name: arm}

Limits are optional (defaults shown; a scalar position p means [-|p|, |p|])
and so is the inertia (zero).  Collision entries take the shapes of
:func:`primitive`, placed in the link frame by a sphere's ``center`` or a
box's ``origin``.  The bundled ``planar2r``, ``planar3r`` and ``panda7``
(``data/robots/``) are complete examples, loadable by bare name.
"""

from importlib.resources import files
from pathlib import Path

import numpy as np
import yaml

from .geometry import Capsule, Sphere, box_capsules
from .model import CollisionBody, Joint, JointLimits, LinkInertia, RobotModel
from .se3 import Pose


class InputFileError(ValueError):
    """A malformed robot file, scenario file or override; the message names
    the file and the field."""


def fail(where, msg):
    raise InputFileError(f"{where}: {msg}" if where else msg)


def key_path(where, key):
    return f"{where}.{key}" if where else key


def mapping(doc, where, keys=None, required=()):
    """``doc`` as a mapping with every ``required`` key and, unless ``keys``
    is None, no key outside ``keys``."""
    if not isinstance(doc, dict):
        fail(where or "document root", "must be a mapping")
    unknown = set(doc) - set(keys) if keys is not None else ()
    if unknown:
        fail(where, f"unknown keys {sorted(unknown, key=str)}")
    for key in required:
        if key not in doc:
            fail(key_path(where, key), "missing required field")
    return doc


def sequence(value, where) -> list:
    """A list of entries; None reads as an empty list."""
    if value is None:
        return []
    if not isinstance(value, list):
        fail(where, f"expected a list, got {value!r}")
    return value


def number(value, where, positive=False, nonnegative=False) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value)):
        fail(where, f"expected a finite number, got {value!r}")
    value = float(value)
    if positive and value <= 0.0:
        fail(where, f"must be positive, got {value}")
    if nonnegative and value < 0.0:
        fail(where, f"must be >= 0, got {value}")
    return value


def integer(value, where, low=None, below=None) -> int:
    """An integer with ``low <= value < below`` (either bound optional)."""
    if isinstance(value, bool) or not isinstance(value, int):
        fail(where, f"expected an integer, got {value!r}")
    if low is not None and value < low:
        fail(where, f"must be >= {low}, got {value}")
    if below is not None and value >= below:
        fail(where, f"must be < {below}, got {value}")
    return value


def vector(value, size, where) -> np.ndarray:
    """``size`` (any number when None) finite numbers as a float array;
    strings and booleans are not numbers, as in :func:`number`."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    arr = arr.astype(float).reshape(-1) if arr.dtype.kind in "iuf" else None
    if (arr is None or arr.shape != (size or arr.size,)
            or not np.all(np.isfinite(arr))):
        fail(where, f"expected {size or 'only'} finite numbers, got {value!r}")
    return arr


def pose(doc, where, xyz="xyz", rpy="rpy") -> Pose:
    """The pose at translation ``doc[xyz]`` (default zero) with extrinsic
    roll-pitch-yaw angles ``doc[rpy]`` (default zero)."""
    return Pose.from_rpy(
        vector(doc.get(xyz, (0.0, 0.0, 0.0)), 3, key_path(where, xyz)),
        vector(doc.get(rpy, (0.0, 0.0, 0.0)), 3, key_path(where, rpy)))


def origin(doc, where) -> Pose:
    """The optional ``origin: {xyz, rpy}`` of ``doc``; identity when absent."""
    if "origin" not in doc:
        return Pose.identity()
    where = key_path(where, "origin")
    return pose(mapping(doc["origin"], where, ("xyz", "rpy")), where)


def build(make, where, *args, **kwargs):
    """``make(*args, **kwargs)``, its TypeError or ValueError at ``where``."""
    try:
        return make(*args, **kwargs)
    except InputFileError:
        raise  # already names its field
    except (TypeError, ValueError) as exc:
        fail(where, exc)


# per type: required keys, optional keys, and the key that places the
# primitive in its link frame (robot collision entries only)
_PRIMITIVES = {"sphere": (("radius",), (), "center"),
               "capsule": (("radius", "a", "b"), (), None),
               "box": (("size",), ("margin",), "origin")}


def primitive(doc, where, extra=(), placed=False):
    """(shapes, local pose) of a ``{type: ...}`` mapping: a ``sphere``
    (radius), a ``capsule`` (radius and end points a, b) or a ``box`` (side
    lengths ``size``, optional ``margin``), which expands into its covering
    capsules.  ``placed`` lets a sphere give its ``center`` and a box its
    ``origin``; ``extra`` names the caller's own keys."""
    kind = mapping(doc, where, required=("type",))["type"]
    if not isinstance(kind, str) or kind not in _PRIMITIVES:
        fail(key_path(where, "type"),
             f"unknown shape type {kind!r} (sphere, capsule, box)")
    required, optional, place = _PRIMITIVES[kind]
    mapping(doc, where, {"type", *required, *optional, *extra,
                         *([place] if placed and place else [])}, required)
    if kind == "box":
        return build(box_capsules, where,
                     vector(doc["size"], 3, key_path(where, "size")),
                     margin=number(doc.get("margin", 0.0),
                                   key_path(where, "margin"),
                                   nonnegative=True)), origin(doc, where)
    radius = number(doc["radius"], key_path(where, "radius"), positive=True)
    if kind == "capsule":
        return [build(Capsule, where, radius, *(
            vector(doc[k], 3, key_path(where, k)) for k in "ab"))], Pose()
    return [Sphere(radius)], Pose(np.eye(3), vector(
        doc.get("center", (0.0, 0.0, 0.0)), 3, key_path(where, "center")))


def read_input(spec, what, parse, base_dir=None, bundled=None):
    """Locate file ``spec`` (as given, then in ``base_dir``, then as the
    bundled ``data/<bundled>/<spec>.yaml``), read its YAML mapping and return
    ``parse(doc, file stem)``; every error message starts with the file."""
    candidates = [Path(spec), base_dir and Path(base_dir) / spec,
                  bundled and Path(str(files("safemanip").joinpath(
                      "data", bundled, f"{spec}.yaml")))]
    path = next((p for p in candidates if p and p.is_file()), None)
    if path is None:
        raise InputFileError(f"{what} not found: {spec}")
    try:
        return parse(mapping(yaml.safe_load(path.read_text()), ""), path.stem)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"{path}: cannot read ({exc})") from None
    except yaml.YAMLError as exc:
        raise InputFileError(f"{path}: invalid YAML ({exc})") from None
    except InputFileError as exc:
        raise InputFileError(f"{path}: {exc}") from None


def _inertia(value, where) -> np.ndarray:
    """A diagonal 3-list or a 3x3 matrix (a list of three rows)."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return vector(value, 9, where).reshape(3, 3)
    return np.diag(vector(value, 3, where))


def _limits(doc, where):
    """(lower, upper, velocity, acceleration) of one joint."""
    mapping(doc, where, ("position", "velocity", "acceleration"))
    p = doc.get("position", [-3.0, 3.0])
    if isinstance(p, list):
        lo, hi = vector(p, 2, key_path(where, "position"))
    else:
        hi = abs(number(p, key_path(where, "position")))
        lo = -hi
    return (lo, hi,
            number(doc.get("velocity", 2.5), key_path(where, "velocity")),
            number(doc.get("acceleration", 15.0),
                   key_path(where, "acceleration")))


def _collision(entries, n_joints) -> list:
    bodies = []
    for i, entry in enumerate(sequence(entries, "collision")):
        where = f"collision[{i}]"
        shapes, local = primitive(entry, where, extra=("link", "name"),
                                  placed=True)
        mapping(entry, where, required=("link",))
        link = integer(entry["link"], key_path(where, "link"), low=0,
                       below=n_joints)
        name = entry.get("name", f"body{i}")
        names = ([f"{name}.{j}" for j in range(len(shapes))]
                 if entry["type"] == "box" else [name])
        bodies.extend(CollisionBody(link=link, shape=s, local=local, name=nm)
                      for s, nm in zip(shapes, names))
    return bodies


def robot_from_dict(doc: dict, name: str = "robot") -> RobotModel:
    """Build a robot from the mapping of a robot file (module docstring)."""
    mapping(doc, "", ("name", "gravity", "joints", "links", "ee", "collision"),
            required=("joints", "links"))
    joints_doc = sequence(doc["joints"], "joints")
    links_doc = sequence(doc["links"], "links")
    if not joints_doc:
        fail("joints", "expected at least one joint")
    if len(joints_doc) != len(links_doc):
        fail("links", f"{len(joints_doc)} joints but {len(links_doc)} links")
    joints, links, limits = [], [], []
    for i, jd in enumerate(joints_doc):
        where = f"joints[{i}]"
        mapping(jd, where, ("axis", "origin", "limits"), required=("axis",))
        joints.append(build(
            Joint, where, axis=vector(jd["axis"], 3, key_path(where, "axis")),
            origin=origin(jd, where)))
        limits.append(_limits(jd.get("limits", {}), key_path(where, "limits")))
    for i, ld in enumerate(links_doc):
        where = f"links[{i}]"
        mapping(ld, where, ("mass", "com", "inertia"),
                required=("mass", "com"))
        links.append(build(
            LinkInertia, where,
            mass=number(ld["mass"], key_path(where, "mass"), positive=True),
            com=vector(ld["com"], 3, key_path(where, "com")),
            inertia=_inertia(ld.get("inertia", [0.0, 0.0, 0.0]),
                             key_path(where, "inertia"))))
    lo, hi, vel, acc = (np.array(col) for col in zip(*limits))
    return RobotModel(
        joints=tuple(joints), links=tuple(links),
        ee_frame=origin(mapping(doc.get("ee", {}), "ee", ("origin",)), "ee"),
        collision_bodies=tuple(_collision(doc.get("collision"), len(joints))),
        gravity=vector(doc.get("gravity", [0.0, 0.0, -9.81]), 3, "gravity"),
        limits=JointLimits(lo, hi, vel, acc), name=doc.get("name", name))


def load_robot(spec) -> RobotModel:
    """Load a robot by file path or bundled name (planar2r, planar3r, panda7)."""
    return read_input(spec, "robot file", robot_from_dict, bundled="robots")
