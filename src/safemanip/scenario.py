"""Scenario files: everything a closed-loop run needs, as data.

A scenario is a YAML document naming the robot, the obstacle set (optionally
moving along piecewise-linear pose tracks), the time-stamped end-effector
reference, scripted contact events, and the planner/controller configuration.
Schema::

    name: cabinet            # optional label
    robot: panda7            # bundled name or a path to a robot file
    duration: 6.0            # s, > 0
    control_rate: 1000       # Hz, integer
    planner_rate: 20         # Hz, must divide control_rate
    obstacle_rate: 30        # Hz, optional (default 30)
    plan_latency: 0.0        # s, optional: plans become visible this late
    fallback_budget: 5       # consecutive failed solves before abort
    seed: 0                  # only used when noise is enabled
    gravity: [0, 0, -9.81]   # optional override of the robot file value
    q0: [...]                # start configuration (default zeros)
    qd0: [...]               # start velocity (default zeros)
    noise:                   # optional, default off
      q_std: 0.0
      qd_std: 0.0
    obstacles:
      - name: sphere
        shape: {type: sphere, radius: 0.1}
        position: [0.4, 0.0, 0.6]
        orientation_rpy: [0, 0, 0]      # optional
        track:                          # optional; overrides position
          - {t: 0.0, position: [...], orientation_rpy: [...]}
          - {t: 2.0, position: [...]}
    reference:
      - {t: 0.0, position: [...], orientation_rpy: [...]}
      - {t: 3.0, position: [...]}
    contact_events:
      - {start: 1.0, end: 3.0, link: 3, force: [0, -35, 0], point: [0, 0, 0.2]}
    planner: {...}           # MpcConfig fields, N accepted for horizon
    controller:
      gains: {kp1: 200, kd1: 10, kp2: 10, kd2: 2, kp3: 500, kd3: 100}
      usde_k: 0.2
      reaction: {tau_th: 3.0, k_f: 1.0, ...}

Shapes: ``sphere`` (radius), ``capsule`` (radius, a, b in the obstacle frame),
``box`` (size, optional margin) which expands into its covering capsule set.
An empty reference means hold the initial end-effector pose.  Times must be
nondecreasing; errors name the offending field.
"""

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np
import yaml

from .controller import GainSet, ReactionParams
from .geometry import Capsule, Obstacle, Sphere, box_capsules
from .model import RobotModel
from .planner import MpcConfig
from .robots import data_path, load_robot
from .se3 import Pose, interpolate_pose


class ScenarioError(ValueError):
    """Scenario file rejected; the message names the file and field."""


_TOP_KEYS = {
    "name", "robot", "duration", "control_rate", "planner_rate",
    "obstacle_rate", "plan_latency", "fallback_budget", "seed", "gravity",
    "q0", "qd0", "noise", "obstacles", "reference", "contact_events",
    "planner", "controller",
}


def _fail(path, msg):
    raise ScenarioError(f"{path}: {msg}")


def _get(doc, key, path, required=False, default=None):
    if key in doc:
        return doc[key]
    if required:
        _fail(f"{path}.{key}" if path else key, "missing required field")
    return default


def _number(value, path, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if positive and value <= 0.0:
        _fail(path, f"must be positive, got {value}")
    if nonnegative and value < 0.0:
        _fail(path, f"must be >= 0, got {value}")
    return value


def _integer(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if positive and value <= 0:
        _fail(path, f"must be positive, got {value}")
    return value


def _vector(value, size, path):
    try:
        arr = np.asarray(value, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        _fail(path, f"expected {size} numbers, got {value!r}")
    if arr.shape != (size,):
        _fail(path, f"expected {size} numbers, got {len(arr)}")
    return arr


def _pose(doc, path, default_position=None):
    if not isinstance(doc, dict):
        _fail(path, "expected a mapping with position/orientation_rpy")
    pos = doc.get("position", default_position)
    if pos is None:
        _fail(f"{path}.position", "missing required field")
    xyz = _vector(pos, 3, f"{path}.position")
    rpy = _vector(doc.get("orientation_rpy", (0.0, 0.0, 0.0)), 3,
                  f"{path}.orientation_rpy")
    return Pose.from_rpy(xyz, rpy)


def _stamped_poses(entries, path, extra_keys=()):
    """Validate a list of {t, position, orientation_rpy} waypoints."""
    if not isinstance(entries, list):
        _fail(path, "expected a list of time-stamped poses")
    out = []
    last_t = -np.inf
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        if not isinstance(entry, dict):
            _fail(here, "expected a mapping")
        unknown = set(entry) - {"t", "position", "orientation_rpy", *extra_keys}
        if unknown:
            _fail(here, f"unknown keys {sorted(unknown)}")
        t = _number(_get(entry, "t", here, required=True), f"{here}.t",
                    nonnegative=True)
        if t < last_t:
            _fail(f"{here}.t", f"times must be nondecreasing ({t} < {last_t})")
        last_t = t
        out.append((t, _pose(entry, here)))
    return tuple(out)


def _shape(doc, path):
    if not isinstance(doc, dict) or "type" not in doc:
        _fail(path, "expected a mapping with a 'type' key")
    kind = doc["type"]
    try:
        if kind == "sphere":
            return [Sphere(radius=_number(_get(doc, "radius", path,
                                               required=True),
                                          f"{path}.radius", positive=True))]
        if kind == "capsule":
            return [Capsule(radius=_number(_get(doc, "radius", path,
                                                required=True),
                                           f"{path}.radius", positive=True),
                            a=_vector(_get(doc, "a", path, required=True), 3,
                                      f"{path}.a"),
                            b=_vector(_get(doc, "b", path, required=True), 3,
                                      f"{path}.b"))]
        if kind == "box":
            size = _vector(_get(doc, "size", path, required=True), 3,
                           f"{path}.size")
            margin = _number(doc.get("margin", 0.0), f"{path}.margin",
                             nonnegative=True)
            return box_capsules(size, margin=margin)
    except ScenarioError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(f"{path}.type", f"unknown shape type {kind!r} "
          "(sphere, capsule, box)")


def _sample_track(track, t: float) -> Pose:
    """Piecewise-linear pose along time-stamped waypoints, clamped."""
    if t <= track[0][0]:
        return track[0][1]
    if t >= track[-1][0]:
        return track[-1][1]
    for (t0, T0), (t1, T1) in zip(track, track[1:]):
        if t0 <= t <= t1:
            if t1 == t0:
                return T1
            return interpolate_pose(T0, T1, (t - t0) / (t1 - t0))
    return track[-1][1]


@dataclass(frozen=True)
class ObstacleSpec:
    """One scenario obstacle: shapes in the obstacle frame plus its motion."""

    name: str
    shapes: tuple
    base_pose: Pose
    track: tuple = ()

    def pose_at(self, t: float) -> Pose:
        if not self.track:
            return self.base_pose
        return _sample_track(self.track, t)

    def placed(self, t: float):
        pose = self.pose_at(t)
        return [Obstacle(shape=s, pose=pose, name=self.name)
                for s in self.shapes]


@dataclass(frozen=True)
class ContactEvent:
    start: float
    end: float
    link: int
    force: np.ndarray
    point: np.ndarray

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class NoiseSpec:
    q_std: float = 0.0
    qd_std: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.q_std > 0.0 or self.qd_std > 0.0


@dataclass(frozen=True)
class Scenario:
    name: str
    robot: str
    model: RobotModel
    duration: float
    control_rate: int
    planner_rate: int
    obstacle_rate: int = 30
    plan_latency: float = 0.0
    fallback_budget: int = 5
    seed: int = 0
    q0: np.ndarray = None
    qd0: np.ndarray = None
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    obstacles: Tuple[ObstacleSpec, ...] = ()
    reference: tuple = ()
    contact_events: Tuple[ContactEvent, ...] = ()
    planner: MpcConfig = field(default_factory=MpcConfig)
    gains: GainSet = None
    usde_k: float = 0.2
    reaction: ReactionParams = field(default_factory=ReactionParams)

    def obstacles_at(self, t: float):
        placed = []
        for spec in self.obstacles:
            placed.extend(spec.placed(t))
        return placed

    def reference_pose(self, t: float) -> Optional[Pose]:
        """Interpolated target pose, or None when no reference is given."""
        if not self.reference:
            return None
        return _sample_track(self.reference, t)

    def external_torque_events(self, t: float):
        return [ev for ev in self.contact_events if ev.active(t)]


def _controller_section(doc, path, n):
    gains = GainSet.default(n)
    usde_k = 0.2
    reaction = ReactionParams()
    if doc is None:
        return gains, usde_k, reaction
    if not isinstance(doc, dict):
        _fail(path, "expected a mapping")
    unknown = set(doc) - {"gains", "usde_k", "reaction"}
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}")
    if "gains" in doc:
        gdoc = doc["gains"]
        if not isinstance(gdoc, dict):
            _fail(f"{path}.gains", "expected a mapping")
        names = {"kp1", "kd1", "kp2", "kd2", "kp3", "kd3"}
        unknown = set(gdoc) - names
        if unknown:
            _fail(f"{path}.gains", f"unknown keys {sorted(unknown)}")
        defaults = dataclasses.asdict(gains)
        defaults.update(gdoc)
        try:
            gains = GainSet(**defaults)
        except ValueError as exc:
            _fail(f"{path}.gains", str(exc))
    if "usde_k" in doc:
        usde_k = _number(doc["usde_k"], f"{path}.usde_k", positive=True)
    if "reaction" in doc:
        rdoc = doc["reaction"]
        if not isinstance(rdoc, dict):
            _fail(f"{path}.reaction", "expected a mapping")
        try:
            reaction = ReactionParams(**rdoc)
        except TypeError as exc:
            _fail(f"{path}.reaction", str(exc))
        except ValueError as exc:
            _fail(f"{path}.reaction", str(exc))
    return gains, usde_k, reaction


def scenario_from_dict(doc: dict, base_dir: Optional[Path] = None,
                       label: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{label}: document root must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail(label, f"unknown top-level keys {sorted(unknown)}")

    robot = _get(doc, "robot", "", required=True)
    if not isinstance(robot, str):
        _fail("robot", f"expected a robot name or path, got {robot!r}")
    candidate = Path(robot)
    if base_dir is not None and not candidate.exists():
        local = Path(base_dir) / robot
        if local.exists():
            candidate = local
    model = load_robot(str(candidate) if candidate.exists() else robot)

    if "gravity" in doc:
        model = dataclasses.replace(
            model, gravity=_vector(doc["gravity"], 3, "gravity"))

    n = model.n
    duration = _number(_get(doc, "duration", "", required=True), "duration",
                       positive=True)
    control_rate = _integer(_get(doc, "control_rate", "", default=1000),
                            "control_rate", positive=True)
    planner_rate = _integer(_get(doc, "planner_rate", "", default=20),
                            "planner_rate", positive=True)
    if control_rate % planner_rate != 0:
        _fail("planner_rate", f"{planner_rate} Hz must divide the control "
              f"rate ({control_rate} Hz)")
    obstacle_rate = _integer(_get(doc, "obstacle_rate", "", default=30),
                             "obstacle_rate", positive=True)
    plan_latency = _number(_get(doc, "plan_latency", "", default=0.0),
                           "plan_latency", nonnegative=True)
    fallback_budget = _integer(_get(doc, "fallback_budget", "", default=5),
                               "fallback_budget", positive=True)
    seed = _integer(_get(doc, "seed", "", default=0), "seed")

    q0 = _vector(_get(doc, "q0", "", default=np.zeros(n)), n, "q0")
    qd0 = _vector(_get(doc, "qd0", "", default=np.zeros(n)), n, "qd0")

    noise = NoiseSpec()
    if "noise" in doc:
        ndoc = doc["noise"]
        if not isinstance(ndoc, dict) or set(ndoc) - {"q_std", "qd_std"}:
            _fail("noise", "expected a mapping with q_std/qd_std")
        noise = NoiseSpec(
            q_std=_number(ndoc.get("q_std", 0.0), "noise.q_std",
                          nonnegative=True),
            qd_std=_number(ndoc.get("qd_std", 0.0), "noise.qd_std",
                           nonnegative=True))

    obstacles = []
    for i, odoc in enumerate(doc.get("obstacles", []) or []):
        here = f"obstacles[{i}]"
        if not isinstance(odoc, dict):
            _fail(here, "expected a mapping")
        unknown = set(odoc) - {"name", "shape", "position", "orientation_rpy",
                               "track"}
        if unknown:
            _fail(here, f"unknown keys {sorted(unknown)}")
        shapes = _shape(_get(odoc, "shape", here, required=True),
                        f"{here}.shape")
        track = ()
        if "track" in odoc:
            track = _stamped_poses(odoc["track"], f"{here}.track")
            base = track[0][1]
        else:
            base = _pose(odoc, here, default_position=(0.0, 0.0, 0.0))
        obstacles.append(ObstacleSpec(
            name=odoc.get("name", f"obstacle{i}"), shapes=tuple(shapes),
            base_pose=base, track=track))

    reference = ()
    if "reference" in doc and doc["reference"] is not None:
        reference = _stamped_poses(doc["reference"], "reference")

    events = []
    for i, edoc in enumerate(doc.get("contact_events", []) or []):
        here = f"contact_events[{i}]"
        if not isinstance(edoc, dict):
            _fail(here, "expected a mapping")
        unknown = set(edoc) - {"start", "end", "link", "force", "point"}
        if unknown:
            _fail(here, f"unknown keys {sorted(unknown)}")
        start = _number(_get(edoc, "start", here, required=True),
                        f"{here}.start", nonnegative=True)
        end = _number(_get(edoc, "end", here, required=True), f"{here}.end")
        if end < start:
            _fail(f"{here}.end", f"event ends ({end}) before it starts "
                  f"({start})")
        link = _integer(_get(edoc, "link", here, required=True),
                        f"{here}.link")
        if not 0 <= link < n:
            _fail(f"{here}.link", f"link {link} out of range for a "
                  f"{n}-joint robot")
        events.append(ContactEvent(
            start=start, end=end, link=link,
            force=_vector(_get(edoc, "force", here, required=True), 3,
                          f"{here}.force"),
            point=_vector(_get(edoc, "point", here, required=True), 3,
                          f"{here}.point")))

    try:
        planner = MpcConfig.from_dict(doc.get("planner", {}) or {})
    except (TypeError, ValueError) as exc:
        _fail("planner", str(exc))

    gains, usde_k, reaction = _controller_section(doc.get("controller"),
                                                  "controller", n)

    return Scenario(
        name=str(doc.get("name", label)), robot=robot, model=model,
        duration=duration, control_rate=control_rate,
        planner_rate=planner_rate, obstacle_rate=obstacle_rate,
        plan_latency=plan_latency, fallback_budget=fallback_budget,
        seed=seed, q0=q0, qd0=qd0, noise=noise,
        obstacles=tuple(obstacles), reference=reference,
        contact_events=tuple(events), planner=planner, gains=gains,
        usde_k=usde_k, reaction=reaction)


def load_scenario(path, overrides: Sequence[str] = ()) -> Scenario:
    """Parse and validate a scenario file after applying ``overrides``
    (``section.key=value`` strings, see :func:`apply_overrides`)."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: invalid YAML ({exc})") from exc
    if isinstance(doc, dict):
        doc = apply_overrides(doc, overrides)
    try:
        return scenario_from_dict(doc, base_dir=path.parent, label=path.stem)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def bundled_scenario_path(name: str) -> Path:
    return data_path("scenarios", f"{name}.yaml")


def list_bundled_scenarios():
    root = data_path("scenarios")
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.yaml"))


def apply_overrides(doc: dict, overrides: Sequence[str]) -> dict:
    """Apply ``section.key=value`` strings onto a raw scenario mapping.

    Values are parsed as YAML scalars, so ``planner.N=10`` yields an int and
    ``controller.gains.kp1=150.0`` a float.  Intermediate mappings are
    created when absent.
    """
    out = dict(doc)
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(
                f"override {item!r} is not of the form section.key=value")
        dotted, _, raw = item.partition("=")
        keys = [k for k in dotted.strip().split(".") if k]
        if not keys:
            raise ScenarioError(f"override {item!r} has an empty key path")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        node = out
        for k in keys[:-1]:
            child = node.get(k)
            if child is None:
                child = {}
            elif not isinstance(child, dict):
                raise ScenarioError(
                    f"override {item!r}: {k} is not a mapping")
            child = dict(child)
            node[k] = child
            node = child
        node[keys[-1]] = value
    return out
