"""Scenario files: everything a closed-loop run needs, as data.

A scenario is a YAML document naming the robot, the obstacle set (optionally
moving along piecewise-linear pose tracks), the time-stamped end-effector
reference, scripted contact events, and the planner/controller configuration.
Schema::

    name: cabinet            # optional label
    robot: panda7            # robot file: a path, else a path relative to
                             # the scenario's directory, else a bundled name
    duration: 6.0            # s, > 0
    control_rate: 1000       # Hz, integer
    planner_rate: 20         # Hz, must divide control_rate
    obstacle_rate: 30        # Hz, optional (default 30)
    plan_latency: 0.0        # s, optional: plans become visible this late;
                             # at most 1/planner_rate - 1/control_rate, as
                             # each planner tick replaces the pending plan
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
                             # a scalar, or n entries (6 for kp3/kd3)
      usde_k: 0.2
      reaction: {tau_th: 3.0, k_f: 1.0, ...}

Shapes are those of :func:`safemanip.robots.primitive`, in the obstacle
frame.  An empty reference means hold the initial end-effector pose.  Times
must be nondecreasing, every number finite and every key one defined above;
errors are :class:`~safemanip.robots.InputFileError` naming file and field.
"""

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np
import yaml

from .controller import GainSet, ReactionParams
from .geometry import Obstacle
from .model import RobotModel
from .planner import MpcConfig
from .robots import (InputFileError, build, fail, integer, mapping, number,
                     pose, primitive, read_input, robot_from_dict, sequence,
                     vector)
from .se3 import Pose, interpolate_pose

_TOP_KEYS = {
    "name", "robot", "duration", "control_rate", "planner_rate",
    "obstacle_rate", "plan_latency", "fallback_budget", "seed", "gravity",
    "q0", "qd0", "noise", "obstacles", "reference", "contact_events",
    "planner", "controller",
}
_POSE_KEYS = ("position", "orientation_rpy")


def _stamped_poses(entries, where):
    """Validate a list of {t, position, orientation_rpy} waypoints."""
    out = []
    last_t = -np.inf
    for i, entry in enumerate(sequence(entries, where)):
        here = f"{where}[{i}]"
        mapping(entry, here, ("t", *_POSE_KEYS), required=("t", "position"))
        t = number(entry["t"], f"{here}.t", nonnegative=True)
        if t < last_t:
            fail(f"{here}.t", f"times must be nondecreasing ({t} < {last_t})")
        last_t = t
        out.append((t, pose(entry, here, *_POSE_KEYS)))
    return tuple(out)


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


def _gain(value, size, where) -> np.ndarray:
    """One diagonal gain: a scalar for every entry, or ``size`` entries."""
    gain = (vector(value, size, where) if isinstance(value, list)
            else np.full(size, number(value, where)))
    if np.any(gain < 0.0):
        fail(where, "gain entries must be >= 0")
    return gain


def _controller_section(doc, n):
    doc = mapping({} if doc is None else doc, "controller",
                  ("gains", "usde_k", "reaction"))
    gains = dataclasses.asdict(GainSet.default(n))
    for key, value in mapping(doc.get("gains", {}), "controller.gains",
                              tuple(gains)).items():
        # kp3/kd3 act on the 6-D task error, the others on the joints
        gains[key] = _gain(value, 6 if key in ("kp3", "kd3") else n,
                           f"controller.gains.{key}")
    where = "controller.reaction"
    reaction = mapping(doc.get("reaction", {}), where,
                       [f.name for f in dataclasses.fields(ReactionParams)])
    return (GainSet(**gains),
            number(doc.get("usde_k", 0.2), "controller.usde_k", positive=True),
            build(ReactionParams, where, **{
                key: number(value, f"{where}.{key}")
                for key, value in reaction.items()}))


def scenario_from_dict(doc: dict, base_dir: Optional[Path] = None,
                       label: str = "scenario") -> Scenario:
    mapping(doc, "", _TOP_KEYS, required=("robot", "duration"))
    robot = doc["robot"]
    if not isinstance(robot, str):
        fail("robot", f"expected a robot name or path, got {robot!r}")
    model = read_input(robot, "robot file", robot_from_dict, base_dir=base_dir,
                       bundled="robots")
    if "gravity" in doc:
        model = dataclasses.replace(
            model, gravity=vector(doc["gravity"], 3, "gravity"))

    n = model.n
    duration = number(doc["duration"], "duration", positive=True)
    control_rate, planner_rate, obstacle_rate, fallback_budget = (
        integer(doc.get(key, default), key, low=1) for key, default in (
            ("control_rate", 1000), ("planner_rate", 20),
            ("obstacle_rate", 30), ("fallback_budget", 5)))
    if control_rate % planner_rate != 0:
        fail("planner_rate", f"{planner_rate} Hz must divide the control "
             f"rate ({control_rate} Hz)")
    plan_latency = number(doc.get("plan_latency", 0.0), "plan_latency",
                          nonnegative=True)
    # each planner tick replaces the pending plan, so a plan must become
    # visible by the last control tick of its planner period
    last_tick = (control_rate // planner_rate - 1) / control_rate
    if plan_latency > last_tick:
        fail("plan_latency", f"{plan_latency} s exceeds {last_tick} s, the "
             f"last control tick of the {1.0 / planner_rate} s planner "
             "period: no plan would ever become visible")
    seed = integer(doc.get("seed", 0), "seed")

    q0 = vector(doc.get("q0", np.zeros(n)), n, "q0")
    qd0 = vector(doc.get("qd0", np.zeros(n)), n, "qd0")

    ndoc = mapping(doc.get("noise", {}), "noise", ("q_std", "qd_std"))
    noise = NoiseSpec(*(number(ndoc.get(key, 0.0), f"noise.{key}",
                               nonnegative=True)
                        for key in ("q_std", "qd_std")))

    obstacles = []
    for i, odoc in enumerate(sequence(doc.get("obstacles"), "obstacles")):
        here = f"obstacles[{i}]"
        mapping(odoc, here, ("name", "shape", "track", *_POSE_KEYS),
                required=("shape",))
        shapes, _ = primitive(odoc["shape"], f"{here}.shape")
        track = _stamped_poses(odoc.get("track"), f"{here}.track")
        if "track" in odoc and not track:
            fail(f"{here}.track", "expected at least one waypoint")
        base = track[0][1] if track else pose(odoc, here, *_POSE_KEYS)
        obstacles.append(ObstacleSpec(
            name=odoc.get("name", f"obstacle{i}"), shapes=tuple(shapes),
            base_pose=base, track=track))

    reference = _stamped_poses(doc.get("reference"), "reference")

    events = []
    for i, edoc in enumerate(sequence(doc.get("contact_events"),
                                      "contact_events")):
        here = f"contact_events[{i}]"
        keys = ("start", "end", "link", "force", "point")
        mapping(edoc, here, keys, required=keys)
        start = number(edoc["start"], f"{here}.start", nonnegative=True)
        end = number(edoc["end"], f"{here}.end")
        if end < start:
            fail(f"{here}.end", f"event ends ({end}) before it starts "
                 f"({start})")
        events.append(ContactEvent(
            start=start, end=end,
            link=integer(edoc["link"], f"{here}.link", low=0, below=n),
            force=vector(edoc["force"], 3, f"{here}.force"),
            point=vector(edoc["point"], 3, f"{here}.point")))

    pdoc = mapping(doc.get("planner") or {}, "planner")
    planner = build(MpcConfig.from_dict, "planner", pdoc)
    gains, usde_k, reaction = _controller_section(doc.get("controller"), n)

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
    return read_input(path, "scenario file", lambda doc, label: (
        scenario_from_dict(apply_overrides(doc, overrides),
                           base_dir=path.parent, label=label)))


def apply_overrides(doc: dict, overrides: Sequence[str]) -> dict:
    """Apply ``section.key=value`` strings onto a raw scenario mapping.

    Values are parsed as YAML scalars, so ``planner.N=10`` yields an int and
    ``controller.gains.kp1=150.0`` a float.  Intermediate mappings are
    created when absent.
    """
    out = dict(doc)
    for item in overrides:
        dotted, equals, raw = item.partition("=")
        keys = [k for k in dotted.strip().split(".") if k]
        if not equals or not keys:
            raise InputFileError(
                f"override {item!r} is not of the form section.key=value")
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
                raise InputFileError(
                    f"override {item!r}: {k} is not a mapping")
            child = dict(child)
            node[k] = child
            node = child
        node[keys[-1]] = value
    return out
