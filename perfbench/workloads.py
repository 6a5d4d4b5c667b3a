"""Seeded workload generator for the safemanip benchmark.

Each workload is a scenario document built here and parsed by
``safemanip.scenario.scenario_from_dict``; the program only ever sees the
generated inputs.  ``--seed`` jitters every obstacle position by up to
``OBSTACLE_JITTER_M`` per axis and, on ``loop_push``, the push onset and force
by up to ``PUSH_JITTER`` of their nominal values.  ``plan_ms`` and ``plan_ss``
draw from the same stream, so one seed gives them identical scenes.

A draw is invalid input when, at the start configuration, the end-effector
link is inside ``d_th2`` of an obstacle or any link is inside ``d_th1``.  Such
a draw is rejected and redrawn from the same stream; the number of rejected
draws is reported with the workload.  ``loop_push`` takes one draw per unit of
work, the ``plan_*`` workloads repeat their first draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from safemanip.geometry import closest_pair_per_link
from safemanip.scenario import Scenario, scenario_from_dict

WORKLOADS = ("loop_push", "plan_ms", "plan_ss")
DEFAULT_SEED = 0

OBSTACLE_JITTER_M = 0.005
PUSH_JITTER = 0.025
MAX_DRAWS = 1000

# open-loop planning cycles per unit of plan_* work (1 s of planned time)
PLAN_CYCLES = 20

Q0 = [0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7]
RPY_DOWN = [math.pi, 0.0, 0.0]
REFERENCE = [
    {"t": 0.0, "position": [0.45, 0.0, 0.45], "orientation_rpy": RPY_DOWN},
    {"t": 0.5, "position": [0.45, 0.1, 0.45], "orientation_rpy": RPY_DOWN},
]
SPHERE = {"name": "sphere", "shape": {"type": "sphere", "radius": 0.08},
          "position": [0.45, 0.15, 0.55]}
SHELF = {"name": "shelf", "shape": {"type": "box", "size": [0.3, 0.6, 0.04]},
         "position": [0.55, -0.05, 0.15]}
BAR = {"name": "bar",
       "shape": {"type": "capsule", "radius": 0.02, "a": [0.0, -0.25, 0.0],
                 "b": [0.0, 0.25, 0.0]},
       "position": [0.15, 0.0, 0.95]}

PUSH_LINK = 3
PUSH_ONSET_S = 0.2
PUSH_LENGTH_S = 0.15
PUSH_FORCE_N = 35.0
PUSH_POINT = [0.0, 0.0, 0.2]


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload run."""

    name: str
    seed: int
    scenario: Scenario
    rejected_draws: int
    push_link: int = -1          # loop_push only
    push_onset: float = math.nan  # loop_push only, s


def _jittered(obstacle: dict, rng) -> dict:
    out = dict(obstacle)
    offset = rng.uniform(-OBSTACLE_JITTER_M, OBSTACLE_JITTER_M, 3)
    out["position"] = [float(p + d) for p, d in zip(obstacle["position"], offset)]
    return out


def _loop_push_doc(rng):
    onset = PUSH_ONSET_S * rng.uniform(1.0 - PUSH_JITTER, 1.0 + PUSH_JITTER)
    force = PUSH_FORCE_N * rng.uniform(1.0 - PUSH_JITTER, 1.0 + PUSH_JITTER)
    doc = {
        "name": "loop_push", "robot": "panda7", "duration": 0.5,
        "control_rate": 1000, "planner_rate": 20, "q0": Q0,
        "obstacles": [_jittered(SPHERE, rng)],
        "reference": REFERENCE,
        "contact_events": [{
            "start": float(onset), "end": float(onset + PUSH_LENGTH_S),
            "link": PUSH_LINK, "force": [0.0, -float(force), 0.0],
            "point": PUSH_POINT}],
        "planner": {"N": 20},
    }
    return doc, onset


def _plan_doc(rng, method: str):
    return {
        "name": f"plan_{'ms' if method == 'multiple' else 'ss'}",
        "robot": "panda7", "duration": PLAN_CYCLES / 20.0,
        "control_rate": 1000, "planner_rate": 20, "q0": Q0,
        "obstacles": [_jittered(o, rng) for o in (SPHERE, SHELF, BAR)],
        "reference": REFERENCE,
        "planner": {"N": 50, "method": method},
    }


def start_is_valid(scenario: Scenario) -> bool:
    """The rejection rule in the module docstring."""
    cfg = scenario.planner
    sweep = closest_pair_per_link(scenario.model, scenario.q0,
                                  scenario.obstacles_at(0.0))
    ee_link = scenario.model.n - 1
    for res in sweep.results:
        if res.distance < cfg.d_th1:
            return False
        if res.link == ee_link and res.distance < cfg.d_th2:
            return False
    return True


def draws(name: str, seed: int):
    """Successive valid draws of workload ``name`` from the stream of
    ``seed``; equal seeds give equal sequences."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (known: {WORKLOADS})")
    stream = 0 if name == "loop_push" else 1
    rng = np.random.default_rng([stream, int(seed)])
    rejected = 0
    while True:
        if name == "loop_push":
            doc, onset = _loop_push_doc(rng)
        else:
            doc = _plan_doc(rng, "multiple" if name == "plan_ms" else "single")
            onset = math.nan
        scenario = scenario_from_dict(doc, label=name)
        if not start_is_valid(scenario):
            rejected += 1
            if rejected >= MAX_DRAWS:
                raise RuntimeError(
                    f"{name}: {rejected} invalid draws for seed {seed}")
            continue
        yield Workload(name=name, seed=int(seed), scenario=scenario,
                       rejected_draws=rejected,
                       push_link=PUSH_LINK if name == "loop_push" else -1,
                       push_onset=float(onset))
        rejected = 0


def make_workload(name: str, seed: int) -> Workload:
    """The first valid draw of workload ``name`` for ``seed``."""
    return next(draws(name, seed))
