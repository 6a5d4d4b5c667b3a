"""Golden closed-loop runs: two short panda7 scenarios whose logs must stay
byte-identical.

The hashes were recorded on commit ff9251c, the last commit before the
per-state ``KinState`` refactor; this file uses only ``scenario_from_dict`` and
``sim.run``, so it runs unchanged against that commit::

    git clone <repo> parent && git -C parent checkout ff9251c
    PYTHONPATH=parent/src python -m pytest -q tests/test_sim.py

A refactor that changes no arithmetic must leave them unchanged; a change that
does change the numbers must say why and record new hashes here.
"""

import hashlib
import math

from safemanip.scenario import scenario_from_dict
from safemanip.sim import run

_RPY_DOWN = [math.pi, 0.0, 0.0]
_BASE = {
    "robot": "panda7", "control_rate": 1000, "planner_rate": 20,
    "q0": [0.0, -0.3, 0.0, -2.0, 0.0, 1.8, 0.7],
    "obstacles": [{"name": "sphere",
                   "shape": {"type": "sphere", "radius": 0.08},
                   "position": [0.45, 0.15, 0.55]}],
    "reference": [
        {"t": 0.0, "position": [0.45, 0.0, 0.45],
         "orientation_rpy": _RPY_DOWN},
        {"t": 0.5, "position": [0.45, 0.1, 0.45],
         "orientation_rpy": _RPY_DOWN},
    ],
    "planner": {"N": 10},
}
# a 60 N push on link 3 from 10 ms: the estimator trips at 53 ms and the
# controller reacts in CONTACT_SAFE for the rest of the run
PUSH = dict(_BASE, name="golden-push", duration=0.15, contact_events=[{
    "start": 0.01, "end": 0.15, "link": 3, "force": [0.0, -60.0, 0.0],
    "point": [0.0, 0.0, 0.2]}])
# sensor noise on: the controller and planner read a measured state that
# differs from the true one integrated by the plant
NOISE = dict(_BASE, name="golden-noise", duration=0.1, seed=7,
             noise={"q_std": 1e-4, "qd_std": 1e-3})

GOLDEN = {
    "golden-push": (
        "e3c7984725be871eadcd2c4654498b5d283741e93ecce0b723e077876f9caa98",
        "33707cebf42d6ba46baf839b927f2d3939f4e253094741f5573c8b55e3a12bbd"),
    "golden-noise": (
        "b415b96bd602e3a68c7405ece516099374ac725895f670ddf8262f24a702f349",
        "03eea2603bdf3ebaf101c4aaa8fa3394daea8369997600433ef81759e98b9f82"),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(doc, tmp_path):
    report = run(scenario_from_dict(doc, label=doc["name"]),
                 out_dir=tmp_path)
    return report, (_sha256(report.log_path), _sha256(report.solves_path))


def test_push_run_reaches_contact_safe_and_matches_golden(tmp_path):
    report, hashes = _run(PUSH, tmp_path)
    assert "CONTACT_SAFE" in [mode for _, mode in report.mode_timeline]
    assert report.detections
    assert hashes == GOLDEN["golden-push"]


def test_noisy_run_matches_golden(tmp_path):
    sc = scenario_from_dict(NOISE, label=NOISE["name"])
    assert sc.noise.enabled
    report, hashes = _run(NOISE, tmp_path)
    assert report.ticks == 100
    assert hashes == GOLDEN["golden-noise"]
