"""Golden closed-loop runs: two short panda7 scenarios whose logs must stay
byte-identical.

The ``log.csv`` hashes were recorded on the commit after 4819460 that wrote
forward kinematics, M(q), Newton-Euler, ``mdot_qd`` and ``jacobian_dot_qd``
as prefix sums of spatial vectors at the world origin.  The previous hashes
(push ``50f3a721...``/``b3f95bd1...``, noise ``4b3863bb...``/
``82427575...``) were recorded on the commit after 587b8bd and still hold on
4819460.  They changed by roundoff only: over both runs the logged torques
move by at most 7.7e-13 N m, the torque estimate by at most 1.4e-14 N m, the
joint angles by at most 1.1e-15 rad, the joint rates by at most 5.0e-14
rad/s, the logged distances by at most 2.8e-16 m and the plan cost by at most
9.7e-15 relative; the mode timeline, the contact links, the detections and
the solve statuses are unchanged, and one QP iteration count of the push run
moves (65 to 63 at t = 0.05 s), as active-set paths do on roundoff.

The ``solves.csv`` hashes were recorded on the commit after e326c04 that
reads each plan's cost, defect and predicted clearance off the QP it solved
(push ``128dcfd8...``, noise ``cb8ccb90...`` before it).  Every plan is
bitwise unchanged and ``log.csv`` is byte-identical; the cost column moves by
at most 8.9e-14 relative and ``min_predicted_distance`` by at most 8.3e-17 m,
while status, iterations, ``max_defect`` and ``fallback`` are unchanged.  The
two golden tests use only ``scenario_from_dict`` and ``sim.run``, so they run
unchanged against older commits, where they report the previous hashes::

    git clone <repo> parent && git -C parent checkout 4819460
    PYTHONPATH=parent/src python -m pytest -q tests/test_sim.py -k golden

All four hashes were recorded again on the commit after 129701d that solves
every plan with a dual active-set method (push ``f10f0bfb...``/
``c9d5b4f6...``, noise ``64ac8619...``/``7bd0777d...`` before it).  The dual
method starts from the minimizer under the equality rows, not from the
previous plan, so each plan reaches the same optimum along another path and
carries other roundoff: over both runs the joint angles move by at most
9.0e-15 rad, the joint rates by at most 9.6e-14 rad/s, the torques by at most
1.3e-12 N m, the torque estimate by at most 2.5e-14 N m, the logged distances
by at most 5.0e-16 m, the plan cost by at most 1.3e-13 in absolute terms and
``min_predicted_distance`` by at most 4.6e-15 m.  Modes, contact links,
detections and solve statuses are unchanged; the iteration counts move
(push 60, 63, 5 to 42, 43, 3; noise 56, 35 to 42, 44).

The push hashes were recorded again on the commit after 3f38178 that keeps
one point Jacobian, of a world point (push ``6d28636b...``/``218978af...``
before it).  The contact direction and the plant's external torque no longer
take their world point to the link frame and back, so the push run carries
other roundoff: the joint angles move by at most 1.3e-15 rad, the joint rates
by at most 1.6e-14 rad/s, the torques by at most 6.1e-13 N m, the torque
estimate by at most 2.7e-14 N m, the logged distances by at most 4.2e-16 m,
the end-effector position by at most 5.6e-16 m and its error by at most
8.9e-16, the plan cost by at most 5.7e-14 in absolute terms,
``max_defect`` by at most 7.8e-16 and ``min_predicted_distance`` by at most
2.3e-15 m.  Modes, contact links, detections, solve statuses and iteration
counts are unchanged.  The same commit's frames-as-arrays change alone left
all four hashes byte-identical, and the noise hashes still hold.

A refactor that changes no arithmetic must leave them unchanged; a change that
does change the numbers must say why and record new hashes here.
"""

import csv
import hashlib
import logging
import math

import pytest

from safemanip import sim
from safemanip.robots import InputFileError
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
        "d5968a15aebce3b483597a38aaa1c111ee4a6e95b85da0dda27a6a0b6c888fe6",
        "ba3745367175322d883740c053ab6705297d3cfa99b6b9b9acc19c2e09b559fc"),
    "golden-noise": (
        "fee55265b50b7bc8bca482a7b1e3236bb57d8a3b27b9afaf5d7a593d2557cf52",
        "c063ea51584351e5e27497a53e945a9c37caa18b98eec91130e0f7fe7c7ecd3b"),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(doc, tmp_path):
    report = run(scenario_from_dict(doc, label=doc["name"]),
                 out_dir=tmp_path)
    return report, (_sha256(report.log_path), _sha256(report.solves_path))


def test_push_run_reaches_contact_safe_and_matches_golden(tmp_path):
    # twice in one process: nothing a run leaves behind may reach the next
    for k in range(2):
        report, hashes = _run(PUSH, tmp_path / str(k))
        assert "CONTACT_SAFE" in [mode for _, mode in report.mode_timeline]
        assert report.detections
        assert hashes == GOLDEN["golden-push"]


def test_noisy_run_matches_golden(tmp_path):
    sc = scenario_from_dict(NOISE, label=NOISE["name"])
    assert sc.noise.enabled
    report, hashes = _run(NOISE, tmp_path)
    assert report.ticks == 100
    assert hashes == GOLDEN["golden-noise"]


def test_method_names_one_qp(tmp_path):
    # single shooting is the multiple-shooting QP with the states eliminated,
    # so both methods fly the same run: log.csv is byte-identical and
    # solves.csv differs only where it echoes the method
    logs, solves = {}, {}
    for method in ("multiple", "single"):
        doc = dict(_BASE, name=f"method-{method}", duration=0.1,
                   planner={"N": 10, "method": method})
        report = run(scenario_from_dict(doc, label=doc["name"]),
                     out_dir=tmp_path / method)
        with open(report.log_path, "rb") as fh:
            logs[method] = fh.read()
        with open(report.solves_path, newline="") as fh:
            solves[method] = list(csv.DictReader(fh))
    assert logs["multiple"] == logs["single"]
    assert len(solves["multiple"]) == len(solves["single"]) == 2
    for method, rows in solves.items():
        assert [row.pop("method") for row in rows] == [method, method]
    assert solves["multiple"] == solves["single"]


def test_damped_singular_task_is_reported_on_every_run(tmp_path, caplog):
    # a planar arm cannot span the 6-D task, so the contact-safe law damps
    # its task inertia on every tick of the reaction; each run in a process
    # counts those ticks in its report and logs one warning
    doc = {
        "name": "planar-push", "robot": "planar2r", "duration": 0.15,
        "control_rate": 1000, "planner_rate": 20, "q0": [0.4, 1.2],
        "planner": {"horizon": 8, "dt": 0.05,
                    "task_selection": [0, 0, 1, 1, 1, 0]},
        "reference": [{"t": 0.0, "position": [0.892, 1.389, 0.0]}],
        # 30 N at the tip, pointing away from the base
        "contact_events": [{"start": 0.01, "end": 0.15, "link": 1,
                            "force": [16.2, 25.2, 0.0],
                            "point": [1.0, 0.0, 0.0]}],
    }
    logs = []
    for k in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="safemanip.controller"):
            report = run(scenario_from_dict(doc, label=doc["name"]),
                         out_dir=tmp_path / str(k))
        # detection at 50 ms, CONTACT_SAFE for the remaining 100 ticks
        assert report.mode_timeline == ((0.0, "TRACKING"),
                                        (0.05, "CONTACT_SAFE"))
        assert report.damped_task_ticks == 100
        assert ("contact-safe ticks with a damped singular task: 100"
                in report.as_text())
        assert caplog.text.count("near singular") == 1
        logs.append((_sha256(report.log_path), _sha256(report.solves_path)))
    assert logs[0] == logs[1]


def test_largest_plan_latency_still_delivers_every_plan(tmp_path,
                                                        monkeypatch):
    # each planner tick replaces the pending plan, so a latency above the
    # last control tick of the planner period (49 ms at 20 Hz / 1 kHz)
    # would leave the controller tracking q0 for the whole run
    doc = {
        "name": "latency", "robot": "planar2r", "duration": 0.1,
        "control_rate": 1000, "planner_rate": 20, "q0": [0.4, 1.2],
        "planner": {"horizon": 8, "dt": 0.05,
                    "task_selection": [0, 0, 1, 1, 1, 0]},
        "reference": [{"t": 0.0, "position": [0.8, 1.2, 0.0]}],
    }
    for late in (0.0495, 0.05, 0.06):
        with pytest.raises(InputFileError, match="plan_latency"):
            scenario_from_dict(dict(doc, plan_latency=late))
    sampled = []
    sample_plan = sim._sample_plan
    monkeypatch.setattr(sim, "_sample_plan", lambda X, t0, t, *rest: (
        sampled.append((t0, t)) or sample_plan(X, t0, t, *rest)))
    run(scenario_from_dict(dict(doc, plan_latency=0.049)), out_dir=tmp_path)
    # the plan made at tick 0 acts from tick 49, the one made at tick 50
    # from tick 99
    assert sampled[0] == (0.0, 0.049)
    assert [t0 for t0, _ in sampled] == [0.0] * 50 + [0.05]
