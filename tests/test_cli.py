"""The exit-code contract of ``safemanip``: 0 on success, 1 on configuration
errors, 2 when the planner aborts beyond its fallback budget."""

import pytest
import yaml

from safemanip.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main

RUN = {
    "name": "cli-run", "robot": "planar2r", "duration": 0.1,
    "control_rate": 1000, "planner_rate": 20, "q0": [0.4, 1.2],
    "planner": {"horizon": 8, "dt": 0.05,
                "task_selection": [0, 0, 1, 1, 1, 0]},
    "reference": [{"t": 0.0, "position": [0.8, 1.2, 0.0]}],
}
# a sphere around link 0 at q0 violates the distance rows of every QP, so
# the second consecutive fallback exceeds the budget of one
ABORT = dict(RUN, name="cli-abort", duration=0.2, fallback_budget=1,
             obstacles=[{"name": "ball",
                         "shape": {"type": "sphere", "radius": 0.3},
                         "position": [0.46, 0.19, 0.0]}])


# a robot file beside the scenario, with a scalar where a mapping belongs
LIMITS_5 = {"joints": [{"axis": [0, 0, 1], "limits": 5}],
            "links": [{"mass": 1.0, "com": [1.0, 0.0, 0.0]}]}
NAN = float("nan")


def _scenario(tmp_path, doc):
    path = tmp_path / "scenario.yaml"
    path.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    return str(path)


def test_run_exits_0_writes_report_and_keeps_stderr_empty(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _scenario(tmp_path, RUN), "-o", str(out)]) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "status: completed" in report
    captured = capsys.readouterr()
    assert report in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("doc, extra, message", [
    (None, [], "scenario file not found"),
    ("robot: [planar2r\n", [], "invalid YAML"),
    (dict(RUN, durations=0.1), [], "durations"),
    (RUN, ["--set", "planner.horizons=3"], "horizons"),
    (RUN, ["--set", "planner.N"], "section.key=value"),
    ("- planar2r\n", ["--set", "planner.N=3"], "must be a mapping"),
    (dict(RUN, robot="nosuchrobot"), [], "robot file not found: nosuchrobot"),
    (dict(RUN, robot="limits5.yaml"), [],
     "limits5.yaml: joints[0].limits: must be a mapping"),
    (dict(RUN, controller={"gains": dict.fromkeys(
        ("kp1", "kd1", "kp2", "kd2"), [1, 2, 3])}), [],
     "controller.gains.kd1: expected 2 finite numbers"),  # keys sorted
    (RUN, ["--set", "controller.gains.kp1=[1, 2, 3]"],
     "controller.gains.kp1: expected 2 finite numbers"),
    (RUN, ["--set", "controller.gains.kd3=[1, 2]"],
     "controller.gains.kd3: expected 6 finite numbers"),
    (dict(RUN, duration=NAN), [], "duration: expected a finite number"),
    (dict(RUN, q0=[NAN, 1.0]), [], "q0: expected 2 finite numbers"),
    (dict(RUN, contact_events=[{"start": NAN, "end": 0.05, "link": 1,
                                "force": [0.0, -10.0, 0.0],
                                "point": [0.0, 0.0, 0.0]}]), [],
     "contact_events[0].start: expected a finite number"),
    (dict(RUN, plan_latency=0.06), [],
     "plan_latency: 0.06 s exceeds 0.049 s"),
    (RUN, ["--set", "planner.dt=.nan"], "planner.dt: expected a finite number"),
    (RUN, ["--set", "planner.horizon=8.5"],
     "planner.horizon: expected an integer, got 8.5"),
    (RUN, ["--set", "planner.max_iters=2.5"],
     "planner.max_iters: expected an integer, got 2.5"),
    (RUN, ["--set", "planner.task_oriented=maybe"],
     "planner.task_oriented: expected true or false, got 'maybe'"),
    (RUN, ["--set", "q0=['0.4','1.2']"], "q0: expected 2 finite numbers"),
    (dict(ABORT, obstacles=[dict(ABORT["obstacles"][0], track=[])]), [],
     "obstacles[0].track: expected at least one waypoint"),
], ids=["missing-file", "invalid-yaml", "unknown-key", "unknown-nested-key",
        "malformed-set", "set-on-a-list", "unknown-robot", "robot-limits-5",
        "gains-all-of-size-3", "gain-kp1-of-size-3", "gain-kd3-of-size-2",
        "nan-duration", "nan-q0", "nan-contact-start", "latency-over-period",
        "nan-planner-dt", "float-horizon", "float-max-iters",
        "word-task-oriented", "string-q0", "empty-track"])
def test_configuration_errors_exit_1(tmp_path, capsys, doc, extra, message):
    (tmp_path / "limits5.yaml").write_text(yaml.safe_dump(LIMITS_5))
    path = (str(tmp_path / "absent.yaml") if doc is None
            else _scenario(tmp_path, doc))
    argv = ["run", path, "-o", str(tmp_path / "out")] + extra
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_unknown_subcommand_bench_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", _scenario(tmp_path, RUN)])
    assert exc.value.code == EXIT_CONFIG


def test_unknown_subcommand_validate_exits_1():
    # the model property checks live in the test suite, not the CLI
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == EXIT_CONFIG


def test_planner_abort_exits_2_and_still_writes_report(tmp_path):
    out = tmp_path / "out"
    code = main(["run", _scenario(tmp_path, ABORT), "-o", str(out)])
    assert code == EXIT_SOLVER
    assert "ABORTED: planner failed 2 consecutive cycles" in (
        out / "report.txt").read_text()


def test_compare_with_itself_exits_0_and_writes_compare(tmp_path, capsys):
    path = _scenario(tmp_path, RUN)
    out = tmp_path / "out"
    assert main(["compare", path, path, "-o", str(out)]) == EXIT_OK
    text = (out / "compare.txt").read_text()
    assert "ee error rms delta: +0.00000" in text
    assert text in capsys.readouterr().out
    assert (out / "a" / "report.txt").exists()
    assert (out / "b" / "report.txt").exists()


@pytest.mark.parametrize("other, message", [
    (dict(RUN, robot="planar3r", q0=[0.4, 1.2, 0.0]), "robot mismatch"),
    (dict(RUN, duration=0.05), "duration mismatch"),
    (dict(RUN, reference=[{"t": 0.05, "position": [0.8, 1.2, 0.0]}]),
     "waypoint schedules differ"),
], ids=["robot", "duration", "waypoints"])
def test_compare_mismatch_exits_1_before_running(tmp_path, capsys, other,
                                                 message):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _scenario(tmp_path / "a", RUN)
    b = _scenario(tmp_path / "b", other)
    out = tmp_path / "out"
    assert main(["compare", a, b, "-o", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot compare ")
    assert message in err
    assert not out.exists()


def test_compare_with_an_aborted_run_exits_2_without_a_diff(tmp_path):
    # the aborted run stops before the second waypoint, so its metrics do
    # not compare with the full run's
    late = {"t": 0.15, "position": [0.8, 1.2, 0.0]}
    aborts = dict(ABORT, reference=RUN["reference"] + [late])
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _scenario(tmp_path / "a", dict(aborts, obstacles=[]))
    b = _scenario(tmp_path / "b", aborts)
    out = tmp_path / "out"
    assert main(["compare", a, b, "-o", str(out)]) == EXIT_SOLVER
    assert "status: completed" in (out / "a" / "report.txt").read_text()
    assert "ABORTED" in (out / "b" / "report.txt").read_text()
    assert not (out / "compare.txt").exists()
