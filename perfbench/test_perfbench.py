"""Tests of the benchmark's own code: tail selection, self times, tick
arithmetic, hooks and the seeded generator.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from tracing import (  # noqa: E402
    Hook, HookError, Installed, Tracer, merge, self_times, tail_percentile,
    tick_times)
from workloads import draws, make_workload, start_is_valid  # noqa: E402


class TestTailPercentile:
    def test_hundred_samples_give_p90(self):
        p, v = tail_percentile(np.arange(100.0))
        assert p == 90
        assert np.count_nonzero(np.arange(100.0) > v) == 10

    def test_higher_percentile_would_leave_fewer_than_ten(self):
        x = np.random.default_rng(1).random(998)
        p, v = tail_percentile(x)
        assert np.count_nonzero(x > v) >= 10
        assert np.count_nonzero(x > np.percentile(x, p + 1)) < 10

    def test_twenty_samples_fall_back_to_the_middle(self):
        p, v = tail_percentile(np.arange(20.0))
        assert np.count_nonzero(np.arange(20.0) > v) == 10
        assert p == 52

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            tail_percentile(np.arange(10.0))


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        np.testing.assert_allclose(self_times(parent, start, end),
                                   [3.0, 2.0, 1.0, 4.0])

    def test_tracer_records_parents_and_merge_reindexes(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) * 2)
        assert outer(1) == 4
        assert outer(2) == 6
        assert tracer.names == ["outer", "inner", "outer", "inner"]
        assert tracer.parent == [-1, 0, -1, 2]
        merged = merge([tracer, tracer])
        assert merged.parent[4:] == [-1, 4, -1, 6]
        own = self_times(tracer.parent, tracer.start, tracer.end)
        dur = np.subtract(tracer.end, tracer.start)
        assert np.all(own >= 0.0)
        np.testing.assert_allclose(own[0] + own[1], dur[0])

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap("boom", boom)()
        tracer.wrap("after", lambda: None)()
        assert tracer.parent == [-1, -1]
        assert tracer.end[0] >= tracer.start[0]


class TestTickTimes:
    def test_solve_is_subtracted_from_its_tick(self):
        edges = [0.0, 1.0, 2.0, 3.5]
        ticks = tick_times(edges, solve_starts=[1.2], solve_ends=[1.7])
        np.testing.assert_allclose(ticks, [1.0, 0.5, 1.5])

    def test_solve_before_the_first_edge_has_no_tick(self):
        ticks = tick_times([1.0, 2.0], solve_starts=[0.1, 1.1],
                           solve_ends=[0.6, 1.3])
        np.testing.assert_allclose(ticks, [0.8])


class TestHooks:
    def test_missing_name_fails(self):
        with pytest.raises(HookError, match="missing"):
            Installed(Tracer(), [Hook("dynamics", "no_such_fn", "x")])

    def test_patches_importers_and_restores(self):
        import safemanip.controller as controller
        import safemanip.dynamics as dynamics
        import safemanip.sim as sim

        original = dynamics.mass_matrix
        tracer = Tracer()
        with Installed(tracer, [Hook("dynamics", "mass_matrix", "m")]) as ins:
            assert dynamics.mass_matrix is not original
            assert sim.mass_matrix is dynamics.mass_matrix
            assert controller.mass_matrix is dynamics.mass_matrix
            assert "safemanip.sim.mass_matrix" in ins.sites["m"]
        assert dynamics.mass_matrix is original
        assert sim.mass_matrix is original

    def test_zero_calls_on_a_required_span_fail(self):
        names = list(layers.REQUIRED["plan_ms"])
        layers.check_required("plan_ms", names)
        with pytest.raises(HookError, match="planner.solve_qp"):
            layers.check_required(
                "plan_ms", [n for n in names if n != "planner.solve_qp"])


class TestGenerator:
    @staticmethod
    def _fingerprint(workload):
        sc = workload.scenario
        obstacles = [o.base_pose.translation.tolist() for o in sc.obstacles]
        events = [(e.start, e.end, e.link, e.force.tolist())
                  for e in sc.contact_events]
        return obstacles, events, sc.planner.method, sc.planner.horizon

    @pytest.mark.parametrize("name", ["loop_push", "plan_ms", "plan_ss"])
    def test_same_seed_same_inputs(self, name):
        a = make_workload(name, 7)
        b = make_workload(name, 7)
        assert self._fingerprint(a) == self._fingerprint(b)
        assert a.rejected_draws == b.rejected_draws
        assert self._fingerprint(a) != self._fingerprint(make_workload(name, 8))
        assert start_is_valid(a.scenario)

    def test_draw_sequence_repeats_per_seed(self):
        a = [self._fingerprint(w)
             for w in itertools.islice(draws("loop_push", 5), 3)]
        b = [self._fingerprint(w)
             for w in itertools.islice(draws("loop_push", 5), 3)]
        assert a == b
        assert a[0] == self._fingerprint(make_workload("loop_push", 5))
        assert a[0] != a[1] != a[2]

    def test_obstacle_at_the_end_effector_is_invalid(self):
        from safemanip.model import forward_kinematics
        from safemanip.scenario import scenario_from_dict

        sc = make_workload("plan_ms", 0).scenario
        ee = forward_kinematics(sc.model, sc.q0)[-1].translation
        doc = {"robot": "panda7", "duration": 1.0, "q0": sc.q0.tolist(),
               "obstacles": [{"shape": {"type": "sphere", "radius": 0.01},
                              "position": (ee + [0.0, 0.0, 0.15]).tolist()}]}
        assert not start_is_valid(scenario_from_dict(doc))
        doc["obstacles"][0]["position"] = (ee + [0.0, 0.0, 0.4]).tolist()
        assert start_is_valid(scenario_from_dict(doc))

    def test_plan_workloads_share_the_scene(self):
        ms = self._fingerprint(make_workload("plan_ms", 3))
        ss = self._fingerprint(make_workload("plan_ss", 3))
        assert ms[0] == ss[0]
        assert (ms[2], ss[2]) == ("multiple", "single")

    def test_unknown_workload_is_refused(self):
        with pytest.raises(ValueError):
            make_workload("nope", 0)
