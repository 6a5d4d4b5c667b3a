"""The layer map: which public functions are hooked, where they must run, and
the per-layer metrics computed from their spans.

Layers are the modules of ``safemanip``: ``dynamics``, ``model``,
``geometry``, ``controller``, ``sim`` and ``planner`` (``transcription``,
``costs``, ``qp``, ``planner``).  ``se3``, ``scenario`` and ``robots`` are not
hooked; their time is self time of their callers.
"""

import numpy as np

from tracing import Hook, HookError, self_times


def plan_tag(step):
    """(iterations, converged, used_fallback, status) of a PlanStep."""
    sol = step.solution
    return (sol.iterations, int(sol.converged), int(step.used_fallback),
            sol.status)


def _problem_tag(problem):
    return (problem.n_vars, problem.n_distance_rows)


def _mode_tag(result):
    return result[0].value


# the two probes of the untraced run: tick edges and planner solves
PROBES = (
    Hook("sim", "rk4_step", "sim.rk4_step"),
    Hook("planner.planner", "Planner.plan_step", "planner.plan_step",
         plan_tag),
)

HOOKS = PROBES + (
    Hook("sim", "run", "sim.run"),
    Hook("dynamics", "forward_dynamics", "dynamics.forward_dynamics"),
    Hook("dynamics", "mass_matrix", "dynamics.mass_matrix"),
    Hook("dynamics", "inverse_dynamics", "dynamics.inverse_dynamics"),
    Hook("dynamics", "bias_forces", "dynamics.bias_forces"),
    Hook("dynamics", "mdot_qd", "dynamics.mdot_qd"),
    Hook("dynamics", "jacobian_dot_qd", "dynamics.jacobian_dot_qd"),
    Hook("model", "forward_kinematics", "model.forward_kinematics"),
    Hook("model", "body_jacobian", "model.body_jacobian"),
    Hook("geometry", "closest_pair_per_link",
         "geometry.closest_pair_per_link"),
    Hook("controller", "mode_step", "controller.mode_step", _mode_tag),
    Hook("controller", "usde_update", "controller.usde_update"),
    Hook("controller", "tracking_torque", "controller.tracking_torque"),
    Hook("controller", "contact_safe_torque",
         "controller.contact_safe_torque"),
    Hook("planner.transcription", "transcribe", "planner.transcribe",
         _problem_tag),
    Hook("planner.costs", "build_context", "planner.build_context"),
    Hook("planner.planner", "solve", "planner.solve"),
    Hook("planner.qp", "solve_qp", "planner.solve_qp"),
    Hook("planner.qp", "make_feasible", "planner.make_feasible"),
)

LAYERS = ("dynamics", "model", "geometry", "controller", "sim", "planner")

_PLANNER_SPANS = ("planner.plan_step", "planner.transcribe",
                  "planner.build_context", "planner.solve", "planner.solve_qp",
                  "model.forward_kinematics", "model.body_jacobian",
                  "geometry.closest_pair_per_link")

# spans that must be recorded at least once on each workload; a zero count
# there is a benchmark error.  make_feasible runs only when a warm start is
# infeasible, so it is never required.
REQUIRED = {
    "loop_push": tuple(h.name for h in HOOKS
                       if h.name != "planner.make_feasible"),
    "plan_ms": _PLANNER_SPANS,
    "plan_ss": _PLANNER_SPANS,
}

# name, unit: every per-layer metric, in output order
PER_LAYER = (
    ("dynamics.forward_dynamics.us", "us"),
    ("dynamics.forward_dynamics.per_tick", "1/tick"),
    ("dynamics.mass_matrix.us", "us"),
    ("dynamics.inverse_dynamics.us", "us"),
    ("dynamics.bias_forces.us", "us"),
    ("dynamics.mdot_qd.us", "us"),
    ("dynamics.jacobian_dot_qd.us", "us"),
    ("dynamics.passes_per_tick", "1/tick"),
    ("model.forward_kinematics.us", "us"),
    ("model.forward_kinematics.per_tick", "1/tick"),
    ("model.body_jacobian.us", "us"),
    ("geometry.closest_pair_per_link.us", "us"),
    ("geometry.closest_pair_per_link.per_tick", "1/tick"),
    ("controller.mode_step.us.tracking", "us"),
    ("controller.mode_step.us.contact", "us"),
    ("controller.usde_update.us", "us"),
    ("controller.tracking_torque.us", "us"),
    ("controller.contact_safe_torque.us", "us"),
    ("sim.rk4_step.us", "us"),
    ("sim.tick_self.us", "us"),
    ("planner.plan_step.ms", "ms"),
    ("planner.transcribe.ms", "ms"),
    ("planner.build_context.ms", "ms"),
    ("planner.solve_qp.ms", "ms"),
    ("planner.qp_iters_mean", "count"),
    ("planner.qp_iters_max", "count"),
    ("planner.make_feasible.calls", "1/solve"),
    ("planner.make_feasible.ms", "ms"),
    ("planner.solve.self_ms", "ms"),
    ("planner.distance_rows_mean", "count"),
    ("planner.n_vars", "count"),
) + tuple((f"self.{layer}.pct", "%") for layer in LAYERS) + (
    ("trace.overhead_pct", "%"),
)


def check_required(workload, names):
    """Raise :class:`HookError` when a required span was never recorded."""
    seen = set(names)
    missing = [n for n in REQUIRED[workload] if n not in seen]
    if missing:
        raise HookError(f"{workload}: hooked functions never called: "
                        f"{', '.join(missing)}")


def span_table(names, parent, start, end):
    """Rows (name, calls, total_ms, mean_us, self_ms) sorted by self time."""
    dur = end - start
    own = self_times(parent, start, end)
    rows = []
    for name in sorted(set(names)):
        m = names == name
        rows.append((name, int(m.sum()), 1e3 * dur[m].sum(),
                     1e6 * dur[m].mean(), 1e3 * own[m].sum()))
    rows.sort(key=lambda r: -r[4])
    return rows


def per_layer_metrics(names, parent, start, end, tags, ticks, traced_wall,
                      overhead_pct):
    """Every metric of ``PER_LAYER`` from the traced spans.

    ``ticks`` counts loop iterations in the traced run: control ticks on
    ``loop_push``, planning cycles on ``plan_*``.  ``traced_wall`` is the
    wall time the spans came from; ``overhead_pct`` is passed through.  A per-call time of a
    function the workload never calls reads 0; ``check_required`` has already
    failed the run if that function had to run.
    """
    dur = end - start
    own = self_times(parent, start, end)

    def sel(name):
        return names == name

    def mean(values, scale):
        return scale * float(values.mean()) if values.size else 0.0

    def us(name):
        return mean(dur[sel(name)], 1e6)

    def ms(name):
        return mean(dur[sel(name)], 1e3)

    def per_tick(name):
        return float(sel(name).sum()) / ticks

    plan_tags = [t for t, n in zip(tags, names) if n == "planner.plan_step"]
    iters = np.array([t[0] for t in plan_tags], dtype=float)
    problems = [t for t, n in zip(tags, names) if n == "planner.transcribe"]
    rows = np.array([p[1] for p in problems], dtype=float)
    n_vars = np.array([p[0] for p in problems], dtype=float)
    modes = np.array([t if n == "controller.mode_step" else ""
                      for t, n in zip(tags, names)], dtype=object)
    mode_step = sel("controller.mode_step")
    contact = mode_step & (modes == "CONTACT_SAFE")
    solve_ids = np.flatnonzero(sel("planner.solve"))
    main_qp = sel("planner.solve_qp") & np.isin(parent, solve_ids)
    n_solves = max(len(plan_tags), 1)

    out = {
        "dynamics.forward_dynamics.us": us("dynamics.forward_dynamics"),
        "dynamics.forward_dynamics.per_tick":
            per_tick("dynamics.forward_dynamics"),
        "dynamics.mass_matrix.us": us("dynamics.mass_matrix"),
        "dynamics.inverse_dynamics.us": us("dynamics.inverse_dynamics"),
        "dynamics.bias_forces.us": us("dynamics.bias_forces"),
        "dynamics.mdot_qd.us": us("dynamics.mdot_qd"),
        "dynamics.jacobian_dot_qd.us": us("dynamics.jacobian_dot_qd"),
        "dynamics.passes_per_tick": per_tick("dynamics.mass_matrix")
            + per_tick("dynamics.inverse_dynamics"),
        "model.forward_kinematics.us": us("model.forward_kinematics"),
        "model.forward_kinematics.per_tick":
            per_tick("model.forward_kinematics"),
        "model.body_jacobian.us": us("model.body_jacobian"),
        "geometry.closest_pair_per_link.us":
            us("geometry.closest_pair_per_link"),
        "geometry.closest_pair_per_link.per_tick":
            per_tick("geometry.closest_pair_per_link"),
        "controller.mode_step.us.tracking":
            mean(dur[mode_step & ~contact], 1e6),
        "controller.mode_step.us.contact": mean(dur[contact], 1e6),
        "controller.usde_update.us": us("controller.usde_update"),
        "controller.tracking_torque.us": us("controller.tracking_torque"),
        "controller.contact_safe_torque.us":
            us("controller.contact_safe_torque"),
        "sim.rk4_step.us": us("sim.rk4_step"),
        "sim.tick_self.us": 1e6 * float(own[sel("sim.run")].sum()) / ticks,
        "planner.plan_step.ms": ms("planner.plan_step"),
        "planner.transcribe.ms": ms("planner.transcribe"),
        "planner.build_context.ms": ms("planner.build_context"),
        "planner.solve_qp.ms": mean(dur[main_qp], 1e3),
        "planner.qp_iters_mean": float(iters.mean()) if iters.size else 0.0,
        "planner.qp_iters_max": float(iters.max()) if iters.size else 0.0,
        "planner.make_feasible.calls":
            float(sel("planner.make_feasible").sum()) / n_solves,
        "planner.make_feasible.ms": ms("planner.make_feasible"),
        "planner.solve.self_ms": mean(own[sel("planner.solve")], 1e3),
        "planner.distance_rows_mean":
            float(rows.mean()) if rows.size else 0.0,
        "planner.n_vars": float(n_vars.mean()) if n_vars.size else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    for layer in LAYERS:
        out[f"self.{layer}.pct"] = (
            100.0 * float(own[layer_of == layer].sum()) / traced_wall)
    return out
