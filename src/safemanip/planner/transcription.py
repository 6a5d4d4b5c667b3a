"""Transcription of the receding-horizon problem into a convex QP.

Every cycle builds one multiple-shooting QP: each node state is a decision
variable tied to its predecessor by defect equality rows, and the variable
order [x_0, u_0, x_1, u_1, ..., x_N] keeps the KKT system banded.  The
planner's dynamics are linear, so single shooting is this QP with the states
eliminated (Axehill, "Controlling the level of sparsity in MPC", Systems &
Control Letters 2015): both have the same optimum, and ``method: single``
builds and solves this same QP.  The QP carries no starting point: the dual
solver of ``qp.py`` starts from the minimizer under the equality rows alone.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from ..model import RobotModel
from ..se3 import Pose
from .config import MpcConfig
from .costs import PlannerContext, build_context

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PlannerInput:
    """Measured state plus task for one planning cycle."""

    x0: np.ndarray
    T_ref: Pose
    obstacles: tuple = ()
    posture_target: object = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.posture_target is not None:
            object.__setattr__(
                self, "posture_target",
                np.asarray(self.posture_target, dtype=float).reshape(-1))


@dataclass
class MpcProblem:
    n: int
    N: int
    dt: float
    context: PlannerContext
    H: object
    g: np.ndarray
    cost_offset: float  # c in the plan's cost 0.5 z'Hz + g'z + c
    A_eq: object
    b_eq: np.ndarray
    A_in: object
    b_in: np.ndarray
    n_distance_rows: int
    x0: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.g.size

    def split(self, z: np.ndarray):
        """Decision vector -> (X: (N+1, 2n), U: (N, n))."""
        n, N = self.n, self.N
        z = np.asarray(z, dtype=float).reshape(-1)
        nodes = np.concatenate([z, np.zeros(n)]).reshape(N + 1, 3 * n)
        return nodes[:, :2 * n].copy(), nodes[:N, 2 * n:].copy()


def _clamp_state(model: RobotModel, x0: np.ndarray, dt: float) -> np.ndarray:
    n = model.n
    lo, hi = model.limits.position_lower, model.limits.position_upper
    q = np.clip(x0[:n], lo, hi)
    qd = np.clip(x0[n:], -model.limits.velocity, model.limits.velocity)
    # cap outward velocity at the discrete stopping distance: from the box
    # boundary with outward speed v the best brake still overshoots by
    # v^2/2a + v dt/2, so any larger v makes the node position rows
    # infeasible for every input sequence
    a = model.limits.acceleration
    half = 0.5 * dt * a
    cap_hi = np.sqrt(half ** 2 + 2.0 * a * (hi - q)) - half
    cap_lo = np.sqrt(half ** 2 + 2.0 * a * (q - lo)) - half
    qd = np.clip(qd, -cap_lo, cap_hi)
    if not np.allclose(np.concatenate([q, qd]), x0):
        log.warning("measured state outside the feasible envelope; clamped")
    return np.concatenate([q, qd])


def _place(groups, n: int, N: int):
    """Stack row groups into one sparse matrix over the node layout.

    A group is (rows, nodes): the block ``rows`` is repeated on each of
    ``nodes`` in turn, its column c reading the variable c places after the
    start of that node, so a block wider than a node reaches into the next.
    """
    ii, jj, vv = [], [], []
    m = 0
    for rows, nodes in groups:
        nodes = np.asarray(nodes)[:, None]
        r, c = np.nonzero(rows)
        ii.append((m + len(rows) * np.arange(nodes.size)[:, None] + r).ravel())
        jj.append((3 * n * nodes + c).ravel())
        vv.append(np.tile(rows[r, c], nodes.size))
        m += len(rows) * nodes.size
    return sp.csr_matrix(
        (np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))),
        shape=(m, N * 3 * n + 2 * n))


def _cost(ctx: PlannerContext, N: int):
    """Block-diagonal H, g and the constant c over the node layout: the cost
    of the plan z is 0.5 z'Hz + g'z + c.  Each term |b - A x|^2_W of the
    horizon sum contributes A'WA to H/2, -A'Wb to g/2 and b'Wb to c."""
    n = ctx.q.size
    J = ctx.J_task
    b_ee = ctx.V_ref + J @ ctx.q
    Pv_stage = 2.0 * np.diag(ctx.Q_s)
    gv_stage = np.zeros(n)
    c_stage = float(b_ee @ (ctx.W_stage * b_ee))
    targets = [(rep.qd_target, ctx.Q_rep) for rep in ctx.repulsions]
    if ctx.qd_return is not None:
        targets.append((ctx.qd_return, ctx.Q_return))
    for target, Q in targets:
        NQ = ctx.N_t.T * Q
        Nt = ctx.N_t @ target
        Pv_stage += 2.0 * NQ @ ctx.N_t
        gv_stage += -2.0 * NQ @ Nt
        c_stage += float(Nt @ (Q * Nt))
    stage = scipy.linalg.block_diag(
        2.0 * (J.T * ctx.W_stage) @ J, Pv_stage, 2.0 * np.diag(ctx.R))
    terminal = scipy.linalg.block_diag(
        2.0 * (J.T * ctx.W_terminal) @ J, 2.0 * np.diag(ctx.Q_s_terminal))
    H = _place([(stage, range(N)), (terminal, [N])], n, N)
    g_stage = np.concatenate([-2.0 * J.T @ (ctx.W_stage * b_ee), gv_stage,
                              np.zeros(n)])
    g = np.concatenate([np.tile(g_stage, N),
                        -2.0 * J.T @ (ctx.W_terminal * b_ee), np.zeros(n)])
    c = N * c_stage + float(b_ee @ (ctx.W_terminal * b_ee))
    return H, g, c


def _equality_rows(x0: np.ndarray, N: int, dt: float):
    """Initial pin x_0 = x0, then defects x_{k+1} - F x_k - G u_k = 0."""
    n = x0.size // 2
    F = np.eye(2 * n)
    F[:n, n:] = dt * np.eye(n)
    G = np.zeros((2 * n, n))
    G[n:, :] = dt * np.eye(n)
    pin = np.eye(2 * n)
    step = np.hstack([-F, -G, np.eye(2 * n)])  # from x_k, u_k into x_{k+1}
    A_eq = _place([(pin, [0]), (step, range(N))], n, N)
    return A_eq, np.concatenate([x0, np.zeros(N * 2 * n)])


def _inequality_rows(model: RobotModel, cfg: MpcConfig, ctx: PlannerContext):
    """A_in z >= b_in: velocity box on nodes 1..N, position box on nodes 2..N
    (q_1 = q_0 + dt qd_0 is fixed by the pin, so no decision variable can act
    on a node-1 position row), input boxes, distance rows from node 2."""
    n, N = model.n, cfg.horizon
    lo, hi = model.limits.position_lower, model.limits.position_upper
    vmax, amax = model.limits.velocity, model.limits.acceleration
    # one node's box, per joint: q >= lo, -q >= -hi, qd >= -vmax, -qd >= -vmax
    box = np.zeros((4 * n, 2 * n))
    box[np.arange(4 * n), np.repeat(np.arange(n), 4) + np.tile([0, 0, n, n], n)] = \
        np.tile([1.0, -1.0, 1.0, -1.0], n)
    box_b = np.column_stack([lo, -hi, -vmax, -vmax]).ravel()
    is_q = np.tile([True, True, False, False], n)
    # per joint: u >= -amax, -u >= -amax
    inputs = np.zeros((2 * n, 3 * n))
    inputs[np.arange(2 * n), 2 * n + np.repeat(np.arange(n), 2)] = \
        np.tile([1.0, -1.0], n)
    # (rows on one node, right-hand sides, nodes)
    groups = [(box[~is_q], box_b[~is_q], [1]),
              (box, box_b, range(2, N + 1)),
              (inputs, np.repeat(-amax, 2), range(N))]
    for row in ctx.distance_rows:
        rhs = cfg.d_th1 - row.distance + float(row.gradient @ ctx.q)
        groups.append((row.gradient[None], [rhs], range(2, N + 1)))
    A_in = _place([(rows, nodes) for rows, _, nodes in groups], n, N)
    b_in = np.concatenate([np.tile(b, len(nodes)) for _, b, nodes in groups])
    return A_in, b_in


def transcribe(inp: PlannerInput, cfg: MpcConfig, model: RobotModel) -> MpcProblem:
    n, N, dt = model.n, cfg.horizon, cfg.dt
    x0 = _clamp_state(model, inp.x0, dt)
    ctx = build_context(model, x0[:n], x0[n:], inp.T_ref, inp.obstacles, cfg,
                        posture_target=inp.posture_target)
    H, g, c = _cost(ctx, N)
    A_in, b_in = _inequality_rows(model, cfg, ctx)
    A_eq, b_eq = _equality_rows(x0, N, dt)
    return MpcProblem(n=n, N=N, dt=dt, context=ctx,
                      H=H, g=g, cost_offset=c, A_eq=A_eq, b_eq=b_eq,
                      A_in=A_in, b_in=b_in,
                      n_distance_rows=len(ctx.distance_rows) * (N - 1),
                      x0=x0)
