"""Planner configuration with the published defaults."""

from dataclasses import dataclass, field, fields

import numpy as np

from ..robots import fail, integer, number, vector


def _diag6(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.full(6, arr[0])
    if arr.shape != (6,):
        raise ValueError(f"expected scalar or 6 diagonal entries, got shape {arr.shape}")
    return arr


def _typed(value, kind, where):
    if kind is int:
        return integer(value, where)
    if kind is float:
        return number(value, where)
    if kind is np.ndarray:
        return vector(value, None, where)
    if kind is bool and not isinstance(value, bool):
        fail(where, f"expected true or false, got {value!r}")
    return value


@dataclass(frozen=True)
class MpcConfig:
    """Receding-horizon problem parameters.

    Weights are stored as diagonal entries; scalars broadcast.  ``q_rep``,
    ``q_s`` and ``r`` expand to the joint dimension when the problem is built.
    ``task_selection`` is the 0/1 diagonal that picks which twist components
    the task cost acts on.  ``method`` names one QP: single shooting is the
    multiple-shooting QP with the states eliminated, so both solve the
    multiple-shooting QP and return the same plan; the name is kept for the
    logs.
    """

    horizon: int = 50
    dt: float = 0.05
    q_ee: np.ndarray = field(default_factory=lambda: np.ones(6))
    q_rep: float = 0.01
    q_s: float = 0.01
    r: float = 1e-9
    q_ee_terminal: np.ndarray = field(default_factory=lambda: np.ones(6))
    q_s_terminal: float = 10.0
    task_selection: np.ndarray = field(default_factory=lambda: np.ones(6))
    d_th1: float = 0.02
    d_th2: float = 0.1
    k_rep: float = 2.0
    alpha: float = 2.0
    activation_radius: float = 0.5
    k_return: float = 2.0
    q_return: float = 1.0
    method: str = "multiple"
    task_oriented: bool = True
    kkt_tol: float = 1e-8
    defect_tol: float = 1e-8
    constraint_tol: float = 1e-6
    max_iters: int = 200

    def __post_init__(self):
        object.__setattr__(self, "q_ee", _diag6(self.q_ee))
        object.__setattr__(self, "q_ee_terminal", _diag6(self.q_ee_terminal))
        object.__setattr__(self, "task_selection", _diag6(self.task_selection))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name in ("q_rep", "q_s", "r", "q_s_terminal", "k_return", "q_return"):
            if float(getattr(self, name)) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if np.any(self.q_ee < 0.0) or np.any(self.q_ee_terminal < 0.0):
            raise ValueError("task weights must be >= 0 on the diagonal")
        if not 0.0 < self.d_th1 < self.d_th2:
            raise ValueError(
                f"need 0 < d_th1 < d_th2, got {self.d_th1}, {self.d_th2}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.k_rep < 0.0:
            raise ValueError(f"k_rep must be >= 0, got {self.k_rep}")
        if not np.all(np.isin(self.task_selection, (0.0, 1.0))):
            raise ValueError("task_selection entries must be 0 or 1")
        if self.method not in ("multiple", "single"):
            raise ValueError(f"method must be 'multiple' or 'single', got {self.method!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "MpcConfig":
        """The config of a ``planner`` section; a value of the wrong type
        raises InputFileError naming ``planner.<key>``."""
        if not isinstance(doc, dict):
            raise ValueError("planner config must be a mapping")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(doc) - set(types) - {"N"}
        if unknown:
            raise ValueError(
                f"unknown planner config keys: {sorted(unknown)} "
                f"(known: {sorted(types)} plus alias N)")
        types["N"] = int
        doc = {key: _typed(value, types[key], f"planner.{key}")
               for key, value in doc.items()}
        if "N" in doc:
            if "horizon" in doc:
                raise ValueError("give either N or horizon, not both")
            doc["horizon"] = doc.pop("N")
        return cls(**doc)

    def stage_weights(self, n: int):
        """Per-joint diagonal weights (q_rep, q_s, r) expanded to size n."""
        return (np.full(n, float(self.q_rep)), np.full(n, float(self.q_s)),
                np.full(n, float(self.r)))
