from .config import MpcConfig
from .costs import (
    PlannerContext,
    build_context,
    predicted_twist,
    reference_twist,
    relaxation_factor,
    repulsive_velocity,
    shooting_defects,
    stage_cost,
    terminal_cost,
)
from .planner import MpcSolution, Planner, PlannerInput, solve
from .transcription import MpcProblem, transcribe

__all__ = [
    "MpcConfig",
    "PlannerContext",
    "build_context",
    "reference_twist",
    "predicted_twist",
    "relaxation_factor",
    "repulsive_velocity",
    "stage_cost",
    "terminal_cost",
    "shooting_defects",
    "MpcProblem",
    "transcribe",
    "MpcSolution",
    "PlannerInput",
    "Planner",
    "solve",
]
