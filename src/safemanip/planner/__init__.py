from .config import MpcConfig
from .planner import Planner

__all__ = ["MpcConfig", "Planner"]
