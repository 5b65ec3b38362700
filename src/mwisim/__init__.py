"""Round-synchronous CONGEST/LOCAL simulation and distributed MaxIS approximation."""

from .engine import (CongestViolation, EngineError, NodeContext,
                     RoundLimitExceeded, RoundStats, StepResult,
                     message_budget_bits, run, run_on_subgraph)
from .graphs import (BruteForceCapError, GraphError, GraphParseError,
                     IndependentSet, WeightedGraph, brute_force_max_is,
                     degeneracy, generate, load, random_tree, save)
from .wire import Message, WireError

__all__ = [
    "BruteForceCapError", "CongestViolation", "EngineError",
    "GraphError", "GraphParseError", "IndependentSet", "Message",
    "NodeContext", "RoundLimitExceeded", "RoundStats", "StepResult",
    "WeightedGraph", "WireError", "brute_force_max_is", "degeneracy",
    "generate", "load", "message_budget_bits", "random_tree", "run",
    "run_on_subgraph", "save",
]

__version__ = "0.1.0"
