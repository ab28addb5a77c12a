"""netred: clustering-based reduction of leader-follower networks.

Builds the full, reduced, auxiliary, and error realizations of a
diffusively coupled network, computes exact H2/H-infinity norms, and
evaluates a-priori reduction-error bounds for almost equitable partitions
(with a triangle-inequality route for arbitrary partitions).

The names below cover building a network and analysing it; the norm
engines, assembly routines and individual bounds live in their modules
(``netred.norms``, ``netred.netsys``, ``netred.bounds``, ...).
"""

from .bounds import Analysis, BoundReport, Tolerances, full_report
from .graphcore import Laplacian, Partition, WeightedGraph, laplacian_from_graph
from .netsys import AgentDynamics, NetworkSystem
from .norms import NormResult

__version__ = "0.1.0"

__all__ = [
    "AgentDynamics",
    "Analysis",
    "BoundReport",
    "Laplacian",
    "NetworkSystem",
    "NormResult",
    "Partition",
    "Tolerances",
    "WeightedGraph",
    "full_report",
    "laplacian_from_graph",
]
