"""From-scratch graph algorithms used by the adaptation planner.

The Safe Adaptation Graph (paper §3.1/§4.2) needs single-pair shortest
paths (Dijkstra, for the Minimum Adaptation Path), k-shortest loopless
paths (Yen, for the failure-handling cascade "try the second minimum
adaptation path"), and best-first partial exploration (A*, the paper's
§7 future-work heuristic that avoids materializing the whole SAG).

All algorithms work over a generic :class:`Digraph` with labelled weighted
edges; nodes may be any hashable value (the planner uses frozensets of
component names).
"""

from repro.graphs.digraph import Digraph, Edge
from repro.graphs.dijkstra import Path, dijkstra, shortest_path
from repro.graphs.yen import k_shortest_paths
from repro.graphs.astar import astar_path, lazy_astar
from repro.graphs.csr import (
    CSRGraph,
    ShortestPathTree,
    k_shortest_paths_csr,
)

__all__ = [
    "Digraph",
    "Edge",
    "Path",
    "dijkstra",
    "shortest_path",
    "k_shortest_paths",
    "astar_path",
    "lazy_astar",
    "CSRGraph",
    "ShortestPathTree",
    "k_shortest_paths_csr",
]
