"""From-scratch graph kernels behind the adaptation planner.

The Safe Adaptation Graph (paper §3.1/§4.2) needs single-pair shortest
paths (the Minimum Adaptation Path), k-shortest loopless paths (the
failure-handling cascade's "second minimum adaptation path", §4.4), and
partial exploration that never materializes the whole SAG (§7).  The
planner runs one engine per question, over int configuration masks:

* :class:`CSRGraph` / :class:`ShortestPathTree` — Dijkstra over
  compressed-sparse-row arrays (the per-set distance tables' reverse
  searches), and its resumable single-source tree;
* :func:`~repro.graphs.astar.astar_cost` and
  :func:`~repro.graphs.astar.corridor_search` — the exact two-phase
  search over an implicit successor function;
* :class:`~repro.graphs.yen.YenState` — Yen's candidate loop for one
  pair, resumable one path at a time, whose spurs run that two-phase
  search.

:class:`Digraph` is the generic labelled multigraph (``sag.graph``,
:meth:`CSRGraph.from_digraph`); :class:`Path` is every engine's result.
The textbook dict-graph Dijkstra, Yen and A*, and Yen's former one-shot
candidate loop, are test oracles
(``tests/oracles/graph_reference.py``), not product engines.
"""

from repro.graphs.digraph import Digraph, Edge, Path
from repro.graphs.csr import CSRGraph, ShortestPathTree

__all__ = [
    "Digraph",
    "Edge",
    "Path",
    "CSRGraph",
    "ShortestPathTree",
]
