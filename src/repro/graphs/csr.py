"""CSR-compiled graph kernel: the amortized query engine over a frozen graph.

A :class:`Digraph` answers one shortest-path query fine, but serving many
``(source, target)`` requests against one Safe Adaptation Graph pays dict
hashing and node interning on every call.  :class:`CSRGraph` holds a
*frozen* graph as int-indexed compressed-sparse-row arrays —
``offsets``/``targets``/``weights`` plus a per-edge label index — so
every search runs on machine scalars and array indexing.  It is
compiled from a :class:`Digraph` (:meth:`CSRGraph.from_digraph`) or
written directly by a builder that never makes one (the Safe Adaptation
Graph does).

Kernels provided:

* :func:`csr_dijkstra` — scalar-heap Dijkstra over node indices, with the
  **same deterministic tie-break** as the dict-graph reference Dijkstra
  in ``tests/oracles/graph_reference.py`` (cost, then hop count, then
  relaxation order): the property suite pins distances *and*
  predecessor paths to it.
* :meth:`CSRGraph.shortest_path_tree` — a resumable single-source
  shortest-path *tree* (:class:`ShortestPathTree`): each query settles
  the search only as far as its target, later queries resume it, and a
  settled target's ``path_to`` is O(path length).  The planner grows
  none: it reads MAPs off per-set distance tables, each one reverse
  :func:`csr_dijkstra` over a collaborative set's sub-SAG
  (:class:`repro.core.collaborative.SetDistanceHeuristic`); trees serve
  the monolithic baselines of the benchmarks.

k-best queries are not a kernel here: the planner's Yen spurs run the
two-phase corridor search of :mod:`repro.graphs.astar` over the SAG's
arrays read as a successor function
(:attr:`repro.core.sag.SafeAdaptationGraph.successors`), each spur's
bans applied at its source.  The former banned-set Dijkstra Yen is the test
oracle ``tests/oracles/csr_yen_reference.py``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.graphs.digraph import Digraph, Edge, Path

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)

_INF = float("inf")


class CSRGraph(Generic[N, L]):
    """A frozen digraph compiled to compressed-sparse-row arrays.

    Node objects are interned once at compile time; all kernels run over
    dense int indices.  Edge ``e`` leaves the node whose ``offsets``
    range holds it, enters ``targets[e]``, weighs ``weights[e]`` and
    carries the label ``labels[label_ids[e]]``.  Per-source edge order
    preserves the digraph's insertion order, which is what keeps every
    tie-break bit-identical to the dict-graph algorithms.  :class:`Edge`
    objects are made only for the edges of returned paths.
    """

    def __init__(
        self,
        nodes: Tuple[N, ...],
        index_of: Dict[N, int],
        offsets: Sequence[int],
        targets: Sequence[int],
        weights: Sequence[float],
        label_ids: Sequence[int],
        labels: Tuple[L, ...],
    ):
        self.nodes = nodes
        self.index_of = index_of
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.label_ids = label_ids
        self.labels = labels

    @classmethod
    def from_digraph(cls, graph: Digraph[N, L]) -> "CSRGraph[N, L]":
        """Compile *graph*; node indices follow its insertion order."""
        nodes = tuple(graph.nodes())
        index_of = {node: i for i, node in enumerate(nodes)}
        offsets = [0]
        targets: List[int] = []
        weights: List[float] = []
        label_ids: List[int] = []
        label_index: Dict[L, int] = {}
        for node in nodes:
            for edge in graph.adjacency(node):
                targets.append(index_of[edge.target])
                weights.append(edge.weight)
                label_ids.append(label_index.setdefault(edge.label, len(label_index)))
            offsets.append(len(targets))
        labels = tuple(label_index)
        return cls(nodes, index_of, offsets, targets, weights, label_ids, labels)

    # -- structure -------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.targets)

    def __contains__(self, node: N) -> bool:
        return node in self.index_of

    def edge_source_index(self, edge_id: int) -> int:
        return bisect_right(self.offsets, edge_id) - 1

    def edge_label(self, edge_id: int) -> L:
        return self.labels[self.label_ids[edge_id]]

    def edge(self, edge_id: int) -> Edge[N, L]:
        """Edge *edge_id* as an :class:`Edge` (made on each call)."""
        return Edge(
            self.nodes[self.edge_source_index(edge_id)],
            self.nodes[self.targets[edge_id]],
            self.edge_label(edge_id),
            self.weights[edge_id],
        )

    @property
    def edge_objects(self) -> Tuple[Edge[N, L], ...]:
        """Every edge as an :class:`Edge`, in edge-id order."""
        return tuple(map(self.edge, range(self.edge_count)))

    # -- query front ends --------------------------------------------------------
    def shortest_path_tree(self, source: N) -> "ShortestPathTree[N, L]":
        """Resumable single-source shortest-path tree rooted at *source*."""
        return ShortestPathTree(self, self.index_of[source])


def _settle(
    csr: CSRGraph[N, L], heap: list, dist: List[float], hops: List[int],
    pred: List[int], settled: bytearray, counter: int, stop: int = -1,
) -> int:
    """Run Dijkstra on the given search state until node *stop* is settled.

    Pops, settles and relaxes exactly as a fresh search would, stopping
    right after *stop*'s out-edges are relaxed (or when the heap empties;
    ``stop=-1`` runs to exhaustion).  The state is left consistent, so a
    later call with the same arrays resumes the very same pop sequence.
    Returns the updated heap tie-break counter.
    """
    offsets = csr.offsets
    targets = csr.targets
    weights = csr.weights
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        cost, nhops, _, index = pop(heap)
        if settled[index]:
            continue
        settled[index] = 1
        for edge_id in range(offsets[index], offsets[index + 1]):
            neighbour = targets[edge_id]
            if settled[neighbour]:
                continue
            candidate = cost + weights[edge_id]
            candidate_hops = nhops + 1
            best = dist[neighbour]
            if candidate < best or (
                candidate == best and candidate_hops < hops[neighbour]
            ):
                dist[neighbour] = candidate
                hops[neighbour] = candidate_hops
                pred[neighbour] = edge_id
                counter += 1
                push(heap, (candidate, candidate_hops, counter, neighbour))
        if index == stop:
            break
    return counter


def csr_dijkstra(
    csr: CSRGraph[N, L],
    source_index: int,
    target: Optional[int] = None,
) -> Tuple[List[float], List[int], List[int]]:
    """Scalar-heap Dijkstra over node indices.

    Returns ``(dist, hops, pred)`` arrays indexed by node: minimal cost
    (``inf`` if unreached), hop count of the chosen minimal path, and the
    edge id of its final edge (-1 at the source and unreached nodes).
    With a *target*, only the entries of settled nodes (the target and
    its predecessor chain among them) are final.

    The relaxation rule replicates the reference dict-graph Dijkstra
    exactly — prefer lower cost, then fewer hops, then earlier relaxation
    order — so predecessor trees match the dict-graph reference node for
    node.
    """
    n = csr.node_count
    dist = [_INF] * n
    hops = [0] * n
    pred = [-1] * n
    dist[source_index] = 0.0
    stop = -1 if target is None else target
    heap = [(0.0, 0, 0, source_index)]
    _settle(csr, heap, dist, hops, pred, bytearray(n), 0, stop)
    return dist, hops, pred


def reconstruct_path(
    csr: CSRGraph[N, L],
    source_index: int,
    target_index: int,
    dist: Sequence[float],
    pred: Sequence[int],
) -> Optional[Path[N, L]]:
    """Walk the predecessor array back from *target_index* (or ``None``)."""
    if dist[target_index] == _INF:
        return None
    edge_ids: List[int] = []
    index = target_index
    while index != source_index:
        edge_id = pred[index]
        edge_ids.append(edge_id)
        index = csr.edge_source_index(edge_id)
    edges = tuple(csr.edge(edge_id) for edge_id in reversed(edge_ids))
    nodes = (csr.nodes[source_index],) + tuple(edge.target for edge in edges)
    return Path(nodes=nodes, edges=edges, cost=dist[target_index])


class ShortestPathTree(Generic[N, L]):
    """A resumable single-source Dijkstra; path extraction is O(|path|).

    Creating a tree settles nothing.  :meth:`path_to` and
    :meth:`distance_to` run the :func:`csr_dijkstra` search only until
    their node is settled, and :meth:`reachable` runs it to exhaustion.
    The paused heap, ``dist``, ``hops``, ``pred`` and ``settled`` state
    persists, so a later query — another target of a
    :meth:`AdaptationPlanner.plan_many
    <repro.core.planner.AdaptationPlanner.plan_many>` batch, the §4.4
    replan cascade — resumes the search where the last one stopped.  The
    pop and relax sequence is the one-shot search's, so every settled
    node's entry (tie-breaks included) equals the full tree's.

    Queries mutate the tree: callers sharing one serialize their queries
    (the planner's cold path runs under its spec's lock).
    """

    __slots__ = (
        "csr", "source_index", "dist", "hops", "pred", "settled", "_heap", "_counter",
    )

    def __init__(self, csr: CSRGraph[N, L], source_index: int):
        n = csr.node_count
        self.csr = csr
        self.source_index = source_index
        self.dist = [_INF] * n
        self.dist[source_index] = 0.0
        self.hops = [0] * n
        self.pred = [-1] * n
        self.settled = bytearray(n)
        self._heap: list = [(0.0, 0, 0, source_index)]
        self._counter = 0

    @property
    def source(self) -> N:
        return self.csr.nodes[self.source_index]

    def _settle_to(self, index: int) -> None:
        """Resume the search until *index* is settled (-1: exhaust it)."""
        if self._heap and (index < 0 or not self.settled[index]):
            self._counter = _settle(
                self.csr, self._heap, self.dist, self.hops, self.pred,
                self.settled, self._counter, index,
            )

    def distance_to(self, node: N) -> Optional[float]:
        """Minimal cost to *node*, or ``None`` if unreachable."""
        index = self.csr.index_of[node]
        self._settle_to(index)
        value = self.dist[index]
        return None if value == _INF else value

    def path_to(self, node: N) -> Optional[Path[N, L]]:
        """The minimum-cost path to *node* (``None`` if unreachable).

        Matches the reference dict-graph Dijkstra from the
        tree's source — same cost, same nodes, same edge tie-breaks.
        """
        index = self.csr.index_of[node]
        self._settle_to(index)
        return reconstruct_path(self.csr, self.source_index, index, self.dist, self.pred)

    def reachable(self) -> Dict[N, float]:
        """All reachable nodes with their minimal costs."""
        self._settle_to(-1)
        return {
            node: value
            for node, value in zip(self.csr.nodes, self.dist)
            if value != _INF
        }

