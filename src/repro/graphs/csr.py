"""CSR-compiled graph kernel: the amortized query engine over a frozen graph.

A :class:`Digraph` answers one shortest-path query fine, but serving many
``(source, target)`` requests against one Safe Adaptation Graph pays dict
hashing and node interning on every call.  :class:`CSRGraph` holds a
*frozen* graph as int-indexed compressed-sparse-row arrays —
``offsets``/``targets``/``weights`` plus a per-edge label index, and a
reverse CSR for inbound edges built on first use — so every search runs
on machine scalars and array indexing.  It is compiled from a
:class:`Digraph` (:meth:`CSRGraph.from_digraph`) or written directly by
a builder that never makes one (the Safe Adaptation Graph does).

Kernels provided:

* :func:`csr_dijkstra` — scalar-heap Dijkstra over node indices, with the
  **same deterministic tie-break** as :func:`repro.graphs.dijkstra.dijkstra`
  (cost, then hop count, then relaxation order): the property suite pins
  distances *and* predecessor paths to the dict-graph reference.
* :meth:`CSRGraph.shortest_path_tree` — a resumable single-source
  shortest-path *tree* (:class:`ShortestPathTree`): each query settles
  the search only as far as its target, later queries resume it, and a
  settled target's ``path_to`` is O(path length).  This is what makes
  batched multi-source MAP solving amortized: one tree serves every
  request that shares its source, and a lone request pays for one path.
* :func:`bidirectional_shortest_path` — point-to-point search expanding
  forward and reverse frontiers alternately; settles roughly the union of
  two half-radius balls instead of one full ball.  Costs match Dijkstra
  exactly; the concrete path may differ between equal-cost optima.
* :func:`k_shortest_paths_csr` — Yen's algorithm with per-query edge/node
  ban sets instead of pruned graph copies; output is identical to
  :func:`repro.graphs.yen.k_shortest_paths`.

Optional ``banned_nodes``/``banned_edges`` sets on the Dijkstra kernel
subtract vertices and ``(source, label)`` arcs without copying the graph —
the CSR replacement for :meth:`Digraph.subgraph_without`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from typing import (
    AbstractSet,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.graphs.digraph import Digraph, Edge
from repro.graphs.dijkstra import Path
from repro.graphs.yen import extend_k_shortest

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
    objects are made only for the edges of returned paths, and the
    reverse CSR is built on first use.
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
        self._label_cache: Dict[Tuple[int, L], Tuple[int, ...]] = {}

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

    @cached_property
    def roffsets(self) -> List[int]:
        """Reverse CSR: node ``i``'s inbound edge ids are
        ``redges[roffsets[i]:roffsets[i + 1]]`` (built on first use)."""
        indegree = [0] * len(self.nodes)
        for target in self.targets:
            indegree[target] += 1
        return [0, *accumulate(indegree)]

    @cached_property
    def redges(self) -> List[int]:
        """Edge ids grouped by target, ascending within each group."""
        return sorted(range(self.edge_count), key=self.targets.__getitem__)

    def edges_labelled(self, source_index: int, label: L) -> Tuple[int, ...]:
        """Ids of the parallel arcs from *source_index* carrying *label*.

        Cached: Yen bans the same ``(source, label)`` pairs across many
        spur queries.
        """
        key = (source_index, label)
        cached = self._label_cache.get(key)
        if cached is None:
            cached = tuple(
                edge_id
                for edge_id in range(
                    self.offsets[source_index], self.offsets[source_index + 1]
                )
                if self.edge_label(edge_id) == label
            )
            self._label_cache[key] = cached
        return cached

    # -- query front ends --------------------------------------------------------
    def shortest_path_tree(self, source: N) -> "ShortestPathTree[N, L]":
        """Resumable single-source shortest-path tree rooted at *source*."""
        return ShortestPathTree(self, self.index_of[source])

    def shortest_path(self, source: N, target: N) -> Optional[Path[N, L]]:
        """Point-to-point query with early termination at *target*.

        Identical output to :func:`repro.graphs.dijkstra.shortest_path`
        on the uncompiled graph.
        """
        source_index = self.index_of[source]
        target_index = self.index_of[target]
        dist, _, pred = csr_dijkstra(self, source_index, target=target_index)
        return reconstruct_path(self, source_index, target_index, dist, pred)


def _settle(
    csr: CSRGraph[N, L], heap: list, dist: List[float], hops: List[int],
    pred: List[int], settled: bytearray, counter: int, stop: int = -1,
    banned_nodes: Optional[AbstractSet[int]] = None,
    banned_edges: Optional[AbstractSet[int]] = None,
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
            if banned_edges is not None and edge_id in banned_edges:
                continue
            neighbour = targets[edge_id]
            if settled[neighbour]:
                continue
            if banned_nodes is not None and neighbour in banned_nodes:
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
    banned_nodes: Optional[AbstractSet[int]] = None,
    banned_edges: Optional[AbstractSet[int]] = None,
) -> Tuple[List[float], List[int], List[int]]:
    """Scalar-heap Dijkstra over node indices.

    Returns ``(dist, hops, pred)`` arrays indexed by node: minimal cost
    (``inf`` if unreached), hop count of the chosen minimal path, and the
    edge id of its final edge (-1 at the source and unreached nodes).
    With a *target*, only the entries of settled nodes (the target and
    its predecessor chain among them) are final.

    The relaxation rule replicates :func:`repro.graphs.dijkstra.dijkstra`
    exactly — prefer lower cost, then fewer hops, then earlier relaxation
    order — so predecessor trees match the dict-graph reference node for
    node.  *banned_nodes*/*banned_edges* subtract vertices and edge ids
    without touching the arrays (Yen's spur queries).
    """
    n = csr.node_count
    dist = [_INF] * n
    hops = [0] * n
    pred = [-1] * n
    dist[source_index] = 0.0
    stop = -1 if target is None else target
    heap = [(0.0, 0, 0, source_index)]
    _settle(csr, heap, dist, hops, pred, bytearray(n), 0, stop, banned_nodes, banned_edges)
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

        Matches :func:`repro.graphs.dijkstra.shortest_path` from the
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


def bidirectional_shortest_path(
    csr: CSRGraph[N, L], source: N, target: N
) -> Optional[Path[N, L]]:
    """Point-to-point search meeting in the middle.

    Expands the smaller of the forward frontier (over the CSR) and the
    reverse frontier (over the reverse CSR) until their radii cover the
    best known connection.  The returned cost always equals plain
    Dijkstra's; among equal-cost optima the concrete path is chosen by
    (cost, total hops) at the meeting node, which may legitimately differ
    from the forward-search tie-break.
    """
    source_index = csr.index_of[source]
    target_index = csr.index_of[target]
    if source_index == target_index:
        return Path(nodes=(source,), edges=(), cost=0.0)
    n = csr.node_count
    offsets, targets, weights = csr.offsets, csr.targets, csr.weights
    roffsets, redges = csr.roffsets, csr.redges
    edge_source_index = csr.edge_source_index

    dist_f = [_INF] * n
    dist_b = [_INF] * n
    hops_f = [0] * n
    hops_b = [0] * n
    pred_f = [-1] * n
    pred_b = [-1] * n
    settled_f = bytearray(n)
    settled_b = bytearray(n)
    dist_f[source_index] = 0.0
    dist_b[target_index] = 0.0
    heap_f: list = [(0.0, 0, 0, source_index)]
    heap_b: list = [(0.0, 0, 0, target_index)]
    counters = [0, 0]
    best_cost = _INF
    best_hops = 0
    meet = -1

    def consider(node: int) -> None:
        nonlocal best_cost, best_hops, meet
        df, db = dist_f[node], dist_b[node]
        if df == _INF or db == _INF:
            return
        total = df + db
        total_hops = hops_f[node] + hops_b[node]
        if total < best_cost or (total == best_cost and total_hops < best_hops):
            best_cost = total
            best_hops = total_hops
            meet = node

    while heap_f and heap_b:
        # The search is complete once the two radii cover the best
        # connection: no unsettled node can improve on best_cost.
        if heap_f[0][0] + heap_b[0][0] >= best_cost:
            break
        forward = heap_f[0][0] <= heap_b[0][0]
        heap = heap_f if forward else heap_b
        settled = settled_f if forward else settled_b
        dist = dist_f if forward else dist_b
        hops = hops_f if forward else hops_b
        pred = pred_f if forward else pred_b
        cost, nhops, _, index = heapq.heappop(heap)
        if settled[index]:
            continue
        settled[index] = 1
        consider(index)
        if forward:
            edge_range = range(offsets[index], offsets[index + 1])
        else:
            edge_range = (
                redges[slot] for slot in range(roffsets[index], roffsets[index + 1])
            )
        for edge_id in edge_range:
            neighbour = targets[edge_id] if forward else edge_source_index(edge_id)
            if settled[neighbour]:
                continue
            candidate = cost + weights[edge_id]
            candidate_hops = nhops + 1
            if candidate < dist[neighbour] or (
                candidate == dist[neighbour] and candidate_hops < hops[neighbour]
            ):
                dist[neighbour] = candidate
                hops[neighbour] = candidate_hops
                pred[neighbour] = edge_id
                side = 0 if forward else 1
                counters[side] += 1
                heapq.heappush(
                    heap, (candidate, candidate_hops, counters[side], neighbour)
                )
                consider(neighbour)

    if meet < 0:
        return None
    forward_half = reconstruct_path(csr, source_index, meet, dist_f, pred_f)
    assert forward_half is not None
    edges = list(forward_half.edges)
    index = meet
    while index != target_index:
        edge_id = pred_b[index]
        edges.append(csr.edge(edge_id))
        index = csr.targets[edge_id]
    nodes = (csr.nodes[source_index],) + tuple(edge.target for edge in edges)
    return Path(nodes=nodes, edges=tuple(edges), cost=best_cost)


def k_shortest_paths_csr(
    csr: CSRGraph[N, L], source: N, target: N, k: int
) -> List[Path[N, L]]:
    """Yen's k shortest loopless paths over the compiled graph.

    Mirrors :func:`repro.graphs.yen.k_shortest_paths` candidate for
    candidate — spur queries run banned-set Dijkstra on the shared CSR
    arrays instead of materializing pruned :class:`Digraph` copies, so
    the output (paths, costs, order) is identical while each spur query
    skips the full graph copy.
    """
    if k <= 0:
        return []
    first = csr.shortest_path(source, target)
    if first is None:
        return []
    index_of = csr.index_of
    target_index = index_of[target]

    def spur_query(spur, banned_nodes, banned_arcs):
        banned_edges: Set[int] = set()
        for node, label in banned_arcs:
            banned_edges.update(csr.edges_labelled(index_of[node], label))
        spur_index = index_of[spur]
        dist, _, pred = csr_dijkstra(
            csr, spur_index, target_index,
            {index_of[node] for node in banned_nodes}, banned_edges,
        )
        return reconstruct_path(csr, spur_index, target_index, dist, pred), False

    return extend_k_shortest(first, target, k, spur_query)[0]
