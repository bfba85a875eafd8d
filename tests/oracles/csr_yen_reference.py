"""Reference eager k-best search: Yen over banned-set CSR Dijkstra (slow oracle).

The engine :meth:`repro.core.planner.AdaptationPlanner.plan_k` ran before
its spurs moved to the two-phase corridor search: every spur query was a
full Dijkstra over the built SAG's CSR arrays, with banned node indices
and banned edge ids checked on every relaxation.  The kernels are kept
verbatim (the ban checks the product's shortest-path-tree loop no longer
carries, and the per-``(source, label)`` edge-id lookup); ``plan_k`` and
the CSR kernel tests pin the product to them:

* ``tests/core/test_plan_k_oracle.py`` — :func:`reference_plan_k` equals
  ``plan_k`` (paths, costs and order).  Its Yen loop starts from the
  MAP of the contract (:func:`tests.oracles.map_reference.rule_path`),
  as the product's starts from the table walk, or from Dijkstra's path
  for a pair the product searches (a changed set above its cap); every
  spur after it is the banned-set Dijkstra;
* ``tests/graphs/test_csr.py`` — :func:`k_shortest_paths_csr` equals the
  dict-graph Yen of :func:`tests.oracles.graph_reference.k_shortest_paths`.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.core.model import Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner
from repro.graphs.csr import _INF, CSRGraph, L, N, reconstruct_path
from repro.graphs.digraph import Path
from tests.oracles.graph_reference import csr_shortest_path, extend_k_shortest
from tests.oracles.map_reference import rule_path, searched


def edges_labelled(
    csr: CSRGraph[N, L],
    source_index: int,
    label: L,
    cache: Dict[Tuple[int, L], Tuple[int, ...]],
) -> Tuple[int, ...]:
    """Ids of the parallel arcs from *source_index* carrying *label*.

    Cached in *cache*: Yen bans the same ``(source, label)`` pairs across
    many spur queries.
    """
    key = (source_index, label)
    cached = cache.get(key)
    if cached is None:
        cached = tuple(
            edge_id
            for edge_id in range(
                csr.offsets[source_index], csr.offsets[source_index + 1]
            )
            if csr.edge_label(edge_id) == label
        )
        cache[key] = cached
    return cached


def _settle(
    csr: CSRGraph[N, L], heap: list, dist: List[float], hops: List[int],
    pred: List[int], settled: bytearray, counter: int, stop: int = -1,
    banned_nodes: Optional[AbstractSet[int]] = None,
    banned_edges: Optional[AbstractSet[int]] = None,
) -> int:
    """Run Dijkstra on the given search state until node *stop* is settled.

    Pops, settles and relaxes exactly as a fresh search would, stopping
    right after *stop*'s out-edges are relaxed (or when the heap empties;
    ``stop=-1`` runs to exhaustion).  Returns the updated heap tie-break
    counter.
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
    *banned_nodes*/*banned_edges* subtract vertices and edge ids
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


def k_shortest_paths_csr(
    csr: CSRGraph[N, L], source: N, target: N, k: int,
    first: Optional[Path[N, L]] = None,
) -> List[Path[N, L]]:
    """Yen's k shortest loopless paths over the compiled graph.

    Mirrors :func:`tests.oracles.graph_reference.k_shortest_paths` candidate for
    candidate — spur queries run banned-set Dijkstra on the shared CSR
    arrays instead of materializing pruned :class:`Digraph` copies, so
    the output (paths, costs, order) is identical while each spur query
    skips the full graph copy.  The loop starts from *first*, a shortest
    path (Dijkstra's unless given).
    """
    if k <= 0:
        return []
    if first is None:
        first = csr_shortest_path(csr, source, target)
    if first is None:
        return []
    index_of = csr.index_of
    target_index = index_of[target]
    label_cache: Dict[Tuple[int, L], Tuple[int, ...]] = {}

    def spur_query(spur, banned_nodes, banned_arcs):
        banned_edges: Set[int] = set()
        for node, label in banned_arcs:
            banned_edges.update(
                edges_labelled(csr, index_of[node], label, label_cache)
            )
        spur_index = index_of[spur]
        dist, _, pred = csr_dijkstra(
            csr, spur_index, target_index,
            {index_of[node] for node in banned_nodes}, banned_edges,
        )
        return reconstruct_path(csr, spur_index, target_index, dist, pred), False

    return extend_k_shortest(first, target, k, spur_query)[0]


def reference_plan_k(
    planner: AdaptationPlanner,
    source: Configuration,
    target: Configuration,
    k: int,
    tested: Optional[AdaptationPlanner] = None,
) -> List[AdaptationPlan]:
    """The former ``plan_k``: CSR Yen over the planner's built SAG, from
    the MAP *tested* (a planner over the same system, *planner* itself
    unless given) returns first: the contract's, or Dijkstra's where
    *tested* searches the pair (:func:`~tests.oracles.map_reference.searched`).

    Borrows only the planner's endpoint validation, SAG and decoder;
    nothing is cached.
    """
    planner._validate_endpoints(source, target)
    if k <= 0:
        return []
    mask_of = planner.universe.mask_of
    source_mask, target_mask = mask_of(source), mask_of(target)
    if searched(tested or planner, source_mask, target_mask):
        first = csr_shortest_path(planner.sag.csr, source_mask, target_mask)
    else:
        first = rule_path(planner, source_mask, target_mask)
    if first is None:
        return []
    paths = k_shortest_paths_csr(
        planner.sag.csr, mask_of(source), mask_of(target), k, first
    )
    return [
        planner._plan_from_mask_path(source, target, path.nodes, path.labels, path.cost)
        for path in paths
    ]
