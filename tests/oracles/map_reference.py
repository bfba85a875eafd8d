"""The MAP contract by brute force, and the search it replaced (slow oracles).

:func:`rule_path` finds the MAP of the contract (DESIGN.md §11) over a
built SAG: least cost, then fewest steps, then the lowest
action-library index at each step.  It shares nothing with the
product's table walk but the built SAG's arcs.  Dijkstra
(:func:`repro.graphs.csr.csr_dijkstra`, whose ``(cost, hops)``
relaxation keeps the fewest hops among least-cost paths) gives the
least cost ``D`` and its fewest hops ``H``; a plain reverse Dijkstra
gives every mask's least cost to the target; then a depth-first
listing of simple paths, arcs taken in library order, keeps only the
arcs that stay on a least-cost route within ``H`` hops.  The first
path it lists is the lowest in library-index order among all the
paths of cost ``D`` and ``H`` hops.  It only backtracks out of arcs
whose least-cost completions all take more hops, so it stays cheap on
the replicated shapes, where the minimum-cost paths run to millions.

:func:`corridor_plan` is the route :meth:`AdaptationPlanner.plan
<repro.core.planner.AdaptationPlanner.plan>` took before it read the
plan off the per-set tables: the two-phase search
(:meth:`~repro.core.planner.AdaptationPlanner._banned_shortest`, an A*
probe then the corridor replay) with nothing banned, over the implicit
SAG.  Its ties break as Dijkstra's on the built SAG do, so it is the
cost oracle the walk's costs stay pinned to, and the baseline of the
walk's bench row (``benchmarks/bench_scalability.py``).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.core.model import Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner
from repro.graphs.csr import csr_dijkstra
from repro.graphs.digraph import Edge, Path


def _slack(cost: float) -> float:
    return cost + 1e-9 * (1.0 + abs(cost))


def _distances_to(planner: AdaptationPlanner, target_mask: int) -> Dict[int, float]:
    """Least cost from every safe mask to *target_mask* (reverse Dijkstra)."""
    successors = planner.sag.successors
    incoming: Dict[int, List[Tuple[float, int]]] = {}
    for mask in planner.space.enumerate_masks():
        for _, cost, nxt in successors(mask):
            incoming.setdefault(nxt, []).append((cost, mask))
    dist = {target_mask: 0.0}
    heap = [(0.0, target_mask)]
    done = set()
    while heap:
        d, mask = heapq.heappop(heap)
        if mask in done:
            continue
        done.add(mask)
        for cost, previous in incoming.get(mask, ()):
            if d + cost < dist.get(previous, math.inf):
                dist[previous] = d + cost
                heapq.heappush(heap, (d + cost, previous))
    return dist


def rule_path(
    planner: AdaptationPlanner, source_mask: int, target_mask: int
) -> Optional[Path]:
    """The contract's MAP over *planner*'s built SAG, or ``None``."""
    csr = planner.sag.csr
    source_index, target_index = csr.index_of[source_mask], csr.index_of[target_mask]
    least, fewest, _ = csr_dijkstra(csr, source_index, target_index)
    if least[target_index] == math.inf:
        return None
    hop_limit = fewest[target_index]
    dist = _distances_to(planner, target_mask)
    bound = _slack(least[target_index])
    successors = planner.sag.successors
    index = {action_id: i for i, action_id in enumerate(planner.actions.ids())}

    def listing(nodes, labels, weights, cost):
        mask = nodes[-1]
        if mask == target_mask:
            return True
        if len(labels) == hop_limit:
            return False
        for label, weight, nxt in sorted(successors(mask), key=lambda arc: index[arc[0]]):
            if nxt in nodes or cost + weight + dist.get(nxt, math.inf) > bound:
                continue
            nodes.append(nxt)
            labels.append(label)
            weights.append(weight)
            if listing(nodes, labels, weights, cost + weight):
                return True
            nodes.pop()
            labels.pop()
            weights.pop()
        return False

    nodes, labels, weights = [source_mask], [], []
    assert listing(nodes, labels, weights, 0.0)
    edges = tuple(
        Edge(nodes[i], nodes[i + 1], label, weight)
        for i, (label, weight) in enumerate(zip(labels, weights))
    )
    return Path(nodes=tuple(nodes), edges=edges, cost=sum(weights))


def searched(planner: AdaptationPlanner, source_mask: int, target_mask: int) -> bool:
    """Whether the pair changes a collaborative set above *planner*'s
    ``max_components``: its MAP is then searched, and its ties break as
    Dijkstra's do, not by the contract."""
    groups, _ = planner.space.factorization.action_sets(planner.actions)
    changed = source_mask ^ target_mask
    mask_of_names = planner.universe.mask_of_names
    return any(
        len(group) > planner.max_components and changed & mask_of_names(group)
        for group in groups
    )


def rule_plan(
    planner: AdaptationPlanner, source: Configuration, target: Configuration
) -> Optional[AdaptationPlan]:
    """:func:`rule_path` between two configurations, decoded."""
    mask_of = planner.universe.mask_of
    path = rule_path(planner, mask_of(source), mask_of(target))
    if path is None:
        return None
    return planner._plan_from_mask_path(source, target, path.nodes, path.labels, path.cost)


def corridor_plan(
    planner: AdaptationPlanner, source: Configuration, target: Configuration
) -> Optional[AdaptationPlan]:
    """The former unbanned MAP search over *planner*'s implicit SAG, decoded."""
    source_mask, target_mask = planner.universe.mask_of(source), planner.universe.mask_of(target)
    path, _, _ = planner._banned_shortest(
        planner.lazy_sag.successors, source_mask, target_mask,
        planner._lazy_heuristic(source_mask, target_mask), None,
    )
    if path is None:
        return None
    return planner._plan_from_mask_path(source, target, path.nodes, path.labels, path.cost)
