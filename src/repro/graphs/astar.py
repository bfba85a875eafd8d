"""A* over implicitly defined graphs: the planner's exact two-phase search.

The paper's §7 names the scalability problem directly: "Dijkstra's shortest
path algorithm requires the entire SAG to be generated.  However, in many
cases, only a small fraction of the graph is actually related to the given
adaptation."  The remedy is best-first partial exploration that expands
safe configurations on demand through a successor function, never
materializing the full graph.  The planner's exact search (for queries
with bans, and MAPs its per-set tables cannot afford) runs in two
phases over such a function: :func:`astar_cost` (a deep-tie A* probe that
only establishes the optimal cost) and :func:`corridor_search`
(Dijkstra's exact pop order and tie-break, confined to the nodes a
consistent heuristic places on some optimal path).
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Callable, Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar

from repro.graphs.digraph import Edge, Path

_INF = float("inf")

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)

# successor function for implicit graphs: node -> iterable of (label, weight, next_node)
SuccessorFn = Callable[[N], Iterable[Tuple[L, float, N]]]
HeuristicFn = Callable[[N], float]


def _account(
    stats: Optional[Dict[str, object]], expansions: int, exhausted: bool
) -> None:
    if stats is not None:
        stats["expansions"] = expansions
        stats["exhausted"] = exhausted


def astar_cost(
    source: N,
    target: N,
    successors: SuccessorFn,
    heuristic: HeuristicFn,
    max_expansions: Optional[int] = None,
    *,
    banned: AbstractSet[N] = frozenset(),
    stats: Optional[Dict[str, object]] = None,
) -> Optional[float]:
    """The optimal cost from *source* to *target* — A* that keeps no path.

    The probe of the planner's exact banned search
    (:meth:`~repro.core.planner.AdaptationPlanner._banned_shortest`): it only
    has to establish the optimal cost ``D``, so it records no
    predecessors and breaks ``f`` ties **deep** — the heap is ordered by
    ``(f, -g, counter)``, so among equally promising nodes the one
    furthest from the source goes first.  With an exact heuristic every
    node on an optimal path has ``f = D`` and the probe walks straight
    down one of them instead of widening across the whole tie plateau.

    *heuristic* must be **consistent** (``h(x) <= w + h(y)`` on every
    arc, ``h(target) == 0``): a node is closed at its first pop, which
    is only exact for consistent heuristics.  ``inf`` is allowed and
    means "cannot reach the target" — such nodes are never queued.

    Args:
        max_expansions: optional budget on expanded nodes; when exceeded
            the search returns ``None``.
        banned: nodes the search must not enter (never the source or the
            target); they seed the closed set, so an arc into one is
            skipped as an arc into a closed node is.
        stats: optional dict updated in place with ``"expansions"``
            (nodes expanded) and ``"exhausted"`` (the search gave up on
            *max_expansions* rather than proving the target
            unreachable) — callers sharing one budget across many
            searches need both.

    Returns:
        The optimal cost, or ``None`` if *target* is unreachable (or the
        expansion budget ran out).
    """
    start = heuristic(source)
    if start == _INF:
        _account(stats, 0, False)
        return None
    g_score: Dict[N, float] = {source: 0.0}
    closed: set = set(banned)
    counter = 0
    heap: List[Tuple[float, float, int, N]] = [(start, -0.0, counter, source)]
    expansions = 0
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        _, neg_g, _, node = pop(heap)
        if node in closed:
            continue
        if node == target:
            _account(stats, expansions, False)
            return -neg_g
        closed.add(node)
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            _account(stats, expansions, True)
            return None
        g = -neg_g
        for _label, weight, nxt in successors(node):
            if weight < 0:
                raise ValueError(f"negative edge weight {weight} from {node!r}")
            if nxt in closed:
                continue
            tentative = g + weight
            best = g_score.get(nxt)
            if best is None or tentative < best:
                remaining = heuristic(nxt)
                if remaining == _INF:
                    continue
                g_score[nxt] = tentative
                counter += 1
                push(heap, (tentative + remaining, -tentative, counter, nxt))
    _account(stats, expansions, False)
    return None


def corridor_search(
    source: N,
    target: N,
    successors: SuccessorFn,
    heuristic: HeuristicFn,
    cost_bound: float,
    max_expansions: Optional[int] = None,
    *,
    banned: AbstractSet[N] = frozenset(),
    stats: Optional[Dict[str, object]] = None,
) -> Optional[Path[N, L]]:
    """Dijkstra's exact path, searched only inside the optimal corridor.

    The replay of the planner's exact banned search: nodes are settled in
    ``(g, hops, counter)`` order — the order, relax rule and tie-break
    of the eager CSR solver (:func:`repro.graphs.csr.csr_dijkstra`) —
    but a relaxation is dropped when ``g + h(next)`` exceeds
    *cost_bound*, the optimal cost ``D`` the probe established (with a
    ``1e-9`` relative slack for summation-order float drift).

    This cannot change the result when *heuristic* is consistent and
    *cost_bound* is the true optimum: every relaxation that sets a final
    ``(g, hops)`` on an optimal path comes from a node with
    ``g + h <= D`` and survives, and a dropped one carries a ``g`` that
    never ties a final one (DESIGN.md §12 has the argument).  The path,
    its cost and its tie-breaking are those of the unpruned search,
    while the expanded region shrinks from the cost ellipse ``g <= D``
    to the corridor ``g + h <= D``.

    Args / Returns: as :func:`astar_cost` (*banned* seeds the settled
    set), but a :class:`Path` is returned (``None`` on unreachability or
    budget exhaustion).
    """
    # relative slack absorbs summation-order float drift in the
    # externally computed bound without ever rejecting an equal cost
    bound = cost_bound + 1e-9 * (1.0 + abs(cost_bound))
    # per reached node its best (g, hops), compared as one tuple: lower
    # cost, then fewer hops; and the (node, label, weight) it came from
    # (an Edge is made only for the returned path's arcs)
    best_of: Dict[N, Tuple[float, int]] = {source: (0.0, 0)}
    came_from: Dict[N, Tuple[N, L, float]] = {}
    settled: set = set(banned)
    counter = 0
    heap: List[Tuple[float, int, int, N]] = [(0.0, 0, counter, source)]
    expansions = 0
    push = heapq.heappush
    pop = heapq.heappop
    best_get = best_of.get
    while heap:
        g, nhops, _, node = pop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            _account(stats, expansions, False)
            return _rebuild(source, target, came_from, g)
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            _account(stats, expansions, True)
            return None
        next_hops = nhops + 1
        for label, weight, nxt in successors(node):
            if weight < 0:
                raise ValueError(f"negative edge weight {weight} from {node!r}")
            if nxt in settled:
                continue
            tentative = g + weight
            key = (tentative, next_hops)
            best = best_get(nxt)
            if (best is None or key < best) and tentative + heuristic(nxt) <= bound:
                best_of[nxt] = key
                came_from[nxt] = (node, label, weight)
                counter += 1
                push(heap, (tentative, next_hops, counter, nxt))
    _account(stats, expansions, False)
    return None


def _rebuild(
    source: N, target: N, came_from: Dict[N, Tuple[N, L, float]], cost: float
) -> Path[N, L]:
    if source == target:
        return Path(nodes=(source,), edges=(), cost=0.0)
    edges: List[Edge[N, L]] = []
    node = target
    while node != source:
        previous, label, weight = came_from[node]
        edges.append(Edge(previous, node, label, weight))
        node = previous
    edges.reverse()
    nodes = (source,) + tuple(edge.target for edge in edges)
    return Path(nodes=nodes, edges=tuple(edges), cost=cost)
