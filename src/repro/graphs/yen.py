"""Yen's algorithm for k shortest loopless paths.

The paper's failure-handling cascade (§4.4) needs "the second minimum
adaptation path from the current configuration to the target
configuration", and in general the next-best alternative each time a step
fails.  Yen's algorithm enumerates loopless paths in non-decreasing cost
order on top of the Dijkstra routine.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Hashable, Iterator, List, Optional, Set, Tuple, TypeVar

from repro.graphs.digraph import Digraph
from repro.graphs.dijkstra import Path, shortest_path

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)


def _path_key(path: Path) -> Tuple:
    """Identity of a path for deduplication: the node/label sequence."""
    return (path.nodes, path.labels)


def k_shortest_paths(
    graph: Digraph[N, L],
    source: N,
    target: N,
    k: int,
) -> List[Path[N, L]]:
    """Up to *k* loopless minimum-cost paths, in non-decreasing cost order.

    Deterministic for a fixed graph construction order.  Returns fewer than
    *k* paths when the graph does not contain that many distinct loopless
    paths.
    """
    if k <= 0:
        return []
    first = shortest_path(graph, source, target)
    if first is None:
        return []
    found: List[Path[N, L]] = [first]
    seen: Set[Tuple] = {_path_key(first)}
    # candidate pool: (cost, order, path); order keeps heap behavior stable
    candidates: List[Tuple[float, int, Path[N, L]]] = []
    order = 0

    while len(found) < k:
        prev = found[-1]
        for i in range(len(prev.edges)):
            spur_node = prev.nodes[i]
            root_edges = prev.edges[:i]
            root_cost = sum(edge.weight for edge in root_edges)
            removed_edges = set()
            for path in found:
                if path.nodes[: i + 1] == prev.nodes[: i + 1] and len(path.edges) > i:
                    removed_edges.add((path.edges[i].source, path.edges[i].label))
            removed_nodes = set(prev.nodes[:i])  # forbid loops through the root
            pruned = graph.subgraph_without(removed_edges, removed_nodes)
            if spur_node not in pruned or target not in pruned:
                continue
            spur = shortest_path(pruned, spur_node, target)
            if spur is None:
                continue
            total_nodes = prev.nodes[:i] + spur.nodes
            total_edges = root_edges + spur.edges
            total = Path(
                nodes=total_nodes,
                edges=total_edges,
                cost=root_cost + spur.cost,
            )
            key = _path_key(total)
            if key not in seen:
                seen.add(key)
                candidates.append((total.cost, order, total))
                order += 1
        if not candidates:
            break
        candidates.sort(key=lambda item: (item[0], item[1]))
        _, _, best = candidates.pop(0)
        found.append(best)
    return found


#: ``(spur_node, banned_nodes, banned (node, label) arcs) -> (path, exhausted)``
SpurQuery = Callable[
    [N, AbstractSet[N], AbstractSet[Tuple[N, L]]], Tuple[Optional[Path[N, L]], bool]
]


def extend_k_shortest(
    first: Path[N, L], target: N, k: int, spur_query: SpurQuery
) -> Tuple[List[Path[N, L]], bool]:
    """Yen's candidate loop from the shortest path *first* to up to *k* paths.

    Shared by the CSR and the implicit-SAG Yen; banned sets, dedup key and
    ``(cost, insertion order)`` candidate order mirror
    :func:`k_shortest_paths`.  *spur_query* answers each banned-set query
    and reports budget exhaustion; then *complete* (second result) is
    ``False`` and the paths found so far are still the true best ones.
    """
    found: List[Path[N, L]] = [first]
    seen: Set[Tuple] = {_path_key(first)}
    candidates: List[Tuple[float, int, Path[N, L]]] = []
    order = 0
    while len(found) < k:
        prev = found[-1]
        for i in range(len(prev.edges)):
            banned_arcs = {
                (path.nodes[i], path.edges[i].label)
                for path in found
                if path.nodes[: i + 1] == prev.nodes[: i + 1] and len(path.edges) > i
            }
            banned_nodes = set(prev.nodes[:i])  # forbid loops through the root
            if prev.nodes[i] in banned_nodes or target in banned_nodes:
                continue
            spur, exhausted = spur_query(prev.nodes[i], banned_nodes, banned_arcs)
            if exhausted:
                return found, False
            if spur is None:
                continue
            root_edges = prev.edges[:i]
            total = Path(
                nodes=prev.nodes[:i] + spur.nodes,
                edges=root_edges + spur.edges,
                cost=sum(edge.weight for edge in root_edges) + spur.cost,
            )
            key = _path_key(total)
            if key not in seen:
                seen.add(key)
                candidates.append((total.cost, order, total))
                order += 1
        if not candidates:
            break
        candidates.sort(key=lambda item: (item[0], item[1]))
        found.append(candidates.pop(0)[2])
    return found, True


def iter_shortest_paths(
    graph: Digraph[N, L],
    source: N,
    target: N,
    limit: int = 64,
) -> Iterator[Path[N, L]]:
    """Generator over the first *limit* shortest paths (lazy wrapper).

    The failure-handling policy consumes alternates one at a time; this
    wrapper keeps call sites readable without re-running Yen from scratch
    per request.
    """
    for path in k_shortest_paths(graph, source, target, limit):
        yield path
