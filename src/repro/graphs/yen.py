"""Yen's candidate loop for k shortest loopless paths.

The paper's failure-handling cascade (§4.4) needs "the second minimum
adaptation path from the current configuration to the target
configuration", and in general the next-best alternative each time a step
fails.  Yen's algorithm enumerates loopless paths in non-decreasing cost
order; :func:`extend_k_shortest` is its candidate loop, with the spur
search left to the caller (the planner runs the two-phase corridor
search of :mod:`repro.graphs.astar` over a banned view of the SAG).
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Hashable, List, Optional, Set, Tuple, TypeVar

from repro.graphs.digraph import Path

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)


def _path_key(path: Path) -> Tuple:
    """Identity of a path for deduplication: the node/label sequence."""
    return (path.nodes, path.labels)


#: ``(spur_node, banned_nodes, banned (node, label) arcs) -> (path, exhausted)``
SpurQuery = Callable[
    [N, AbstractSet[N], AbstractSet[Tuple[N, L]]], Tuple[Optional[Path[N, L]], bool]
]


def extend_k_shortest(
    first: Path[N, L], target: N, k: int, spur_query: SpurQuery
) -> Tuple[List[Path[N, L]], bool]:
    """Yen's candidate loop from the shortest path *first* to up to *k* paths.

    Shared by the built-SAG and the implicit-SAG Yen of the planner:
    every spur bans the root's nodes and the arcs already taken from the
    spur node by found paths sharing the root, duplicates are dropped by
    ``(nodes, labels)``, and candidates are taken in ``(cost, insertion
    order)`` order.  *spur_query* answers each banned-set query
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

