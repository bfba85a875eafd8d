"""Reference dict-graph searches: Dijkstra, Yen and A* (slow oracles).

The generic algorithms over :class:`~repro.graphs.Digraph` that the
planner ran before it moved to the CSR shortest-path tree and the
two-phase corridor search.  They are kept verbatim as the semantics the
product engines are pinned to:

* :func:`dijkstra` / :func:`shortest_path` — single-pair shortest path
  with the ``(cost, hops, insertion order)`` tie-break every product
  engine reproduces (``tests/graphs/test_csr.py``,
  ``tests/core/test_plan_many.py``, ``tests/graphs/test_graph_properties.py``);
* :func:`k_shortest_paths` — Yen over :func:`subgraph_without` copies,
  the reference for the CSR Yen oracle (``tests/graphs/test_csr.py``);
* :func:`extend_k_shortest` — the one-shot Yen candidate loop the
  planner ran before :class:`repro.graphs.yen.YenState` made it
  resumable, with the spur search left to the caller; the CSR Yen and
  lazy oracles (``csr_yen_reference.py``, ``lazy_reference.py``) run it;
* :func:`astar_path` / :func:`lazy_astar` — textbook A* over an explicit
  or an implicit graph (``tests/graphs/test_astar.py``,
  ``tests/core/test_planner_properties.py``);
* :func:`out_edges` / :func:`has_edge` / :func:`edge_labels` — copying
  edge queries on a :class:`Digraph`, and :func:`csr_shortest_path`, a
  point-to-point query on a :class:`~repro.graphs.csr.CSRGraph`: former
  methods no product code calls, kept for the suites that inspect graphs
  through them.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar

from repro.graphs.astar import HeuristicFn, SuccessorFn
from repro.graphs.csr import CSRGraph, csr_dijkstra, reconstruct_path
from repro.graphs.digraph import Digraph, Edge, Path

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)


# -- edge queries ----------------------------------------------------------------


def out_edges(graph: Digraph[N, L], node: N) -> Tuple[Edge[N, L], ...]:
    """Outgoing edges of *node* (empty tuple if the node is unknown)."""
    return tuple(graph.adjacency(node))


def has_edge(graph: Digraph[N, L], source: N, target: N) -> bool:
    return any(e.target == target for e in graph.adjacency(source))


def edge_labels(graph: Digraph[N, L], source: N, target: N) -> Tuple[L, ...]:
    """Labels of all parallel edges from *source* to *target*."""
    return tuple(e.label for e in graph.adjacency(source) if e.target == target)


def csr_shortest_path(csr: CSRGraph[N, L], source: N, target: N) -> Optional[Path[N, L]]:
    """Point-to-point CSR query with early termination at *target*."""
    source_index = csr.index_of[source]
    target_index = csr.index_of[target]
    dist, _, pred = csr_dijkstra(csr, source_index, target=target_index)
    return reconstruct_path(csr, source_index, target_index, dist, pred)


# -- Dijkstra --------------------------------------------------------------------


def dijkstra(
    graph: Digraph[N, L],
    source: N,
    target: Optional[N] = None,
) -> Tuple[Dict[N, float], Dict[N, Edge[N, L]]]:
    """Single-source shortest distances and predecessor edges.

    Returns ``(dist, pred)`` where ``dist[n]`` is the minimal cost from
    *source* to ``n`` and ``pred[n]`` is the final edge of one such minimal
    path.  If *target* is given, the search stops once it is settled.
    Ties between equal-cost paths break by (cost, hop count, insertion
    order).
    """
    if source not in graph:
        raise KeyError(f"source node not in graph: {source!r}")
    # nodes are interned to dense indices, so heap entries are scalar
    # tuples (cost, hops, tie, index) and never compare node objects
    index_of: Dict[N, int] = {source: 0}
    nodes: List[N] = [source]
    dist: List[float] = [0.0]
    hops: List[int] = [0]
    pred: List[Optional[Edge[N, L]]] = [None]
    settled: List[bool] = [False]
    adjacency = graph.adjacency
    counter = 0
    heap: list = [(0.0, 0, counter, 0)]
    while heap:
        cost, nhops, _, idx = heapq.heappop(heap)
        if settled[idx]:
            continue
        settled[idx] = True
        node = nodes[idx]
        if target is not None and node == target:
            break
        for edge in adjacency(node):
            neighbour = edge.target
            nidx = index_of.get(neighbour)
            if nidx is None:
                nidx = len(nodes)
                index_of[neighbour] = nidx
                nodes.append(neighbour)
                dist.append(cost + edge.weight)
                hops.append(nhops + 1)
                pred.append(edge)
                settled.append(False)
                counter += 1
                heapq.heappush(heap, (dist[nidx], nhops + 1, counter, nidx))
                continue
            if settled[nidx]:
                continue
            candidate = cost + edge.weight
            candidate_hops = nhops + 1
            best = dist[nidx]
            if candidate < best or (
                candidate == best and candidate_hops < hops[nidx]
            ):
                dist[nidx] = candidate
                hops[nidx] = candidate_hops
                pred[nidx] = edge
                counter += 1
                heapq.heappush(heap, (candidate, candidate_hops, counter, nidx))
    dist_map: Dict[N, float] = {n: dist[i] for i, n in enumerate(nodes)}
    pred_map: Dict[N, Edge[N, L]] = {
        n: edge for n, edge in zip(nodes, pred) if edge is not None
    }
    return dist_map, pred_map


def _reconstruct(
    source: N, target: N, pred: Dict[N, Edge[N, L]], cost: float
) -> Path[N, L]:
    if source == target:
        return Path(nodes=(source,), edges=(), cost=0.0)
    edges = []
    node = target
    while node != source:
        edge = pred[node]
        edges.append(edge)
        node = edge.source
    edges.reverse()
    nodes = (source,) + tuple(edge.target for edge in edges)
    return Path(nodes=nodes, edges=tuple(edges), cost=cost)


def shortest_path(
    graph: Digraph[N, L],
    source: N,
    target: N,
) -> Optional[Path[N, L]]:
    """Minimum-cost path from *source* to *target*, or ``None`` if unreachable."""
    if source not in graph:
        raise KeyError(f"source node not in graph: {source!r}")
    if target not in graph:
        raise KeyError(f"target node not in graph: {target!r}")
    if source == target:
        return Path(nodes=(source,), edges=(), cost=0.0)
    dist, pred = dijkstra(graph, source, target)
    if target not in dist or target not in pred:
        return None
    return _reconstruct(source, target, pred, dist[target])


def reachable_from(graph: Digraph[N, L], source: N) -> Dict[N, float]:
    """All nodes reachable from *source* with their minimal costs."""
    dist, _ = dijkstra(graph, source)
    return dist


# -- Yen -------------------------------------------------------------------------


def subgraph_without(
    graph: Digraph[N, L],
    removed_edges: Iterable[Tuple[N, L]] = (),
    removed_nodes: Iterable[N] = (),
) -> Digraph[N, L]:
    """Copy of *graph* minus the given ``(source, label)`` edges and nodes."""
    removed_edge_set = set(removed_edges)
    removed_node_set = set(removed_nodes)
    out: Digraph[N, L] = Digraph()
    for node in graph.nodes():
        if node not in removed_node_set:
            out.add_node(node)
    for edge in graph.edges():
        if edge.source in removed_node_set or edge.target in removed_node_set:
            continue
        if (edge.source, edge.label) in removed_edge_set:
            continue
        out.add_edge(edge.source, edge.target, edge.label, edge.weight)
    return out


def k_shortest_paths(
    graph: Digraph[N, L],
    source: N,
    target: N,
    k: int,
) -> List[Path[N, L]]:
    """Up to *k* loopless minimum-cost paths, in non-decreasing cost order.

    Every spur is a fresh :func:`shortest_path` over a
    :func:`subgraph_without` copy.  Returns fewer than *k* paths when the
    graph does not contain that many distinct loopless paths.
    """
    if k <= 0:
        return []
    first = shortest_path(graph, source, target)
    if first is None:
        return []
    found: List[Path[N, L]] = [first]
    seen: Set[Tuple] = {(first.nodes, first.labels)}
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
            pruned = subgraph_without(graph, removed_edges, removed_nodes)
            if spur_node not in pruned or target not in pruned:
                continue
            spur = shortest_path(pruned, spur_node, target)
            if spur is None:
                continue
            total = Path(
                nodes=prev.nodes[:i] + spur.nodes,
                edges=root_edges + spur.edges,
                cost=root_cost + spur.cost,
            )
            key = (total.nodes, total.labels)
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


def iter_shortest_paths(
    graph: Digraph[N, L],
    source: N,
    target: N,
    limit: int = 64,
) -> Iterator[Path[N, L]]:
    """Generator over the first *limit* shortest paths."""
    yield from k_shortest_paths(graph, source, target, limit)


# -- A* --------------------------------------------------------------------------


def astar_path(
    graph: Digraph[N, L],
    source: N,
    target: N,
    heuristic: HeuristicFn,
) -> Optional[Path[N, L]]:
    """A* over an explicit :class:`Digraph`.

    With an admissible *heuristic* the returned path is optimal; with
    ``heuristic = lambda n: 0`` this degenerates to Dijkstra.
    """

    def successors(node: N) -> Iterable[Tuple[L, float, N]]:
        for edge in graph.adjacency(node):
            yield edge.label, edge.weight, edge.target

    return lazy_astar(source, target, successors, heuristic)


def lazy_astar(
    source: N,
    target: N,
    successors: SuccessorFn,
    heuristic: HeuristicFn,
    max_expansions: Optional[int] = None,
) -> Optional[Path[N, L]]:
    """A* over an *implicit* graph defined by a successor function.

    *successors* yields ``(label, weight, next_node)`` triples and is
    called only for nodes the search expands; *heuristic* is an
    admissible estimate of the remaining cost.  Returns an optimal
    :class:`Path`, or ``None`` when *target* is unreachable or more than
    *max_expansions* nodes were expanded.
    """
    g_score: Dict[N, float] = {source: 0.0}
    hops: Dict[N, int] = {source: 0}
    came_from: Dict[N, Edge[N, L]] = {}
    settled: set = set()
    counter = 0
    heap: List[Tuple[float, int, int, N]] = [(heuristic(source), 0, counter, source)]
    expansions = 0
    while heap:
        _, nhops, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return _reconstruct(source, target, came_from, g_score[target])
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            return None
        for label, weight, nxt in successors(node):
            if weight < 0:
                raise ValueError(f"negative edge weight {weight} from {node!r}")
            if nxt in settled:
                continue
            tentative = g_score[node] + weight
            best = g_score.get(nxt)
            if best is None or tentative < best or (
                tentative == best and nhops + 1 < hops[nxt]
            ):
                g_score[nxt] = tentative
                hops[nxt] = nhops + 1
                came_from[nxt] = Edge(node, nxt, label, weight)
                counter += 1
                heapq.heappush(
                    heap, (tentative + heuristic(nxt), nhops + 1, counter, nxt)
                )
    return None


# -- Yen candidate loop ----------------------------------------------------------


def _path_key(path: Path) -> Tuple:
    """Identity of a path for deduplication: the node/label sequence."""
    return (path.nodes, path.labels)


def extend_k_shortest(
    first: Path[N, L], target: N, k: int, spur_query: Callable
) -> Tuple[List[Path[N, L]], bool]:
    """Yen's candidate loop from the shortest path *first* to up to *k* paths.

    Every spur bans the root's nodes and the arcs already taken from the
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

