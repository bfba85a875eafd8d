"""A small directed multigraph with labelled, weighted edges, and paths.

Kept deliberately minimal: the generic graph surface (the SAG's
``graph`` view, :meth:`repro.graphs.csr.CSRGraph.from_digraph`) needs
adjacency iteration, edge labels (adaptive-action identifiers), and
non-negative weights (costs).  Parallel edges between the same node pair
are allowed — two different adaptive actions may connect the same pair of
configurations — which is why this is a multigraph keyed by labels rather
than an adjacency matrix.  :class:`Path` is the result type of every
search in :mod:`repro.graphs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Iterator, List, Sequence, Set, Tuple, TypeVar

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)

_NO_EDGES: Tuple = ()


@dataclass(frozen=True)
class Edge(Generic[N, L]):
    """A directed, labelled, weighted edge."""

    source: N
    target: N
    label: L
    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"edge weight must be non-negative, got {self.weight}")


@dataclass(frozen=True)
class Path(Generic[N, L]):
    """A directed path: nodes visited, the edges taken, and the total cost."""

    nodes: Tuple[N, ...]
    edges: Tuple[Edge[N, L], ...]
    cost: float

    def __post_init__(self):
        if len(self.nodes) != len(self.edges) + 1:
            raise ValueError("a path over k edges must have k+1 nodes")

    @property
    def labels(self) -> Tuple[L, ...]:
        """Edge labels along the path (for the planner: action ids)."""
        return tuple(edge.label for edge in self.edges)

    @property
    def source(self) -> N:
        return self.nodes[0]

    @property
    def target(self) -> N:
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.edges)


class Digraph(Generic[N, L]):
    """Directed multigraph with hashable nodes and labelled weighted edges."""

    def __init__(self) -> None:
        self._adjacency: Dict[N, List[Edge[N, L]]] = {}
        self._nodes: Set[N] = set()
        self._edge_count = 0

    # -- construction --------------------------------------------------------
    def add_node(self, node: N) -> None:
        """Add *node* (idempotent)."""
        if node not in self._nodes:
            self._nodes.add(node)
            self._adjacency.setdefault(node, [])

    def add_edge(self, source: N, target: N, label: L, weight: float) -> Edge[N, L]:
        """Add a directed edge; both endpoints are added implicitly."""
        edge = Edge(source, target, label, weight)
        self.add_node(source)
        self.add_node(target)
        self._adjacency[source].append(edge)
        self._edge_count += 1
        return edge

    # -- queries --------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, node: N) -> bool:
        return node in self._nodes

    def nodes(self) -> Iterator[N]:
        """Nodes in insertion order.

        Deterministic iteration matters: :class:`repro.graphs.csr.CSRGraph`
        derives its int node indexing from this order, and identical
        indexing across runs is what keeps compiled-kernel tie-breaks
        reproducible.
        """
        return iter(self._adjacency)

    def edges(self) -> Iterator[Edge[N, L]]:
        for out_edges in self._adjacency.values():
            yield from out_edges

    def adjacency(self, node: N) -> Sequence[Edge[N, L]]:
        """Outgoing edges of *node* without a defensive copy.

        Hot-path accessor for the search algorithms: returns the internal
        edge list (do not mutate).
        """
        return self._adjacency.get(node, _NO_EDGES)

    def successors(self, node: N) -> Iterator[N]:
        seen: Set[N] = set()
        for edge in self._adjacency.get(node, ()):
            if edge.target not in seen:
                seen.add(edge.target)
                yield edge.target

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Digraph(nodes={self.node_count}, edges={self.edge_count})"
