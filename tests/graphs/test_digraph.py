"""Unit tests for the directed multigraph."""

import pytest

from repro.graphs import Digraph, Edge
from tests.oracles.graph_reference import (
    edge_labels,
    has_edge,
    out_edges,
    subgraph_without,
)


class TestConstruction:
    def test_empty(self):
        g = Digraph()
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_add_node_idempotent(self):
        g = Digraph()
        g.add_node("a")
        g.add_node("a")
        assert g.node_count == 1

    def test_add_edge_adds_endpoints(self):
        g = Digraph()
        g.add_edge("a", "b", "e1", 1.0)
        assert "a" in g and "b" in g
        assert g.edge_count == 1

    def test_negative_weight_rejected(self):
        g = Digraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "b", "e1", -1.0)

    def test_parallel_edges_allowed(self):
        g = Digraph()
        g.add_edge("a", "b", "e1", 1.0)
        g.add_edge("a", "b", "e2", 2.0)
        assert g.edge_count == 2
        assert set(edge_labels(g, "a", "b")) == {"e1", "e2"}


class TestQueries:
    @pytest.fixture
    def graph(self):
        g = Digraph()
        g.add_edge("a", "b", "ab", 1.0)
        g.add_edge("b", "c", "bc", 2.0)
        g.add_edge("a", "c", "ac", 5.0)
        return g

    def test_out_edges(self, graph):
        labels = [e.label for e in out_edges(graph, "a")]
        assert labels == ["ab", "ac"]

    def test_out_edges_unknown_node_empty(self, graph):
        assert out_edges(graph, "zzz") == ()

    def test_successors_deduplicated(self):
        g = Digraph()
        g.add_edge("a", "b", "e1", 1.0)
        g.add_edge("a", "b", "e2", 1.0)
        assert list(g.successors("a")) == ["b"]

    def test_has_edge(self, graph):
        assert has_edge(graph, "a", "b")
        assert not has_edge(graph, "b", "a")  # directed

    def test_edges_iterates_all(self, graph):
        assert len(list(graph.edges())) == 3

    def test_hashable_nodes(self):
        g = Digraph()
        g.add_edge(frozenset({"x"}), frozenset({"y"}), "swap", 1.0)
        assert frozenset({"x"}) in g


class TestSubgraphWithout:
    def test_removes_edges_by_source_and_label(self):
        g = Digraph()
        g.add_edge("a", "b", "e1", 1.0)
        g.add_edge("a", "b", "e2", 1.0)
        pruned = subgraph_without(g, removed_edges=[("a", "e1")])
        assert edge_labels(pruned, "a", "b") == ("e2",)

    def test_removes_nodes_and_incident_edges(self):
        g = Digraph()
        g.add_edge("a", "b", "ab", 1.0)
        g.add_edge("b", "c", "bc", 1.0)
        pruned = subgraph_without(g, removed_nodes=["b"])
        assert "b" not in pruned
        assert pruned.edge_count == 0
        assert "a" in pruned and "c" in pruned

    def test_original_untouched(self):
        g = Digraph()
        g.add_edge("a", "b", "ab", 1.0)
        subgraph_without(g, removed_nodes=["a"])
        assert g.edge_count == 1
