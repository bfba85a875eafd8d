"""Unit tests for the reference dict-graph Dijkstra (oracle)."""

import pytest

from repro.graphs import Digraph, Path
from tests.oracles.graph_reference import dijkstra, reachable_from, shortest_path


@pytest.fixture
def diamond():
    #   a -1- b -1- d
    #    \-3----c--/ (c→d costs 0.5)
    g = Digraph()
    g.add_edge("a", "b", "ab", 1.0)
    g.add_edge("b", "d", "bd", 1.0)
    g.add_edge("a", "c", "ac", 3.0)
    g.add_edge("c", "d", "cd", 0.5)
    return g


class TestShortestPath:
    def test_picks_cheapest(self, diamond):
        path = shortest_path(diamond, "a", "d")
        assert path is not None
        assert path.cost == 2.0
        assert path.labels == ("ab", "bd")
        assert path.nodes == ("a", "b", "d")

    def test_source_equals_target(self, diamond):
        path = shortest_path(diamond, "a", "a")
        assert path is not None
        assert path.cost == 0.0
        assert path.labels == ()

    def test_unreachable_returns_none(self):
        g = Digraph()
        g.add_node("a")
        g.add_node("z")
        assert shortest_path(g, "a", "z") is None

    def test_direction_respected(self, diamond):
        assert shortest_path(diamond, "d", "a") is None

    def test_unknown_nodes_raise(self, diamond):
        with pytest.raises(KeyError):
            shortest_path(diamond, "nope", "d")
        with pytest.raises(KeyError):
            shortest_path(diamond, "a", "nope")

    def test_zero_weight_edges(self):
        g = Digraph()
        g.add_edge("a", "b", "e", 0.0)
        path = shortest_path(g, "a", "b")
        assert path.cost == 0.0

    def test_tie_breaks_by_fewer_hops(self):
        g = Digraph()
        g.add_edge("a", "b", "ab", 1.0)
        g.add_edge("b", "c", "bc", 1.0)
        g.add_edge("a", "c", "direct", 2.0)  # same cost, fewer hops
        path = shortest_path(g, "a", "c")
        assert path.labels == ("direct",)

    def test_parallel_edges_use_cheapest(self):
        g = Digraph()
        g.add_edge("a", "b", "slow", 5.0)
        g.add_edge("a", "b", "fast", 1.0)
        path = shortest_path(g, "a", "b")
        assert path.labels == ("fast",)


class TestDijkstraMap:
    def test_distances_complete(self, diamond):
        dist, _ = dijkstra(diamond, "a")
        assert dist == {"a": 0.0, "b": 1.0, "c": 3.0, "d": 2.0}

    def test_reachable_from(self, diamond):
        assert set(reachable_from(diamond, "c")) == {"c", "d"}


class TestPathInvariants:
    def test_path_shape_validated(self):
        with pytest.raises(ValueError):
            Path(nodes=("a",), edges=(), cost=0.0).__class__(
                nodes=("a", "b"), edges=(), cost=0.0
            )

    def test_labels_and_endpoints(self, diamond):
        path = shortest_path(diamond, "a", "d")
        assert path.source == "a"
        assert path.target == "d"
        assert len(path) == 2
