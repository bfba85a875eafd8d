"""Unit tests for the reference A* (explicit and lazy/implicit variants)."""

import pytest

from repro.graphs import Digraph
from tests.oracles.graph_reference import astar_path, lazy_astar, shortest_path


@pytest.fixture
def grid():
    # 4x4 grid, unit weights; heuristic = Manhattan distance (admissible).
    g = Digraph()
    for x in range(4):
        for y in range(4):
            if x + 1 < 4:
                g.add_edge((x, y), (x + 1, y), f"r{x}{y}", 1.0)
                g.add_edge((x + 1, y), (x, y), f"l{x}{y}", 1.0)
            if y + 1 < 4:
                g.add_edge((x, y), (x, y + 1), f"u{x}{y}", 1.0)
                g.add_edge((x, y + 1), (x, y), f"d{x}{y}", 1.0)
    return g


def manhattan_to(target):
    return lambda node: abs(node[0] - target[0]) + abs(node[1] - target[1])


class TestAstarExplicit:
    def test_matches_dijkstra_cost(self, grid):
        target = (3, 3)
        a = astar_path(grid, (0, 0), target, manhattan_to(target))
        d = shortest_path(grid, (0, 0), target)
        assert a is not None and d is not None
        assert a.cost == d.cost == 6.0

    def test_zero_heuristic_degrades_to_dijkstra(self, grid):
        a = astar_path(grid, (0, 0), (2, 1), lambda n: 0.0)
        assert a.cost == 3.0

    def test_source_is_target(self, grid):
        a = astar_path(grid, (1, 1), (1, 1), lambda n: 0.0)
        assert a.cost == 0.0
        assert a.nodes == ((1, 1),)


class TestLazyAstar:
    def test_implicit_graph_never_materialized(self):
        # Successor function over integers: +1 (cost 1) and *2 (cost 1.5).
        def successors(n):
            yield "+1", 1.0, n + 1
            yield "*2", 1.5, n * 2

        path = lazy_astar(1, 24, successors, heuristic=lambda n: 0.0)
        assert path is not None
        assert path.target == 24
        # 1→2→3→6→12→24: +1(1), +1(1), *2, *2, *2 = 2 + 4.5 = 6.5
        assert path.cost == 6.5

    def test_unreachable_returns_none(self):
        def successors(n):
            if n < 5:
                yield "+1", 1.0, n + 1

        assert lazy_astar(0, 10, successors, lambda n: 0.0) is None

    def test_expansion_budget(self):
        def successors(n):
            yield "+1", 1.0, n + 1

        assert lazy_astar(0, 10_000, successors, lambda n: 0.0, max_expansions=5) is None

    def test_negative_weight_rejected(self):
        def successors(n):
            yield "bad", -1.0, n + 1

        with pytest.raises(ValueError):
            lazy_astar(0, 3, successors, lambda n: 0.0)

    def test_admissible_heuristic_preserves_optimality(self):
        def successors(n):
            yield "+1", 1.0, n + 1
            yield "+3", 2.5, n + 3

        def heuristic(n):
            return max(0, (10 - n)) / 3 * 2.5  # admissible lower bound

        path = lazy_astar(0, 10, successors, heuristic)
        blind = lazy_astar(0, 10, successors, lambda n: 0.0)
        assert path.cost == blind.cost
