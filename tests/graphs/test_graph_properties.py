"""Property-based tests: our algorithms vs networkx on random graphs."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import Digraph
from tests.oracles.graph_reference import astar_path, k_shortest_paths, shortest_path


@st.composite
def random_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edge_count = draw(st.integers(min_value=1, max_value=20))
    edges = []
    for index in range(edge_count):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            continue
        w = draw(st.integers(min_value=0, max_value=10))
        edges.append((u, v, float(w), f"e{index}"))
    return n, edges


def build_both(n, edges):
    ours = Digraph()
    theirs = nx.MultiDiGraph()
    for node in range(n):
        ours.add_node(node)
        theirs.add_node(node)
    for u, v, w, label in edges:
        ours.add_edge(u, v, label, w)
        theirs.add_edge(u, v, key=label, weight=w)
    return ours, theirs


@given(random_digraphs())
@settings(max_examples=60, deadline=None)
def test_shortest_path_cost_matches_networkx(case):
    n, edges = case
    ours, theirs = build_both(n, edges)
    path = shortest_path(ours, 0, n - 1)
    try:
        expected = nx.shortest_path_length(theirs, 0, n - 1, weight="weight")
    except nx.NetworkXNoPath:
        assert path is None
        return
    assert path is not None
    assert path.cost == pytest.approx(expected)


@given(random_digraphs())
@settings(max_examples=40, deadline=None)
def test_astar_zero_heuristic_matches_dijkstra(case):
    n, edges = case
    ours, _ = build_both(n, edges)
    d = shortest_path(ours, 0, n - 1)
    a = astar_path(ours, 0, n - 1, lambda node: 0.0)
    if d is None:
        assert a is None
    else:
        assert a is not None and a.cost == pytest.approx(d.cost)


@given(random_digraphs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_yen_paths_sorted_distinct_loopless_valid(case, k):
    n, edges = case
    ours, _ = build_both(n, edges)
    paths = k_shortest_paths(ours, 0, n - 1, k)
    costs = [p.cost for p in paths]
    assert costs == sorted(costs)
    assert len({(p.nodes, p.labels) for p in paths}) == len(paths)
    for path in paths:
        assert len(set(path.nodes)) == len(path.nodes)  # loopless
        assert path.cost == pytest.approx(sum(e.weight for e in path.edges))
        for edge, (u, v) in zip(path.edges, zip(path.nodes, path.nodes[1:])):
            assert (edge.source, edge.target) == (u, v)


@given(random_digraphs())
@settings(max_examples=40, deadline=None)
def test_yen_first_path_is_global_optimum(case):
    n, edges = case
    ours, _ = build_both(n, edges)
    best = shortest_path(ours, 0, n - 1)
    paths = k_shortest_paths(ours, 0, n - 1, 1)
    if best is None:
        assert paths == []
    else:
        assert paths and paths[0].cost == pytest.approx(best.cost)
