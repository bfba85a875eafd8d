"""CSR kernel vs the dict-graph reference: exact pinning, tie-breaks included.

The CSR kernels are only allowed to be *faster* — every distance, every
path, and every deterministic tie-break must match
:func:`dijkstra` / :func:`shortest_path` of
``tests/oracles/graph_reference.py`` bit for bit.  The banned-set CSR
Yen (the oracle ``tests/oracles/csr_yen_reference.py`` that ``plan_k``
is pinned to) must match that module's :func:`k_shortest_paths` the
same way.
"""

from hypothesis import given, settings, strategies as st

from repro.graphs import Digraph
from repro.graphs.csr import CSRGraph
from tests.oracles.csr_yen_reference import k_shortest_paths_csr
from tests.oracles.graph_reference import (
    csr_shortest_path,
    dijkstra,
    k_shortest_paths,
    shortest_path,
)


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


def build(n, edges):
    graph = Digraph()
    for node in range(n):
        graph.add_node(node)
    for u, v, w, label in edges:
        graph.add_edge(u, v, label, w)
    return graph


@given(random_digraphs())
@settings(max_examples=80, deadline=None)
def test_spt_distances_match_dict_dijkstra(case):
    n, edges = case
    graph = build(n, edges)
    csr = CSRGraph.from_digraph(graph)
    for source in range(n):
        dist, _ = dijkstra(graph, source)
        assert csr.shortest_path_tree(source).reachable() == dist


@given(random_digraphs())
@settings(max_examples=80, deadline=None)
def test_spt_and_point_to_point_paths_match_exactly(case):
    """Same nodes, same edge objects, same tie-breaks — not just costs."""
    n, edges = case
    graph = build(n, edges)
    csr = CSRGraph.from_digraph(graph)
    for source in range(n):
        tree = csr.shortest_path_tree(source)
        for target in range(n):
            expected = shortest_path(graph, source, target)
            assert tree.path_to(target) == expected
            assert csr_shortest_path(csr, source, target) == expected


@given(random_digraphs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_csr_yen_identical_to_dict_yen(case, k):
    n, edges = case
    graph = build(n, edges)
    csr = CSRGraph.from_digraph(graph)
    assert k_shortest_paths_csr(csr, 0, n - 1, k) == k_shortest_paths(
        graph, 0, n - 1, k
    )


def test_zero_length_and_unreachable_paths():
    graph = Digraph()
    graph.add_node("a")
    graph.add_node("b")
    graph.add_edge("a", "b", "ab", 1.0)
    csr = CSRGraph.from_digraph(graph)
    zero = csr_shortest_path(csr, "a", "a")
    assert zero is not None and zero.cost == 0.0 and zero.edges == ()
    assert csr_shortest_path(csr, "b", "a") is None
    tree = csr.shortest_path_tree("b")
    assert tree.path_to("a") is None
    assert tree.distance_to("a") is None
    assert tree.distance_to("b") == 0.0
