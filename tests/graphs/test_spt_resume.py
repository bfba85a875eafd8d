"""A resumable shortest-path tree answers exactly like a one-shot full tree.

:class:`ShortestPathTree` settles its Dijkstra only as far as each query
needs and resumes the paused search on the next one.  For any sequence
of queries — repeated targets, unreachable targets, the source itself,
``reachable()`` in the middle — every ``path_to``, ``distance_to`` and
``reachable`` answer must equal the one computed from a full
:func:`csr_dijkstra` run, and every node the tree has settled must carry
the full run's ``dist``/``hops``/``pred`` entry (tie-breaks included).
"""

from hypothesis import given, settings, strategies as st

from repro.graphs import Digraph
from repro.graphs.csr import CSRGraph, csr_dijkstra, reconstruct_path

_INF = float("inf")


@st.composite
def resume_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    graph = Digraph()
    for node in range(n):
        graph.add_node(node)
    for index in range(draw(st.integers(min_value=0, max_value=40))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            # small weights force equal-cost ties onto the hop/order rules
            graph.add_edge(u, v, f"e{index % 5}", float(draw(st.integers(0, 4))))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    query = st.one_of(
        st.tuples(st.sampled_from(("path_to", "distance_to")),
                  st.integers(min_value=0, max_value=n - 1)),
        st.just(("reachable", None)),
    )
    queries = draw(st.lists(query, min_size=1, max_size=12))
    return CSRGraph.from_digraph(graph), source, queries


@given(resume_cases())
@settings(max_examples=200, deadline=None)
def test_resumable_tree_equals_one_shot_tree(case):
    csr, source, queries = case
    dist, hops, pred = csr_dijkstra(csr, source)
    tree = csr.shortest_path_tree(source)
    assert not any(tree.settled)  # creation settles nothing
    for kind, target in queries:
        if kind == "path_to":
            expected = reconstruct_path(csr, source, target, dist, pred)
            assert tree.path_to(target) == expected
        elif kind == "distance_to":
            expected = None if dist[target] == _INF else dist[target]
            assert tree.distance_to(target) == expected
        else:
            assert tree.reachable() == {
                node: value for node, value in enumerate(dist) if value != _INF
            }
            assert all(
                tree.settled[node] for node in range(csr.node_count)
                if dist[node] != _INF
            )
        for node in range(csr.node_count):
            if tree.settled[node]:
                assert (tree.dist[node], tree.hops[node], tree.pred[node]) == (
                    dist[node], hops[node], pred[node]
                )


def test_query_settles_only_as_far_as_its_target():
    """On a chain, asking for the second node leaves the tail unsettled."""
    graph = Digraph()
    for node in range(5):
        graph.add_edge(node, node + 1, f"s{node}", 1.0)
    csr = CSRGraph.from_digraph(graph)
    tree = csr.shortest_path_tree(0)
    assert tree.distance_to(1) == 1.0
    assert [tree.settled[i] for i in range(6)] == [1, 1, 0, 0, 0, 0]
    assert tree.path_to(4).cost == 4.0
    assert [tree.settled[i] for i in range(6)] == [1, 1, 1, 1, 1, 0]
    assert tree.distance_to(2) == 2.0  # already settled: no further search
    assert tree.settled[5] == 0
