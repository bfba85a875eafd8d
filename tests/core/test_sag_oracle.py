"""The array-built SAG against the Digraph-based reference builder.

:meth:`SafeAdaptationGraph.build` writes the CSR arrays from per-set
factors; :class:`tests.oracles.sag_reference.ReferenceSAG` is the
Digraph build that preceded the arrays (one ``Edge`` per arc).  Both
must agree on vertex order, per-source arc order, labels and weights,
and every query rendered from them — ``edge_list``, ``steps_from``,
``has_step``/``step_actions`` and the DOT export — must be identical.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.sag import SafeAdaptationGraph
from repro.core.space import SafeConfigurationSpace
from repro.errors import NoSafePathError
from repro.manifest import load_path
from tests.oracles.graph_reference import out_edges
from tests.oracles.sag_reference import ReferenceSAG

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def assert_same_sag(got, ref, universe, vertices, highlight=None):
    ref_graph = ref.graph
    mask_of = universe.mask_of
    csr = got.csr
    # vertex order and per-source arc order, read off the arrays
    assert csr.nodes == tuple(mask_of(config) for config in ref_graph.nodes())
    for index, config in enumerate(ref_graph.nodes()):
        arcs = [
            (csr.edge_label(edge_id), csr.nodes[csr.targets[edge_id]],
             csr.weights[edge_id])
            for edge_id in range(csr.offsets[index], csr.offsets[index + 1])
        ]
        assert arcs == [
            (edge.label, mask_of(edge.target), edge.weight)
            for edge in out_edges(ref_graph, config)
        ]
    assert (got.node_count, got.edge_count) == (ref.node_count, ref.edge_count)
    # the materialized Digraph is the reference graph, edge for edge
    assert tuple(got.graph.nodes()) == tuple(ref_graph.nodes())
    assert list(got.graph.edges()) == list(ref_graph.edges())
    assert got.edge_list() == ref.edge_list()
    for source in vertices:
        assert (source in got) == (source in ref)
        assert got.steps_from(source) == ref.steps_from(source)
        for target in vertices:
            assert got.has_step(source, target) == ref.has_step(source, target)
            assert got.step_actions(source, target) == ref.step_actions(
                source, target
            )
    assert got.to_dot() == ref.to_dot()
    assert got.to_dot(universe=universe, highlight_path=highlight) == ref.to_dot(
        universe=universe, highlight_path=highlight
    )


@st.composite
def sag_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    system = random_system(
        draw(st.integers(min_value=0, max_value=10_000)),
        n_components=n,
        n_invariants=draw(st.integers(min_value=0, max_value=3)),
        n_actions=draw(st.integers(min_value=0, max_value=12)),
    )
    actions = list(system.actions)
    if draw(st.booleans()):
        # an action touching a component outside the universe: no mask,
        # so both builders must skip it
        position = draw(st.integers(min_value=0, max_value=len(actions)))
        actions.insert(position, AdaptiveAction.insert("foreign", "Z9", 3.0))
    return system, ActionLibrary(actions)


@given(sag_cases())
@settings(max_examples=120, deadline=None)
def test_array_build_matches_reference(case):
    system, actions = case
    space = SafeConfigurationSpace(system.universe, system.invariants)
    got = SafeAdaptationGraph.build(space, actions)
    ref = ReferenceSAG.build(space, actions)
    vertices = list(system.universe.all_configurations())
    assert_same_sag(got, ref, system.universe, vertices)


@pytest.mark.parametrize("name", ["video.manifest", "pipeline.manifest"])
def test_example_manifests_render_identically(name):
    manifest = load_path(EXAMPLES / name)
    planner = manifest.planner()
    ref = ReferenceSAG.build(planner.space, planner.actions)
    vertices = list(planner.space.enumerate())
    highlight = None
    for source in vertices:
        for target in vertices:
            try:
                plan = planner.plan(source, target)
            except NoSafePathError:
                continue
            if len(plan) > len(highlight or ()):
                highlight = [
                    (step.source, step.action.action_id, step.target)
                    for step in plan.steps
                ]
    assert highlight
    assert_same_sag(planner.sag, ref, manifest.universe, vertices, highlight)

