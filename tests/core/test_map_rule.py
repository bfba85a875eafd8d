"""Every MAP route obeys one contract, read off the per-set tables.

The contract (DESIGN.md §11): least cost, then fewest steps, then the
lowest action-library index at each step.  :meth:`AdaptationPlanner.plan`,
:meth:`~AdaptationPlanner.plan_many`, :meth:`~AdaptationPlanner.lazy_plan`,
the MAP :meth:`~AdaptationPlanner.plan_avoiding` returns when it avoids
the failed steps, and the first path of :meth:`~AdaptationPlanner.plan_k`
are pinned to the brute force :func:`tests.oracles.map_reference.rule_plan`
on random systems with zero-cost actions, on random multi-set systems
and on small fleets, on both sides of :attr:`AdaptationPlanner.oversized`,
and their costs to the former corridor search.  None of them runs a
search, builds the SAG or the factored view, or grows a shortest-path
tree, while every set the pair changes fits the cap; a set above it
keeps the search, with Dijkstra's tie-break and its expansion budget.
"""

import dataclasses
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import (
    random_system,
    replicated_video_system,
    service_fleet_system,
)
from repro.core import planner as planner_mod
from repro.core import sag as sag_mod
from repro.core.actions import ActionLibrary
from repro.core.planner import AdaptationPlanner
from repro.core.sag import SafeAdaptationGraph
from repro.errors import NoSafePathError
from repro.graphs.csr import CSRGraph
from repro.manifest import load_path
from tests.core.test_factored_build import multi_set_systems
from tests.oracles.graph_reference import shortest_path
from tests.oracles.map_reference import corridor_plan, rule_plan

FLEET30 = Path(__file__).resolve().parents[2] / "examples" / "fleet30.manifest"


def _signature(plan):
    return None if plan is None else (plan.action_ids, plan.total_cost, plan.configurations)


def _or_none(call, *args):
    try:
        return call(*args)
    except NoSafePathError:
        return None


def _no_search():
    """Patches that fail any search, SAG build, factored view or tree."""

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"an unbanned query within the cap ran {name}")
        return fail

    stack = ExitStack()
    stack.enter_context(mock.patch.object(planner_mod, "astar_cost", forbidden("astar_cost")))
    stack.enter_context(
        mock.patch.object(planner_mod, "corridor_search", forbidden("corridor_search"))
    )
    stack.enter_context(mock.patch.object(sag_mod, "FactoredSAG", forbidden("FactoredSAG")))
    stack.enter_context(
        mock.patch.object(CSRGraph, "shortest_path_tree", forbidden("shortest_path_tree"))
    )
    stack.enter_context(
        mock.patch.object(SafeAdaptationGraph, "build", forbidden("SafeAdaptationGraph.build"))
    )
    return stack


def _with_zero_costs(system, zeroed):
    universe, invariants, actions = system
    return universe, invariants, ActionLibrary([
        dataclasses.replace(action, cost=0.0) if index in zeroed else action
        for index, action in enumerate(actions)
    ])


@st.composite
def random_systems(draw):
    """One-set random systems, some actions made free."""
    system = random_system(
        draw(st.integers(0, 10_000)), n_components=6, n_invariants=2, n_actions=12
    )
    zeroed = draw(st.sets(st.integers(0, 11), max_size=5))
    return _with_zero_costs((system.universe, system.invariants, system.actions), zeroed)


@st.composite
def multi_set_free_systems(draw):
    system = draw(multi_set_systems())
    zeroed = draw(st.sets(st.integers(0, 15), max_size=4))
    return _with_zero_costs(system, zeroed)


@st.composite
def small_fleets(draw):
    system = service_fleet_system(draw(st.integers(2, 4)))
    return system.universe, system.invariants, system.actions


SYSTEMS = st.one_of(random_systems(), multi_set_free_systems(), small_fleets())


@given(SYSTEMS, st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_every_map_route_follows_the_rule(system, oversized, data):
    universe, invariants, actions = system
    reference = AdaptationPlanner(universe, invariants, actions)
    configs = reference.space.enumerate()
    if not configs:
        return
    sources = data.draw(st.lists(st.sampled_from(configs), min_size=1, max_size=2, unique=True))
    pairs = [(source, target) for source in sources for target in configs[:12]]
    expected = [_signature(rule_plan(reference, *pair)) for pair in pairs]
    for pair, want in zip(pairs, expected):
        cost = corridor_plan(reference, *pair)
        assert (want is None) == (cost is None)
        if want is not None:
            assert want[1] == cost.total_cost

    def fresh():
        return AdaptationPlanner(universe, invariants, actions)

    with mock.patch.object(AdaptationPlanner, "oversized", oversized), _no_search():
        planner = fresh()
        assert [_signature(_or_none(planner.plan, *pair)) for pair in pairs] == expected
        assert [_signature(plan) for plan in fresh().plan_many(pairs)] == expected
        lazy = fresh()
        assert [_signature(_or_none(lazy.lazy_plan, *pair, 1)) for pair in pairs] == expected
        for pair, want in zip(pairs, expected):
            first = fresh().plan_k(*pair, 1)
            assert [_signature(plan) for plan in first] == ([] if want is None else [want])
            if want is not None and want[0]:
                # a failed step off the MAP: the MAP itself is the answer
                plan = planner.plan(*pair)
                off_path = [
                    (config, action.action_id)
                    for config in configs
                    for action in actions
                    if (config, action.action_id) not in {
                        (step.source, step.action.action_id) for step in plan.steps
                    }
                ][:3]
                assert _signature(fresh().plan_avoiding(*pair, off_path)) == want
    assert planner._sag is None and planner._lazy_sag is None


@given(SYSTEMS, st.data())
@settings(max_examples=60, deadline=None)
def test_a_set_above_the_cap_keeps_the_search(system, data):
    """With the cap below every set, the pair is searched, and its ties
    break as Dijkstra's on the built SAG do."""
    universe, invariants, actions = system
    reference = AdaptationPlanner(universe, invariants, actions)
    configs = reference.space.enumerate()
    if not configs:
        return
    source = data.draw(st.sampled_from(configs))
    planner = AdaptationPlanner(universe, invariants, actions)
    planner.max_components = 0
    for target in configs[:8]:
        want = shortest_path(reference.sag.graph, source, target)
        got = _or_none(planner.plan, source, target)
        if want is None:
            assert got is None
        else:
            assert (got.action_ids, got.total_cost) == (want.labels, want.cost)
        if source != target:
            assert planner._lazy_sag is not None


def test_an_unreachable_pair_is_known_from_the_tables():
    """On a multi-set spec an unreachable pair raises with nothing
    expanded: one changed set's table has no path from the source's
    projection."""
    fleet = load_path(FLEET30)
    planner = fleet.planner()
    baseline = fleet.configurations["baseline"]
    canary = fleet.configurations["canary"]
    expanded = planner.lazy_sag.expanded_nodes
    system = replicated_video_system(2)
    video = AdaptationPlanner(system.universe, system.invariants, system.actions)
    video_expanded = video.lazy_sag.expanded_nodes
    # the video SAG is one-way: the target cannot reach the source
    with pytest.raises(NoSafePathError):
        video.plan(system.target, system.source)
    with pytest.raises(NoSafePathError):
        video.lazy_plan(system.target, system.source, max_expansions=0)
    assert video.peek_plan(system.target, system.source) == (True, None)
    assert video.lazy_sag.expanded_nodes == video_expanded
    # and a reachable fleet30 pair expands nothing either
    assert planner.lazy_plan(baseline, canary).total_cost == 25.0
    assert planner.lazy_sag.expanded_nodes == expanded


def test_fleet30_answers_within_a_budget_of_one():
    fleet = load_path(FLEET30)
    planner = fleet.planner()
    plan = planner.lazy_plan(
        fleet.configurations["baseline"], fleet.configurations["canary"], max_expansions=1
    )
    assert plan.total_cost == 25.0
    assert planner._lazy_sag is None and planner.space._cache is None


def test_a_budget_bounds_only_the_search_above_the_cap(planner, source, target):
    planner.max_components = 0
    with pytest.raises(NoSafePathError, match="within 1 expansions"):
        planner.lazy_plan(source, target, max_expansions=1)
    assert planner.peek_plan(source, target) == (False, None)
    assert planner.lazy_plan(source, target).total_cost == 50.0
