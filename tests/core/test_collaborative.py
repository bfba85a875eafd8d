"""Unit tests for collaborative-set decomposition (§7)."""

import pytest

from repro.bench.workloads import replicated_video_system
from repro.core.collaborative import UnionFind, collaborative_sets, project_invariants
from repro.core.planner import AdaptationPlanner


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(["a", "b"])
        assert uf.find("a") != uf.find("b")

    def test_union(self):
        uf = UnionFind(["a", "b", "c"])
        uf.union("a", "b")
        assert uf.find("a") == uf.find("b")
        assert uf.find("c") != uf.find("a")

    def test_groups(self):
        uf = UnionFind(["a", "b", "c", "d"])
        uf.union("a", "b")
        uf.union("c", "d")
        groups = {frozenset(g) for g in uf.groups()}
        assert groups == {frozenset({"a", "b"}), frozenset({"c", "d"})}

    def test_transitive(self):
        uf = UnionFind(["a", "b", "c"])
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.find("a") == uf.find("c")


class TestCollaborativeSets:
    def test_video_system_is_one_set(self, universe, invariants, actions):
        groups = collaborative_sets(universe, invariants, actions)
        assert len(groups) == 1
        assert groups[0] == universe.names

    def test_replicated_groups_recovered(self):
        system = replicated_video_system(3)
        groups = collaborative_sets(system.universe, system.invariants, system.actions)
        assert len(groups) == 3
        for group in groups:
            suffixes = {name.split("@")[1] for name in group}
            assert len(suffixes) == 1  # no cross-group mixing
            assert len(group) == 7

    def test_untouched_components_are_singletons(self, invariants, actions):
        from repro.core.model import Component, ComponentUniverse

        extended = ComponentUniverse(
            [Component(n) for n in
             ("D5", "D4", "D3", "D2", "D1", "E2", "E1", "LONER")]
        )
        groups = collaborative_sets(extended, invariants, actions)
        assert frozenset({"LONER"}) in groups

    def test_projection_keeps_only_contained_invariants(self, universe, invariants, actions):
        system = replicated_video_system(2)
        groups = collaborative_sets(system.universe, system.invariants, system.actions)
        for group in groups:
            projected = project_invariants(system.invariants, group)
            assert len(projected) == 4  # each group keeps its own 4 invariants
            for inv in projected:
                assert inv.atoms() <= group


class TestCollaborativePlanning:
    """The MAP is read off per-set tables (§7): each set's own MAP,
    interleaved, with no SAG over the whole universe."""

    def test_matches_monolithic_cost_on_paper_instance(self, planner, source, target):
        from tests.oracles.graph_reference import shortest_path

        plan = planner.plan(source, target)
        assert plan.total_cost == shortest_path(planner.sag.graph, source, target).cost

    def test_replicated_system_planned_per_group(self):
        system = replicated_video_system(3)
        planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
        plan = planner.plan(system.source, system.target)
        # each group needs its own 5-step, 50-cost MAP
        assert plan.total_cost == 150.0
        assert len(plan) == 15
        # steps chain and end at the global target
        config = system.source
        for step in plan.steps:
            config = step.action.apply(config)
            assert system.invariants.all_hold(config)
        assert config == system.target

    def test_collaborative_faster_than_full_sag(self):
        # With two groups, the monolithic safe space already has 64
        # configurations; planning per set never enumerates it.
        system = replicated_video_system(2)
        planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
        plan = planner.plan(system.source, system.target)
        assert plan.total_cost == 100.0
        assert planner._sag is None  # full SAG never built
        assert planner.space._cache is None
