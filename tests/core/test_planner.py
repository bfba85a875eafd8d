"""Unit tests for the Minimum Adaptation Path planner (§4.2, Fig. 4)."""

import pytest

from repro.core.model import Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner, PlanStep
from repro.errors import NoSafePathError, UnsafeConfigurationError


class TestPaperMAP:
    def test_minimum_cost_is_50ms(self, planner, source, target):
        plan = planner.plan(source, target)
        assert plan.total_cost == 50.0
        assert len(plan) == 5

    def test_map_uses_only_cheap_single_actions(self, planner, source, target):
        plan = planner.plan(source, target)
        assert set(plan.action_ids) == {"A1", "A2", "A4", "A16", "A17"}
        for step in plan.steps:
            assert step.action.cost == 10.0

    def test_paper_path_is_among_optimal(self, planner, source, target):
        # The paper reports A2,A17,A1,A16,A4 — one of several cost-50 paths.
        plans = planner.plan_k(source, target, 8)
        optimal = [p.action_ids for p in plans if p.total_cost == 50.0]
        assert ("A2", "A17", "A1", "A16", "A4") in optimal

    def test_steps_chain_configurations(self, planner, source, target):
        plan = planner.plan(source, target)
        assert plan.steps[0].source == source
        assert plan.steps[-1].target == target
        for earlier, later in zip(plan.steps, plan.steps[1:]):
            assert earlier.target == later.source

    def test_every_intermediate_configuration_safe(self, planner, source, target):
        plan = planner.plan(source, target)
        for config in plan.configurations:
            assert planner.space.is_safe(config)

    def test_deterministic(self, planner, source, target):
        first = planner.plan(source, target)
        second = planner.plan(source, target)
        assert first.action_ids == second.action_ids


class TestEndpointValidation:
    def test_unsafe_source_rejected(self, planner, target):
        with pytest.raises(UnsafeConfigurationError):
            planner.plan(Configuration(["E1"]), target)

    def test_unsafe_target_rejected(self, planner, source):
        with pytest.raises(UnsafeConfigurationError):
            planner.plan(source, Configuration(["D1", "D2", "D4", "E1"]))

    def test_unknown_component_rejected(self, planner, source):
        from repro.errors import UnknownComponentError

        with pytest.raises(UnknownComponentError):
            planner.plan(source, Configuration(["Z1"]))

    def test_trivial_plan_when_source_is_target(self, planner, source):
        plan = planner.plan(source, source)
        assert plan.steps == ()
        assert plan.total_cost == 0.0
        assert plan.configurations == (source,)

    def test_no_path_raises(self, planner, universe, target):
        # {D2,D5,E2} can reach the target, but the reverse direction from
        # the target back to the source is impossible (no -D5 action, and
        # E1 requires D4 which would need +D4 — also absent).
        source = universe.from_bits("0100101")
        with pytest.raises(NoSafePathError):
            planner.plan(target, source)


class TestPlanK:
    def test_costs_non_decreasing(self, planner, source, target):
        plans = planner.plan_k(source, target, 6)
        costs = [p.total_cost for p in plans]
        assert costs == sorted(costs)
        assert costs[0] == 50.0

    def test_alternates_distinct(self, planner, source, target):
        plans = planner.plan_k(source, target, 6)
        assert len({p.action_ids for p in plans}) == len(plans)

    def test_single_step_composite_is_a_valid_alternate(self, planner, source, target):
        plans = planner.plan_k(source, target, 20)
        assert ("A14",) in {p.action_ids for p in plans}
        a14_plan = next(p for p in plans if p.action_ids == ("A14",))
        assert a14_plan.total_cost == 150.0


class TestLazyPlanner:
    def test_same_optimal_cost_as_dijkstra(self, planner, source, target):
        assert planner.lazy_plan(source, target).total_cost == 50.0

    def test_valid_step_chain(self, planner, source, target):
        plan = planner.lazy_plan(source, target)
        config = source
        for step in plan.steps:
            config = step.action.apply(config)
            assert planner.space.is_safe(config)
        assert config == target

    def test_no_path_raises(self, planner, source, target):
        with pytest.raises(NoSafePathError):
            planner.lazy_plan(target, source)

    def test_expansion_budget_exhaustion_raises(self, planner, source, target):
        planner.max_components = 0  # only a set above the cap is searched
        with pytest.raises(NoSafePathError):
            planner.lazy_plan(source, target, max_expansions=1)


class TestPlanRendering:
    def test_describe_contains_steps_and_cost(self, planner, source, target):
        text = planner.plan(source, target).describe()
        assert "cost 50" in text
        assert "A2" in text and "replace D1 with D2" in text

    def test_participants(self, planner, source, target, universe):
        plan = planner.plan(source, target)
        by_action = {s.action.action_id: s.participants(universe) for s in plan.steps}
        assert by_action["A2"] == frozenset({"handheld"})
        assert by_action["A1"] == frozenset({"server"})
        assert by_action["A16"] == frozenset({"laptop"})
