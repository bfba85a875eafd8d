"""Lazy frontier planning: ``lazy_plan`` must equal eager ``plan`` exactly.

The contract under test is stronger than "same cost": on every universe
where the eager CSR pipeline is defined, ``lazy_plan`` must return the
*identical* plan — same action ids in the same order, same cost, same
intermediate configurations — because both share one relax rule and one
tie-break, and the lazy path replays it under a proven cost bound.  The
suite also pins the cache semantics (write-through into ``_plan_cache``,
budget exhaustion never cached) and the stale-cache regression from the
PR-5 ``reset_caches`` contract.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system, replicated_video_system
from repro.core.actions import AdaptiveAction
from repro.core.model import Configuration
from repro.core.planner import AdaptationPlanner
from repro.core.sag import LazySAG
from repro.core.space import SafeConfigurationSpace
from repro.errors import NoSafePathError, UnsafeConfigurationError


def _planners(system):
    eager = AdaptationPlanner(system.universe, system.invariants, system.actions)
    lazy = AdaptationPlanner(system.universe, system.invariants, system.actions)
    return eager, lazy


def _assert_identical(eager_planner, lazy_planner, a, b):
    try:
        expected = eager_planner.plan(a, b)
    except NoSafePathError:
        with pytest.raises(NoSafePathError):
            lazy_planner.lazy_plan(a, b)
        return
    got = lazy_planner.lazy_plan(a, b)
    assert got.action_ids == expected.action_ids
    assert got.total_cost == expected.total_cost
    assert got.configurations == expected.configurations


class TestExactIdentity:
    def test_video_all_ordered_pairs(self, planner):
        """Every safe->safe ordered pair of the paper's video system."""
        system = replicated_video_system(1)
        eager, lazy = _planners(system)
        safe = eager.space.enumerate()
        assert len(safe) == 8
        for a in safe:
            for b in safe:
                _assert_identical(eager, lazy, a, b)
        # the whole point of the lazy path: no SAG was ever compiled
        assert lazy._sag is None
        assert lazy.space._cache is None

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_random_systems(self, seed):
        system = random_system(seed, n_components=7, n_invariants=3, n_actions=10)
        eager, lazy = _planners(system)
        safe = eager.space.enumerate()[:12]
        for a in safe:
            for b in safe:
                _assert_identical(eager, lazy, a, b)

    def test_paper_map_cost(self, planner, source, target):
        plan = planner.lazy_plan(source, target)
        assert plan.total_cost == 50.0
        assert len(plan) == 5


class TestEndpoints:
    def test_unsafe_source_rejected(self, planner, target):
        with pytest.raises(UnsafeConfigurationError):
            planner.lazy_plan(Configuration(["E1"]), target)

    def test_unsafe_target_rejected(self, planner, source):
        with pytest.raises(UnsafeConfigurationError):
            planner.lazy_plan(source, Configuration(["E1"]))

    def test_trivial_self_plan(self, planner, source):
        plan = planner.lazy_plan(source, source)
        assert len(plan) == 0
        assert plan.total_cost == 0.0


class TestCacheSemantics:
    def test_write_through_into_plan_cache(self, planner, source, target):
        first = planner.lazy_plan(source, target)
        hit, cached = planner.peek_plan(source, target)
        assert hit and cached is first
        # eager plan() answers from the same cache without compiling a SAG
        assert planner.plan(source, target) is first
        assert planner._sag is None

    def test_unreachable_cached_as_none(self, planner, source, target):
        # the video SAG is one-way: the paper target cannot reach the source
        with pytest.raises(NoSafePathError):
            planner.lazy_plan(target, source)
        hit, cached = planner.peek_plan(target, source)
        assert hit and cached is None

    def test_budget_exhaustion_raises_and_is_not_cached(
        self, planner, source, target
    ):
        # the budget bounds the search a set above the cap needs
        planner.max_components = 0
        with pytest.raises(NoSafePathError):
            planner.lazy_plan(source, target, max_expansions=1)
        hit, _ = planner.peek_plan(source, target)
        assert not hit  # "ran out of budget" is not an unreachability verdict
        assert planner.lazy_plan(source, target).total_cost == 50.0

    def test_mutating_action_library_never_serves_stale_path(
        self, universe, invariants, actions, source, target
    ):
        """The PR-5 regression, replayed through the lazy path."""
        planner = AdaptationPlanner(universe, invariants, actions)
        before = planner.lazy_plan(source, target)
        assert before.total_cost == 50.0
        actions.add(
            AdaptiveAction(
                "A99",
                removes=source.members - target.members,
                adds=target.members - source.members,
                cost=1.0,
                description="atomic swap for the regression test",
            )
        )
        planner.reset_caches()
        after = planner.lazy_plan(source, target)
        assert after.action_ids == ("A99",)
        assert after.total_cost == 1.0
        # and the eager path agrees post-reset
        assert planner.plan(source, target).action_ids == ("A99",)


class TestLazySafeSpace:
    """The point queries the former ``LazySafeSpace`` answered, on the one
    safe-space class: memoized, and never enumerating."""

    def test_memo_without_enumeration(self, universe, invariants):
        space = SafeConfigurationSpace(universe, invariants)
        mask = universe.mask_of_names(["D2", "E1", "D4"])
        assert space.is_safe_mask(mask) is True
        assert space.are_safe_masks([mask, 0]) == [True, False]
        assert space.safe_memo[mask] is True
        assert space._cache is None

    def test_agrees_with_eager_space(self, universe, invariants):
        safe = set(SafeConfigurationSpace(universe, invariants).enumerate_masks())
        space = SafeConfigurationSpace(universe, invariants)
        for mask in range(2 ** len(universe)):
            assert space.is_safe_mask(mask) == (mask in safe)
        assert space._cache is None

    def test_require_safe_raises_with_explanation(self, universe, invariants):
        space = SafeConfigurationSpace(universe, invariants)
        with pytest.raises(UnsafeConfigurationError):
            space.require_safe(Configuration(["E1"]), role="source")


class TestLazySAG:
    def test_arcs_match_eager_sag(self, planner, universe, invariants, actions):
        eager_sag = planner.sag
        space = SafeConfigurationSpace(universe, invariants)
        for cap in (None, 24):  # the compiled arcs, then the factored ones
            lazy = LazySAG(space, actions, cap)
            assert (lazy._factored is None) == (cap is None)
            for config in planner.space.enumerate():
                mask = universe.mask_of(config)
                assert list(lazy.successors(mask)) == list(eager_sag.successors(mask))

    def test_successor_cache(self, universe, invariants, actions):
        # no per-mask cache on either arc source: every call recomputes
        # the arcs and counts as an expansion
        space = SafeConfigurationSpace(universe, invariants)
        mask = universe.mask_of_names(["D2", "E1", "D4"])
        for cap in (None, 24):
            lazy = LazySAG(space, actions, cap)
            first = lazy.successors(mask)
            second = lazy.successors(mask)
            assert second == first and second is not first
            assert lazy.expanded_nodes == 2


class TestBeyondTheBarrier:
    def test_35_component_local_plan_without_materialization(self):
        system = replicated_video_system(5)
        assert len(system.universe) == 35
        planner = AdaptationPlanner(
            system.universe, system.invariants, system.actions
        )
        local_target = Configuration(
            [m for m in system.source.members if "@g0" not in m]
            + [m for m in system.target.members if "@g0" in m]
        )
        plan = planner.lazy_plan(system.source, local_target)
        assert plan.total_cost == 50.0
        assert planner._sag is None
        assert planner.space._cache is None
