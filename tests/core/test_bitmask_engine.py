"""Unit tests for the bitmask planning engine's plumbing.

Covers the pieces the property tests don't: the universe's mask codec,
the shared safety memo, restricted enumeration on the pruner, and the
planner's incremental caches.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.video.system import (
    paper_source,
    paper_target,
    video_invariants,
    video_planner,
    video_universe,
)
from repro.bench.workloads import random_system
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.space import SafeConfigurationSpace
from repro.errors import NoSafePathError, UnknownComponentError


class TestMaskCodec:
    def test_mask_matches_bit_string(self):
        universe = video_universe()
        for config in universe.all_configurations():
            assert universe.mask_of(config) == int(universe.to_bits(config), 2)

    def test_from_mask_roundtrip(self):
        universe = video_universe()
        for mask in range(len(universe) ** 2):
            assert universe.mask_of(universe.from_mask(mask)) == mask

    def test_from_mask_interns(self):
        universe = video_universe()
        assert universe.from_mask(5) is universe.from_mask(5)

    def test_mask_of_unknown_member_raises(self):
        universe = video_universe()
        with pytest.raises(UnknownComponentError):
            universe.mask_of(Configuration(["Z9"]))

    def test_from_mask_out_of_range(self):
        from repro.errors import ConfigurationError

        universe = video_universe()
        with pytest.raises(ConfigurationError):
            universe.from_mask(1 << len(universe))

    def test_atom_bits_msb_first(self):
        universe = ComponentUniverse.from_names(["X", "Y", "Z"])
        assert universe.atom_bits == {"X": 4, "Y": 2, "Z": 1}
        assert universe.full_mask == 7


class TestSafetyMemo:
    def test_is_safe_mask_memoizes(self):
        space = SafeConfigurationSpace(video_universe(), video_invariants())
        mask = space.universe.mask_of(paper_source())
        assert space.is_safe_mask(mask) is True
        assert space.safe_memo[mask] is True

    def test_enumeration_populates_memo(self):
        space = SafeConfigurationSpace(video_universe(), video_invariants())
        safe = space.enumerate()
        for config in safe:
            assert space.safe_memo[space.universe.mask_of(config)] is True

    def test_is_safe_falls_back_for_foreign_members(self):
        space = SafeConfigurationSpace(video_universe(), video_invariants())
        # no mask encoding, but set evaluation still answers
        assert not space.is_safe(Configuration(["Z9", "E1"]))

    def test_enumerate_masks_aligns_with_enumerate(self):
        space = SafeConfigurationSpace(video_universe(), video_invariants())
        masks = space.enumerate_masks()
        assert masks == tuple(
            space.universe.mask_of(c) for c in space.enumerate()
        )


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=20, deadline=None)
def test_are_safe_masks_matches_pointwise(seed):
    """Batched verdicts == mapped is_safe_mask, on both space classes,
    and an eager space and its lazy view share one plain-dict memo."""
    system = random_system(seed, n_components=8, n_invariants=4, n_actions=8)
    masks = [(seed * 2654435761 + i * 40503) % 256 for i in range(32)]
    space = SafeConfigurationSpace(system.universe, system.invariants)
    lazy = space.lazy_view()
    assert type(space.safe_memo) is dict
    assert lazy.safe_memo is space.safe_memo
    # half the batch through the lazy view first: the eager side then
    # answers those masks from the shared memo
    lazy_first = lazy.are_safe_masks(masks[:16])
    assert lazy_first == [lazy.is_safe_mask(m) for m in masks[:16]]
    assert space.are_safe_masks(masks) == [space.is_safe_mask(m) for m in masks]
    assert space.are_safe_masks(masks[:16]) == lazy_first
    assert lazy.are_safe_masks(masks) == [lazy.is_safe_mask(m) for m in masks]
    # every verdict in the shared memo is the invariant conjunction's own
    universe, invariants = system.universe, system.invariants
    assert set(masks) <= set(space.safe_memo)
    for mask, verdict in space.safe_memo.items():
        assert verdict is invariants.all_hold(universe.from_mask(mask))
    # repeat: second batch is answered from the memo, same verdicts
    assert space.are_safe_masks(masks) == [space.is_safe_mask(m) for m in masks]


class TestRestrictedEnumeration:
    def test_pruner_matches_exhaustive_sweep(self):
        universe = video_universe()
        space = SafeConfigurationSpace(universe, video_invariants())
        base = paper_source()
        for free in (["D1", "D2", "D3"], ["E1", "E2"], list(universe.order)):
            got = space.enumerate_restricted(base, free)
            frozen = base.members - frozenset(free)
            expected = tuple(
                sorted(
                    (
                        c
                        for c in universe.all_configurations()
                        if space.is_safe(c)
                        and c.members - frozenset(free) == frozen
                        and all(
                            (m in c.members) == (m in base.members)
                            for m in universe.order
                            if m not in free
                        )
                    ),
                    key=universe.to_bits,
                )
            )
            assert got == expected, free

    def test_unsatisfiable_restriction_is_empty(self):
        universe = video_universe()
        space = SafeConfigurationSpace(universe, video_invariants())
        # freeze everything absent: no decoder can be selected
        assert space.enumerate_restricted(Configuration(), ["D4"]) == ()


class TestPlannerCaches:
    def test_plan_is_cached_per_endpoints(self):
        planner = video_planner()
        first = planner.plan(paper_source(), paper_target())
        second = planner.plan(paper_source(), paper_target())
        assert second is first

    def test_plan_k_is_cached(self):
        planner = video_planner()
        first = planner.plan_k(paper_source(), paper_target(), 3)
        second = planner.plan_k(paper_source(), paper_target(), 3)
        assert [p.action_ids for p in first] == [p.action_ids for p in second]
        assert second is not first  # fresh list, cached contents

    def test_no_path_is_cached_and_still_raises(self):
        universe = ComponentUniverse.from_names(["A", "B"])
        space_invariants = InvariantSet.of()
        from repro.core.actions import ActionLibrary, AdaptiveAction
        from repro.core.planner import AdaptationPlanner

        planner = AdaptationPlanner(
            universe,
            space_invariants,
            ActionLibrary([AdaptiveAction.insert("I1", "A", 1.0)]),
        )
        for _ in range(2):
            with pytest.raises(NoSafePathError):
                planner.plan(Configuration(["A"]), Configuration(["B"]))

    def test_reset_caches_clears_plans_and_sag(self):
        planner = video_planner()
        plan = planner.plan(paper_source(), paper_target())
        sag = planner.sag
        planner.reset_caches()
        assert planner.sag is not sag
        assert planner.plan(paper_source(), paper_target()) is not plan

    def test_lazy_plan_equals_sag_plan(self):
        planner = video_planner()
        eager = planner.plan(paper_source(), paper_target())
        planner.reset_caches()  # otherwise lazy_plan is a plan-cache hit
        lazy = planner.lazy_plan(paper_source(), paper_target())
        assert lazy == eager
        assert lazy.configurations[0] == paper_source()
        assert lazy.configurations[-1] == paper_target()

