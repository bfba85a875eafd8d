"""Eager k-best planning against the banned-set CSR Yen it replaced.

:meth:`AdaptationPlanner.plan_k` runs Yen's loop with every spur
answered by the two-phase corridor search over a banned view of the
built SAG; :func:`tests.oracles.csr_yen_reference.reference_plan_k` is
the former engine (a full banned-set Dijkstra over the CSR arrays per
spur).  Both must return the same plans — paths, costs and order — on
random systems (zero-cost actions and unreachable targets included), on
the replicated shapes the ``verify-paths`` benchmarks use, and whatever
the planner's caches hold.  The SAG's successor view is pinned to the
:class:`~repro.core.sag.LazySAG` arcs it mirrors, order included.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import (
    random_system,
    replicated_video_system,
    service_fleet_system,
)
from repro.core.actions import ActionLibrary
from repro.core.planner import LAZY_PLAN_COMPONENTS, AdaptationPlanner
from repro.errors import NoSafePathError
from tests.oracles.csr_yen_reference import reference_plan_k

SHAPES = {
    "video x3": lambda: replicated_video_system(3),
    "fleet x6": lambda: service_fleet_system(6),
    "video + 4 services": lambda: service_fleet_system(4, video_groups=1),
}


def _fresh(system):
    return AdaptationPlanner(system.universe, system.invariants, system.actions)


def _signatures(plans):
    return [(plan.action_ids, plan.total_cost, plan.configurations) for plan in plans]


def _assert_matches(planner, source, target, k):
    expected = _signatures(reference_plan_k(planner, source, target, k))
    assert _signatures(planner.plan_k(source, target, k)) == expected
    return expected


def _with_zero_costs(system, zeroed):
    """*system* with the actions whose index is in *zeroed* made free."""
    actions = ActionLibrary([
        dataclasses.replace(action, cost=0.0) if index in zeroed else action
        for index, action in enumerate(system.actions)
    ])
    return dataclasses.replace(system, actions=actions)


class TestRandomSystems:
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=40),
        st.sets(st.integers(min_value=0, max_value=11), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_pair_matches_the_oracle(self, seed, k, zeroed):
        system = _with_zero_costs(
            random_system(seed, n_components=6, n_invariants=2, n_actions=12),
            zeroed,
        )
        planner = _fresh(system)
        safe = planner.space.enumerate()[:8]
        for source in safe:
            for target in safe:
                _assert_matches(planner, source, target, k)

    def test_unreachable_target_gives_no_plans(self):
        for seed in range(200):
            system = random_system(seed, n_components=6, n_actions=4)
            planner = _fresh(system)
            safe = planner.space.enumerate()
            for source in safe:
                for target in safe:
                    try:
                        planner.plan(source, target)
                    except NoSafePathError:
                        assert _assert_matches(planner, source, target, 5) == []
                        assert planner.plan_k(source, target, 5) == []
                        return
        pytest.fail("no unreachable safe pair among the seeds")

    @given(st.integers(min_value=0, max_value=5_000), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_source_equals_target(self, seed, k):
        system = random_system(seed, n_components=6, n_actions=12)
        planner = _fresh(system)
        for config in planner.space.enumerate()[:4]:
            plans = _assert_matches(planner, config, config, k)
            assert len(plans) == 1 and plans[0][0] == () and plans[0][1] == 0.0

    def test_non_positive_k(self):
        system = replicated_video_system(1)
        planner = _fresh(system)
        assert planner.plan_k(system.source, system.target, 0) == []
        assert reference_plan_k(planner, system.source, system.target, 0) == []


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestReplicatedShapes:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_the_oracle(self, shape, data):
        system = SHAPES[shape]()
        assert len(system.universe) <= LAZY_PLAN_COMPONENTS
        planner = _fresh(system)
        masks = planner.space.enumerate_masks()
        source_mask = data.draw(st.sampled_from(masks))
        target_mask = data.draw(st.sampled_from(masks))
        k = data.draw(st.integers(min_value=1, max_value=40))
        from_mask = system.universe.from_mask
        _assert_matches(planner, from_mask(source_mask), from_mask(target_mask), k)

    def test_named_pair_k40(self, shape):
        system = SHAPES[shape]()
        planner = _fresh(system)
        plans = _assert_matches(planner, system.source, system.target, 40)
        assert plans and plans[0][0] == planner.plan(
            system.source, system.target
        ).action_ids


def test_above_the_cap_plan_k_searches_the_implicit_sag():
    system = service_fleet_system(9)  # 27 components
    assert len(system.universe) > LAZY_PLAN_COMPONENTS
    planner = _fresh(system)
    plans = planner.plan_k(system.source, system.target, 6)
    assert planner._sag is None and planner.space._cache is None
    lazy, complete = _fresh(system).lazy_plan_k(system.source, system.target, 6)
    assert complete and _signatures(plans) == _signatures(lazy)


class TestCaches:
    def test_plan_k_before_and_after_plan_and_reset(self):
        system = replicated_video_system(2)
        source, target = system.source, system.target
        planner = _fresh(system)
        first = _assert_matches(planner, source, target, 12)
        best = planner.plan(source, target)
        assert first[0] == _signatures([best])[0]
        assert _assert_matches(planner, source, target, 12) == first
        assert _assert_matches(planner, source, target, 20)[:12] == first
        planner.reset_caches()
        assert _assert_matches(planner, source, target, 12) == first

    def test_plan_first_then_plan_k(self):
        system = replicated_video_system(2)
        planner = _fresh(system)
        best = planner.plan(system.source, system.target)
        plans = _assert_matches(planner, system.source, system.target, 8)
        assert plans[0] == _signatures([best])[0]

    def test_cached_answer_is_a_fresh_list(self):
        system = replicated_video_system(1)
        planner = _fresh(system)
        first = planner.plan_k(system.source, system.target, 4)
        first.clear()
        assert len(planner.plan_k(system.source, system.target, 4)) == 4


class TestSuccessorView:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_csr_view_yields_the_lazy_arcs_in_order(self, shape):
        system = SHAPES[shape]()
        planner = _fresh(system)
        eager = planner.sag.banned_view(frozenset(), frozenset())
        lazy = planner.lazy_sag
        for mask in planner.space.enumerate_masks():
            assert list(eager(mask)) == list(lazy.successors(mask))

    @given(st.integers(min_value=0, max_value=5_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_banned_views_agree(self, seed, data):
        system = random_system(seed, n_components=6, n_actions=12)
        planner = _fresh(system)
        masks = planner.space.enumerate_masks()
        if not masks:
            return
        lazy = planner.lazy_sag
        banned_nodes = frozenset(data.draw(st.sets(st.sampled_from(masks), max_size=3)))
        arcs = [(mask, arc[0]) for mask in masks for arc in lazy.successors(mask)]
        banned_arcs = (
            frozenset(data.draw(st.sets(st.sampled_from(arcs), max_size=4)))
            if arcs else frozenset()
        )
        eager_view = planner.sag.banned_view(banned_nodes, banned_arcs)
        lazy_view = lazy.banned_view(banned_nodes, banned_arcs)
        for mask in masks:
            assert list(eager_view(mask)) == list(lazy_view(mask))
