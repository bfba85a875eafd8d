"""Batched planning (plan_many), the per-set table LRU, and cache correctness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system
from repro.core.actions import AdaptiveAction
from repro.core.planner import AdaptationPlanner
from repro.errors import NoSafePathError, UnsafeConfigurationError
from tests.oracles.graph_reference import shortest_path
from tests.oracles.map_reference import rule_plan


def try_plan(planner, source, target):
    try:
        return planner.plan(source, target)
    except (NoSafePathError, UnsafeConfigurationError):
        return None


def safe_configs(planner):
    return planner.space.enumerate()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_plan_matches_dict_graph_reference(seed):
    """plan() costs are pinned to shortest_path over the dict SAG, and its
    paths to the MAP contract's brute force."""
    system = random_system(seed)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    configs = safe_configs(planner)
    if not configs:
        return
    for source in configs[:4]:
        for target in configs[:6]:
            expected = shortest_path(planner.sag.graph, source, target)
            got = try_plan(planner, source, target)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got.total_cost == expected.cost
                assert got.action_ids == rule_plan(planner, source, target).action_ids


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_plan_many_equals_sequential_plan(seed):
    system = random_system(seed)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    configs = safe_configs(planner)
    if len(configs) < 2:
        return
    pairs = [
        (configs[i % len(configs)], configs[(i * 3 + 1) % len(configs)])
        for i in range(10)
    ]
    fresh = AdaptationPlanner(system.universe, system.invariants, system.actions)
    batched = planner.plan_many(pairs)
    assert len(batched) == len(pairs)
    for (source, target), plan in zip(pairs, batched):
        expected = try_plan(fresh, source, target)
        if expected is None:
            assert plan is None
        else:
            assert plan is not None
            assert plan.action_ids == expected.action_ids
            assert plan.total_cost == expected.total_cost


def test_plan_many_writes_through_to_plan_cache(planner, source, target):
    results = planner.plan_many([(source, target)])
    assert results[0] is not None
    hit, cached = planner.peek_plan(source, target)
    assert hit and cached is results[0]
    # and plan() serves the same object from the cache
    assert planner.plan(source, target) is results[0]


def test_set_table_cache_is_lru_bounded(universe, invariants, actions, monkeypatch):
    monkeypatch.setattr(AdaptationPlanner, "SET_TABLE_CACHE_SIZE", 2)
    planner = AdaptationPlanner(universe, invariants, actions)
    configs = safe_configs(planner)
    assert len(configs) >= 4
    for config in configs[:4]:
        planner.plan_many([(configs[-1], config)])
    tables = planner._set_distances._tables
    assert len(tables) == 2
    # the video system is one collaborative set: the most recently used
    # targets' tables survive
    mask_of = planner.universe.mask_of
    assert list(tables) == [(0, mask_of(configs[2])), (0, mask_of(configs[3]))]


def test_cached_none_is_distinct_from_cache_miss(planner):
    configs = safe_configs(planner)
    # the video SAG is one-way: target bits 1010010 cannot reach source
    unreachable = [
        (a, b)
        for a in configs
        for b in configs
        if shortest_path(planner.sag.graph, a, b) is None
    ]
    assert unreachable, "workload must contain an unreachable pair"
    source, target = unreachable[0]
    miss_hit, _ = planner.peek_plan(source, target)
    assert not miss_hit  # never planned: a miss, not a cached None
    assert planner.plan_many([(source, target)]) == [None]
    hit, cached = planner.peek_plan(source, target)
    assert hit and cached is None  # now a cached unreachable verdict
    # plan() answers from the cached None without re-planning: breaking
    # the planning route proves it
    planner._map_path = None  # type: ignore[method-assign]
    with pytest.raises(NoSafePathError):
        planner.plan(source, target)


def test_reset_caches_drops_spt_and_csr_state(planner, source, target):
    """Every derived cache goes: the per-set tables (which replaced the
    shortest-path trees), the plan cache, the kept alternates, the Yen
    states and the SAG with its CSR view."""
    planner.plan_many([(source, target)])
    first = planner.plan(source, target).steps[0]
    planner.plan_avoiding(source, target, [(first.source, first.action.action_id)])
    assert planner._set_distances and planner._plan_cache and planner._avoiding
    old_sag = planner.sag
    assert old_sag.csr is old_sag.csr  # cached view
    planner.reset_caches()
    assert planner._set_distances is None
    assert not planner._plan_cache
    assert not planner._avoiding
    assert not planner._k_best
    assert planner.sag is not old_sag


def test_a_fresh_plan_builds_no_sag_and_no_tree(planner, source, target):
    plan = planner.plan(source, target)
    assert plan.total_cost == 50.0
    assert planner._sag is None and planner._lazy_sag is None
    assert planner.space._cache is None  # the safe space was not enumerated either


def test_a_built_sag_changes_no_answer(planner, source, target):
    configs = safe_configs(planner)
    fresh = AdaptationPlanner(planner.universe, planner.invariants, planner.actions)
    planner.sag
    for other in configs:
        assert try_plan(planner, source, other) == try_plan(fresh, source, other)
    # every answer came off the tables: neither SAG was searched
    assert planner._lazy_sag is None and fresh._sag is None


def test_mutating_action_library_never_serves_stale_path(
    universe, invariants, actions, source, target
):
    """The regression the satellite asks for: add a cheaper action, replan."""
    planner = AdaptationPlanner(universe, invariants, actions)
    before = planner.plan(source, target)
    assert before.total_cost == 50.0
    failed = [(before.source, before.steps[0].action.action_id)]
    assert planner.plan_avoiding(source, target, failed) is not None
    # a direct (legal) jump that the SAG did not contain before
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
    after = planner.plan(source, target)
    assert after.action_ids == ("A99",)
    assert after.total_cost == 1.0
    # batched and k-best answers rebuilt too — no stale table anywhere
    assert planner.plan_many([(source, target)])[0].action_ids == ("A99",)
    assert planner.plan_k(source, target, 2)[0].action_ids == ("A99",)
    assert planner.plan_avoiding(source, target, failed).action_ids == ("A99",)


def test_plan_many_rejects_unsafe_endpoints(planner, universe, source):
    from repro.core.model import Configuration

    unsafe = Configuration(frozenset())  # violates one_of(D1,D2,D3) etc.
    with pytest.raises(UnsafeConfigurationError):
        planner.plan_many([(source, unsafe)])
