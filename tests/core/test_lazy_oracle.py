"""Lazy planning against the former two-phase search.

:meth:`AdaptationPlanner.lazy_plan` reads the MAP off the per-set tables,
and the spurs of :meth:`AdaptationPlanner.lazy_plan_k` run a deep-tie A*
probe under the per-collaborative-set heuristic and a replay confined to
the optimal corridor; :class:`tests.oracles.lazy_reference.
ReferenceLazyPlanner` is the search they replaced (weak mask bound,
uniform-cost replay over the whole cost ellipse).  MAP costs must equal
the oracle's, and the k-best lists — paths, costs and order — and the
completeness flag must too, with the oracle's Yen loop started from the
same MAP.  Below the enumeration cap the MAP must be the contract's
(:func:`tests.oracles.map_reference.rule_plan`) and the lists the eager
ones.  The heuristic itself is pinned to be consistent on every arc and
zero at the target.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system, replicated_video_system
from repro.core.collaborative import SetDistanceHeuristic
from repro.core.model import Configuration
from repro.core.planner import LAZY_PLAN_COMPONENTS, AdaptationPlanner
from repro.errors import NoSafePathError
from repro.graphs.astar import astar_cost, corridor_search
from repro.graphs.digraph import Edge, Path as MaskPath
from repro.manifest import load_path
from tests.oracles.lazy_reference import ReferenceLazyPlanner
from tests.oracles.map_reference import rule_path

FLEET = Path(__file__).resolve().parents[2] / "examples" / "fleet30.manifest"
SERVICES = 10


@pytest.fixture(scope="module")
def fleet():
    return load_path(str(FLEET))


def _fresh(system):
    return AdaptationPlanner(system.universe, system.invariants, system.actions)


def _signature(plan):
    return plan.action_ids, plan.total_cost, plan.configurations


def _lazy_plan_or_none(planner, source, target):
    try:
        return _signature(planner.lazy_plan(source, target))
    except NoSafePathError:
        return None


def _lazy_plan_k(planner, source, target, k, **first):
    plans, complete = planner.lazy_plan_k(source, target, k, **first)
    return [_signature(plan) for plan in plans], complete


def _mask_path(planner, plan):
    """*plan* as the mask-level :class:`Path` the oracle's Yen loop takes."""
    nodes = tuple(map(planner.universe.mask_of, plan.configurations))
    return MaskPath(nodes=nodes, edges=tuple(
        Edge(nodes[i], nodes[i + 1], step.action.action_id, step.action.cost)
        for i, step in enumerate(plan.steps)
    ), cost=plan.total_cost)


def _assert_pair_matches_oracle(make_planner, source, target, k, eager=None):
    planner = make_planner()
    try:
        plan = planner.lazy_plan(source, target)
    except NoSafePathError:
        plan = None
    got = None if plan is None else _signature(plan)
    ref = _lazy_plan_or_none(ReferenceLazyPlanner(make_planner()), source, target)
    assert (got is None) == (ref is None)
    if got is not None:
        assert got[1] == ref[1]
    if eager is not None:
        mask_of = eager.universe.mask_of
        first = rule_path(eager, mask_of(source), mask_of(target))
    else:  # too large to build: the oracle's loop starts from the MAP
        first = None if plan is None else _mask_path(planner, plan)
    got_k = _lazy_plan_k(make_planner(), source, target, k)
    ref_k = _lazy_plan_k(
        ReferenceLazyPlanner(make_planner()), source, target, k, first=first
    )
    assert got_k == ref_k
    if eager is not None:
        expected = None if first is None else _signature(eager._plan_from_mask_path(
            source, target, first.nodes, first.labels, first.cost
        ))
        assert got == expected
        assert got_k[0] == [
            _signature(plan) for plan in eager.plan_k(source, target, k)
        ]


class TestRandomSystems:
    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_and_eager(self, seed, k):
        system = random_system(seed, n_components=7, n_invariants=3, n_actions=10)
        eager = _fresh(system)
        safe = eager.space.enumerate()[:6]
        for source in safe:
            for target in safe:
                _assert_pair_matches_oracle(
                    lambda: _fresh(system), source, target, k, eager
                )

    @pytest.mark.parametrize("groups", [1, 2])
    def test_replicated_video_matches_oracle_and_eager(self, groups):
        system = replicated_video_system(groups)
        eager = _fresh(system)
        _assert_pair_matches_oracle(
            lambda: _fresh(system), system.source, system.target, 4, eager
        )


def _fleet_config(variants):
    return Configuration(f"S{service}v{variant}" for service, variant in enumerate(variants))


@st.composite
def fleet_pairs(draw, max_apart=4):
    """A source assignment and a target moving at most *max_apart* services."""
    source = draw(st.lists(st.integers(1, 3), min_size=SERVICES, max_size=SERVICES))
    moved = draw(
        st.lists(st.integers(0, SERVICES - 1), max_size=max_apart, unique=True)
    )
    target = list(source)
    for service in moved:
        target[service] = draw(st.integers(1, 3).filter(lambda v, s=source[service]: v != s))
    return _fleet_config(source), _fleet_config(target)


class TestFleet30:
    @given(fleet_pairs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_matches_oracle(self, fleet, pair, k):
        source, target = pair
        assert len(fleet.universe) > LAZY_PLAN_COMPONENTS
        _assert_pair_matches_oracle(fleet.planner, source, target, k)

    def test_named_pair_k8_matches_oracle_without_enumerating(self, fleet):
        baseline = fleet.configurations["baseline"]
        canary = fleet.configurations["canary"]
        planner = fleet.planner()
        got = _lazy_plan_k(planner, baseline, canary, 8)
        ref = _lazy_plan_k(ReferenceLazyPlanner(fleet.planner()), baseline, canary, 8)
        assert got == ref and got[1]
        assert planner._sag is None
        assert planner.space._cache is None


class TestSharedBudget:
    def test_one_budget_covers_both_phases(self, planner, source, target):
        """A budget that covers the probe and the replay each alone, but
        not their sum, is exhausted: the two phases share it.  The search
        runs only for a set above the cap, so the cap is lowered."""
        planner.max_components = 0
        universe = planner.universe
        source_mask, target_mask = universe.mask_of(source), universe.mask_of(target)
        heuristic = planner._lazy_heuristic(source_mask, target_mask)
        successors = planner.lazy_sag.successors
        probe: dict = {}
        cost = astar_cost(source_mask, target_mask, successors, heuristic, stats=probe)
        replay: dict = {}
        corridor_search(
            source_mask, target_mask, successors, heuristic, cost, stats=replay
        )
        spent = probe["expansions"], replay["expansions"]
        assert min(spent) >= 1
        with pytest.raises(NoSafePathError):
            planner.lazy_plan(source, target, max_expansions=max(spent))
        assert planner.lazy_plan(source, target, max_expansions=sum(spent)).total_cost == 50.0


def _assert_consistent(planner, source_mask, target_mask, masks, heuristic=None):
    if heuristic is None:
        heuristic = planner._lazy_heuristic(source_mask, target_mask)
    assert heuristic(target_mask) == 0.0
    for mask in masks:
        here = heuristic(mask)
        for _action, weight, nxt in planner.lazy_sag.successors(mask):
            there = heuristic(nxt)
            if here == math.inf:
                assert there == math.inf  # nxt reaching the target would reach it too
            else:
                assert here <= weight + there + 1e-9 * (1.0 + here)


class TestHeuristic:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=40, deadline=None)
    def test_consistent_and_admissible_on_random_systems(self, seed):
        system = random_system(seed, n_components=7, n_invariants=3, n_actions=10)
        planner = _fresh(system)
        masks = planner.space.enumerate_masks()
        csr = _fresh(system).sag.csr
        for source_mask in masks[:3]:
            tree = csr.shortest_path_tree(source_mask)
            for target_mask in masks[:6]:
                heuristic = planner._lazy_heuristic(source_mask, target_mask)
                _assert_consistent(planner, source_mask, target_mask, masks, heuristic)
                # admissible: never above the true (eager) distance
                distance = tree.distance_to(target_mask)
                if distance is not None:
                    assert heuristic(source_mask) <= distance + 1e-9 * (1.0 + distance)

    @given(fleet_pairs(max_apart=SERVICES), st.lists(
        st.lists(st.integers(1, 3), min_size=SERVICES, max_size=SERVICES),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=25, deadline=None)
    def test_consistent_on_fleet30(self, fleet, pair, others):
        planner = fleet.planner()
        mask_of = planner.universe.mask_of
        source_mask, target_mask = mask_of(pair[0]), mask_of(pair[1])
        masks = [mask_of(_fleet_config(variants)) for variants in others]
        _assert_consistent(planner, source_mask, target_mask, masks)

    @given(st.integers(min_value=0, max_value=5_000), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_mask_bound_sets_stay_consistent(self, seed, cap):
        """Sets above the cap fall back to the per-set mask bound."""
        system = random_system(seed, n_components=7, n_invariants=3, n_actions=10)
        planner = _fresh(system)
        masks = planner.space.enumerate_masks()
        if not masks:
            return
        tables = SetDistanceHeuristic(planner.space, planner.actions, cap, 4)
        for target_mask in masks[:4]:
            heuristic = tables.for_query(masks[0], target_mask)
            _assert_consistent(planner, masks[0], target_mask, masks, heuristic)

    def test_exact_on_fleet30(self, fleet):
        """Every changed set is within the cap, so h is the true distance."""
        baseline = fleet.configurations["baseline"]
        target = _fleet_config([3, 2, 1, 3, 1, 1, 1, 1, 1, 2])
        planner = fleet.planner()
        mask_of = planner.universe.mask_of
        heuristic = planner._lazy_heuristic(mask_of(baseline), mask_of(target))
        assert heuristic(mask_of(baseline)) == planner.lazy_plan(baseline, target).total_cost

    def test_reset_caches_drops_the_tables(self, fleet):
        planner = fleet.planner()
        planner.lazy_plan(fleet.configurations["baseline"], fleet.configurations["canary"])
        assert planner._set_distances is not None
        planner.reset_caches()
        assert planner._set_distances is None
