"""Lone plan queries off the per-set tables, and the factored SAG view.

A cold :meth:`AdaptationPlanner.plan` reads the plan off the exact
per-set tables instead of building the SAG; the banned searches read
:class:`repro.core.collaborative.FactoredSAG`, which reads a mask's arcs
off the collaborative factors' sub-SAGs.  Over the random multi-set
systems of ``test_factored_build`` (interleaved bits, interleaved
libraries, idle and loose sets, foreign atoms and actions, empty
factors) the view is pinned to :attr:`SafeAdaptationGraph.successors`
mask by mask, and the plans to the MAP contract's brute force
(:func:`tests.oracles.map_reference.rule_plan`): path and cost, cached
unreachable verdicts and ``source == target`` included, and on dense
one-set systems whose equal-cost paths differ in length.  A factor above
the cap falls back to the search over the compiled arcs, with
Dijkstra's tie-break.
"""

import gc
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system
from repro.core.collaborative import FactoredSAG
from repro.core.model import Configuration
from repro.core.planner import AdaptationPlanner
from repro.core.space import SafeConfigurationSpace
from repro.errors import NoSafePathError
from repro.ltl import verify_paths
from repro.manifest import load_path
from tests.core.test_factored_build import multi_set_systems
from tests.oracles.graph_reference import shortest_path
from tests.oracles.map_reference import corridor_plan, rule_plan

FLEET30 = Path(__file__).resolve().parents[2] / "examples" / "fleet30.manifest"


def _plan_or_none(plan, source, target):
    try:
        return plan(source, target)
    except NoSafePathError:
        return None


@given(multi_set_systems())
@settings(max_examples=150, deadline=None)
def test_view_arcs_are_the_built_arcs(system):
    universe, invariants, actions = system
    planner = AdaptationPlanner(universe, invariants, actions)
    view = FactoredSAG.fitting(
        SafeConfigurationSpace(universe, invariants), actions, len(universe)
    )
    assert view is not None
    built = planner.sag.successors
    point = planner.lazy_sag.successors
    for mask in planner.space.enumerate_masks():
        expected = list(built(mask))
        assert view.successors(mask) == expected
        assert list(point(mask)) == expected
    assert view.expanded_nodes == len(planner.space.enumerate_masks())


@st.composite
def dense_systems(draw):
    """One-set systems with many actions: cost ties between paths of
    different lengths, where the hop tie-break decides."""
    system = random_system(
        draw(st.integers(0, 10_000)), n_components=6, n_invariants=2, n_actions=12
    )
    return system.universe, system.invariants, system.actions


@given(st.one_of(multi_set_systems(), dense_systems()), st.data())
@settings(max_examples=150, deadline=None)
def test_cold_plans_follow_the_rule(system, data):
    universe, invariants, actions = system
    reference = AdaptationPlanner(universe, invariants, actions)
    configs = reference.space.enumerate()
    if not configs:
        return
    sources = data.draw(
        st.lists(st.sampled_from(configs), min_size=1, max_size=2, unique=True)
    )
    planner = AdaptationPlanner(universe, invariants, actions)
    for source in sources:
        for target in configs:  # source == target and unreachable ones too
            expected = rule_plan(reference, source, target)
            got = _plan_or_none(planner.plan, source, target)
            assert got == expected
            if expected is not None:
                assert got.total_cost == expected.total_cost
            # a cached verdict either way, the unreachable None included
            assert planner.peek_plan(source, target) == (True, expected)
    # every answer came off the tables: no SAG, no search
    assert planner._sag is None and planner._lazy_sag is None


@given(multi_set_systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_factor_above_the_cap_falls_back_to_the_compiled_arcs(system, data):
    universe, invariants, actions = system
    reference = AdaptationPlanner(universe, invariants, actions)
    configs = reference.space.enumerate()
    if not configs:
        return
    source, target = data.draw(st.sampled_from(configs)), data.draw(st.sampled_from(configs))
    planner = AdaptationPlanner(universe, invariants, actions)
    planner.max_components = 0  # every factor with actions is above it
    lazy = planner.lazy_sag
    factored = FactoredSAG.fitting(planner.space, actions, 0)
    assert (lazy._factored is None) == (factored is None)
    expected = shortest_path(reference.sag.graph, source, target)
    got = _plan_or_none(planner.lazy_plan, source, target)
    if expected is None:
        assert got is None
    else:
        assert (got.action_ids, got.total_cost) == (expected.labels, expected.cost)


def test_equal_cost_paths_break_ties_by_hops():
    """A seed whose equal-cost plans differ in length: the plan takes the
    fewest steps, as Dijkstra's does, then the lowest action index at each
    step (``R1`` before ``R4``), where Dijkstra's takes the first
    relaxation (``R4, R7, R1``)."""
    system = random_system(314, n_components=6, n_invariants=2, n_actions=12)
    reference = AdaptationPlanner(system.universe, system.invariants, system.actions)
    source = Configuration(["C0", "C4", "C5"])
    for target, action_ids in (
        (Configuration(["C0", "C1"]), ("R4", "R7")),
        (Configuration(["C0", "C1", "C2"]), ("R1", "R4", "R7")),
    ):
        expected = rule_plan(reference, source, target)
        planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
        assert planner.plan(source, target) == expected
        assert expected.action_ids == action_ids
        assert len(expected) == len(corridor_plan(reference, source, target))


def test_an_unreachable_target_is_cached_as_none():
    from repro.bench import replicated_video_system

    system = replicated_video_system(1)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    # the video SAG is one-way: the target cannot reach the source
    with pytest.raises(NoSafePathError):
        planner.plan(system.target, system.source)
    assert planner.peek_plan(system.target, system.source) == (True, None)
    assert planner._sag is None and planner._lazy_sag is None


def _fleet30_pairs(planner, count, rng):
    """*count* random fleet30 pairs, 1-4 services moved."""
    groups, _ = planner.space.factorization.action_sets(planner.actions)
    projections = [planner.space.projections(group) for group in groups]
    pairs = []
    for _ in range(count):
        base = [rng.choice(choices) for choices in projections]
        moved = list(base)
        for index in rng.sample(range(len(projections)), rng.randint(1, 4)):
            moved[index] = rng.choice(projections[index])
        pairs.append(tuple(planner.universe.from_mask(sum(m)) for m in (base, moved)))
    return pairs


def test_fleet30_lone_queries_keep_nothing_per_mask():
    """500 random fleet30 lone queries, then k-best lists (``lazy_plan_k``,
    k = 4) and ``verify_paths`` (k = 8) on 60 random pairs each: the lone
    queries expand nothing, the implicit SAG keeps no per-mask arcs, and
    each k-best memo is dropped with its query, so what the planner holds
    beyond its plan caches stays flat (a memo kept across k-best queries
    held ~50 MB after 150 ``verify_paths`` pairs; the compiled-arc cache
    of lone queries held ~5 MB after these 500)."""
    manifest = load_path(FLEET30)
    planner = manifest.planner()
    rng = random.Random(0)
    pairs = _fleet30_pairs(planner, 500, rng)
    k_pairs = _fleet30_pairs(planner, 60, rng)
    verify_pairs = _fleet30_pairs(planner, 60, rng)
    phi = manifest.properties["service0 specified"]
    baseline = manifest.configurations["baseline"]
    canary = manifest.configurations["canary"]
    planner.lazy_plan(baseline, canary)
    planner.lazy_plan_k(baseline, canary, 4)
    verify_paths(planner, baseline, canary, phi, k=8)
    gc.collect()
    tracemalloc.start()
    try:
        expanded = planner.lazy_sag.expanded_nodes
        for source, target in pairs:
            planner.lazy_plan(source, target)
        lone_expansions = planner.lazy_sag.expanded_nodes - expanded
        for source, target in k_pairs:
            planner.lazy_plan_k(source, target, 4)
        for source, target in verify_pairs:
            verify_paths(planner, source, target, phi, k=8)
        planner._plan_cache.clear()
        planner._k_best.clear()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert planner.lazy_sag._factored is not None
    assert lone_expansions == 0
    assert planner._sag is None and planner.space._cache is None
    assert held < 2_000_000, f"{held / 1e6:.2f} MB held after the fleet30 queries"
