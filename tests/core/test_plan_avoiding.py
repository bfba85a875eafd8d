"""The §4.4 alternate query against brute force.

:meth:`AdaptationPlanner.plan_avoiding` answers "the cheapest plan with
no step in these failed ``(configuration, action)`` edges".  On small
random systems its cost must equal the minimum over every safe path that
avoids the failed edges, found by exhaustive search over the action
library (no SAG), with ``None`` exactly when no such path exists — for
failure sets off the MAP, on it at intermediate configurations, and
covering every arc out of the source.  The answer is the MAP itself
whenever the MAP avoids the failed edges (so always for no failed edge),
and it is the same on a repeat and after
:meth:`~AdaptationPlanner.reset_caches`, over the built SAG
and over the implicit SAG on both of its arc sources.  The compiled arc
source comes with a cap below the largest collaborative set, so that
planner searches its MAP too, with Dijkstra's tie-break instead of the
MAP contract's: its answers share the cost, and the path wherever both
MAPs take a failed step (the banned search is the same).
"""

import math

from hypothesis import assume, given, settings, strategies as st

from repro.bench.workloads import random_system, replicated_video_system
from repro.core.planner import AdaptationPlanner
from repro.errors import NoSafePathError


def _planners(system):
    """Planners over the three arc sources: the built SAG, the implicit
    SAG read off the collaborative factors, and the implicit SAG's
    compiled per-mask test (a cap below the largest factor)."""
    built = AdaptationPlanner(system.universe, system.invariants, system.actions)
    built.sag
    factored = AdaptationPlanner(system.universe, system.invariants, system.actions)
    compiled = AdaptationPlanner(system.universe, system.invariants, system.actions)
    groups, _ = compiled.space.factorization.action_sets(compiled.actions)
    compiled.max_components = max(map(len, groups), default=0) - 1
    assert factored.lazy_sag._factored is not None
    assert compiled.lazy_sag._factored is None or not groups
    return built, factored, compiled


def _brute_force(system, space, source, target, failed):
    """The least cost over every simple safe path that takes no failed
    edge (branch and bound; every action cost is positive), or ``None``."""
    best = math.inf

    def walk(config, cost, seen):
        nonlocal best
        if cost >= best:
            return
        if config == target:
            best = cost
            return
        for action in system.actions.applicable_to(config):
            if (config, action.action_id) in failed:
                continue
            successor = action.apply(config)
            if successor not in seen and space.is_safe(successor):
                walk(successor, cost + action.cost, seen | {successor})

    walk(source, 0.0, {source})
    return None if best == math.inf else best


def _assert_valid(plan, source, target, failed, space):
    assert plan.source == source and plan.target == target
    current = source
    for step in plan.steps:
        assert step.source == current
        assert (step.source, step.action.action_id) not in failed
        current = step.action.apply(current)
        assert step.target == current and space.is_safe(current)
    assert current == target
    assert plan.total_cost == sum(step.action.cost for step in plan.steps)


@given(st.integers(min_value=0, max_value=5_000), st.data())
@settings(max_examples=80, deadline=None)
def test_cost_is_the_brute_force_minimum(seed, data):
    system = random_system(seed, n_components=5, n_invariants=2, n_actions=10)
    planners = _planners(system)
    space = planners[0].space
    safe = space.enumerate()
    assume(safe)
    source = data.draw(st.sampled_from(safe), label="source")
    target = data.draw(st.sampled_from(safe), label="target")
    edges = sorted(
        (
            (config, action.action_id)
            for config in safe
            for action in system.actions.applicable_to(config)
            if space.is_safe(action.apply(config))
        ),
        key=lambda edge: (edge[0].label(), edge[1]),
    )
    failed = set(data.draw(st.lists(st.sampled_from(edges), max_size=6), label="off")
                 if edges else ())
    try:
        best = planners[0].plan(source, target)
    except NoSafePathError:
        best = None
    if best is not None and best.steps and data.draw(st.booleans(), label="on MAP"):
        step = data.draw(st.sampled_from(best.steps), label="MAP step")
        failed.add((step.source, step.action.action_id))
    if data.draw(st.booleans(), label="every source arc"):
        failed.update(edge for edge in edges if edge[0] == source)
    expected = _brute_force(system, space, source, target, failed)
    map_avoids = best is not None and all(
        (step.source, step.action.action_id) not in failed for step in best.steps
    )
    answers = []
    avoided = []
    for planner in planners:
        own = None if best is None else planner.plan(source, target)
        avoided.append(own is not None and all(
            (step.source, step.action.action_id) not in failed for step in own.steps
        ))
        answer = planner.plan_avoiding(source, target, failed)
        if expected is None:
            assert answer is None
        else:
            assert answer is not None and answer.total_cost == expected
            _assert_valid(answer, source, target, failed, space)
        if avoided[-1]:
            assert answer == own
        assert planner.plan_avoiding(source, target, list(failed)) == answer
        assert planner.plan_avoiding(source, target, ()) == own
        planner.reset_caches()
        assert planner.plan_avoiding(source, target, failed) == answer
        answers.append(answer)
    assert avoided[1] == avoided[0] == map_avoids and answers[1] == answers[0]
    if not map_avoids and not avoided[2]:  # one banned search for all three
        assert answers[2] == answers[0]


def test_no_failed_edge_gives_the_map():
    system = replicated_video_system(1)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    best = planner.plan(system.source, system.target)
    assert planner.plan_avoiding(system.source, system.target, ()) is best


def test_video_x3_alternate_past_the_eight_best():
    """Every one of the 8 best plans takes ``A2@g0`` or ``A17@g0`` at the
    source; a cost-150 plan avoids both."""
    system = replicated_video_system(3)
    source, target = system.source, system.target
    failed = {(source, "A2@g0"), (source, "A17@g0")}
    for planner in _planners(system)[:2]:
        plan = planner.plan_avoiding(source, target, failed)
        assert plan is not None and plan.total_cost == 150.0
        assert plan.action_ids[0] == "A2@g1"
        _assert_valid(plan, source, target, failed, planner.space)
        assert planner._avoiding[(source, target, frozenset(failed))] is plan
    assert all(
        any((step.source, step.action.action_id) in failed for step in plan.steps)
        for plan in planner.plan_k(source, target, 8)
    )
