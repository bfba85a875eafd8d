"""One resumable Yen state per ``(source, target)`` pair.

:meth:`AdaptationPlanner.plan_k`, :meth:`~AdaptationPlanner.lazy_plan_k`
and :meth:`~AdaptationPlanner.iter_paths` all read and extend the pair's
:class:`~repro.graphs.yen.YenState`: a smaller k reads a prefix, a
larger one resumes, and a budget counts only the expansions a query
adds.  These tests pin that sharing to the CSR Yen oracle
(:func:`tests.oracles.csr_yen_reference.reference_plan_k`) over random
call sequences, with budgets that run out mid-round, on both arc
sources of the implicit SAG; and they pin the repeats on ``fleet30``
``baseline→canary`` that perfbench ``analyze`` asks for: a warm repeat
expands nothing, whatever its budget.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import random_system
from repro.core.planner import AdaptationPlanner
from repro.ltl import verify_paths
from repro.manifest import load_path
from tests.oracles.csr_yen_reference import reference_plan_k

FLEET30 = Path(__file__).resolve().parents[2] / "examples" / "fleet30.manifest"


def _signatures(plans):
    return [(plan.action_ids, plan.total_cost, plan.configurations) for plan in plans]


@pytest.fixture(scope="module")
def fleet():
    return load_path(FLEET30)


def _endpoints(fleet):
    return fleet.configurations["baseline"], fleet.configurations["canary"]


class TestFleet30Repeats:
    def test_a_repeated_complete_query_expands_nothing(self, fleet):
        planner = fleet.planner()
        source, target = _endpoints(fleet)
        first, complete = planner.lazy_plan_k(source, target, 8)
        assert complete and len(first) == 8
        expanded = planner.lazy_sag.expanded_nodes
        again, complete = planner.lazy_plan_k(source, target, 8)
        assert complete and _signatures(again) == _signatures(first)
        assert _signatures(planner.lazy_plan_k(source, target, 3)[0]) == (
            _signatures(first[:3])
        )
        for name in ("service0 specified", "avoid_v3"):
            for quantifier in ("all", "exists"):
                verify_paths(
                    planner, source, target, fleet.property_named(name), quantifier
                )
        assert planner.lazy_sag.expanded_nodes == expanded

    def test_a_repeated_verify_expands_nothing(self, fleet):
        planner = fleet.planner()
        source, target = _endpoints(fleet)
        phi = fleet.property_named("service0 specified")
        first = verify_paths(planner, source, target, phi)
        assert first.holds is True and first.paths_checked == 8
        expanded = planner.lazy_sag.expanded_nodes
        assert verify_paths(planner, source, target, phi) == first
        assert planner.lazy_sag.expanded_nodes == expanded

    def test_a_budget_after_a_complete_query_serves_the_cached_answer(self, fleet):
        planner = fleet.planner()
        source, target = _endpoints(fleet)
        full, _ = planner.lazy_plan_k(source, target, 8)
        expanded = planner.lazy_sag.expanded_nodes
        cached, complete = planner.lazy_plan_k(source, target, 8, max_expansions=1)
        assert complete and _signatures(cached) == _signatures(full)
        phi = fleet.property_named("service0 specified")
        verdict = verify_paths(planner, source, target, phi, max_expansions=1)
        assert verdict == verify_paths(fleet.planner(), source, target, phi)
        assert verdict.holds is True and verdict.complete
        assert planner.lazy_sag.expanded_nodes == expanded

    @pytest.mark.parametrize("budget", [1, 5, 40, 120])
    def test_an_exhausted_query_then_an_unbudgeted_one(self, fleet, budget):
        source, target = _endpoints(fleet)
        fresh, complete = fleet.planner().lazy_plan_k(source, target, 8)
        assert complete
        planner = fleet.planner()
        partial, complete = planner.lazy_plan_k(source, target, 8, max_expansions=budget)
        assert not complete and len(partial) < 8
        assert _signatures(partial) == _signatures(fresh[: len(partial)])
        resumed, complete = planner.lazy_plan_k(source, target, 8)
        assert complete and _signatures(resumed) == _signatures(fresh)
        assert _signatures(planner.plan_k(source, target, 8)) == _signatures(fresh)

    def test_budgets_count_only_new_expansions(self, fleet):
        """Budgeted queries that each run out still advance the pair: every
        finished Yen round is kept, so a run of them reaches the full list
        that no single one of their budgets could.  A spur whose answer the
        memo already holds is skipped and spends no expansions, so the
        third repeat already finishes the rounds to path 8."""
        source, target = _endpoints(fleet)
        fresh, _ = fleet.planner().lazy_plan_k(source, target, 8)
        planner = fleet.planner()
        lengths = []
        for _ in range(4):  # 60 expansions finish one Yen round or more
            plans, complete = planner.lazy_plan_k(source, target, 8, max_expansions=60)
            assert _signatures(plans) == _signatures(fresh[: len(plans)])
            lengths.append(len(plans))
        assert complete and lengths == [4, 6, 8, 8]

    def test_a_budget_below_one_round_still_advances(self, fleet):
        """A budget smaller than one Yen round: each cut round keeps the
        spurs it finished, so repeats resume the round instead of redoing
        it, and reach the unbudgeted list, identical and in order."""
        source, target = _endpoints(fleet)
        fresh, _ = fleet.planner().lazy_plan_k(source, target, 8)
        planner = fleet.planner()
        lengths = []
        for _ in range(12):
            plans, complete = planner.lazy_plan_k(source, target, 8, max_expansions=40)
            assert _signatures(plans) == _signatures(fresh[: len(plans)])
            lengths.append(len(plans))
        assert lengths == sorted(lengths) and lengths[-1] == 8
        assert complete and _signatures(plans) == _signatures(fresh)


def _arc_source_planners(system):
    """Planners reading the implicit SAG's arcs off the collaborative
    factors and off the compiled actions (a cap one below the largest
    collaborative set)."""
    factored = AdaptationPlanner(system.universe, system.invariants, system.actions)
    compiled = AdaptationPlanner(system.universe, system.invariants, system.actions)
    groups, _ = compiled.space.factorization.action_sets(compiled.actions)
    compiled.max_components = max(map(len, groups), default=0) - 1
    assert factored.lazy_sag._factored is not None
    assert compiled.lazy_sag._factored is None or not groups
    return factored, compiled


#: one query of a call sequence: (entry point, k, budget of lazy_plan_k)
CALLS = st.tuples(
    st.sampled_from(["plan_k", "lazy_plan_k"]),
    st.integers(min_value=1, max_value=12),
    st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
)


def _k_order(calls, order):
    """*calls* with their k values ascending, descending or as drawn."""
    if order == "drawn":
        return calls
    ks = sorted((k for _, k, _ in calls), reverse=order == "descending")
    return [(kind, k, budget) for (kind, _, budget), k in zip(calls, ks)]


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    calls=st.lists(CALLS, min_size=1, max_size=10),
    order=st.sampled_from(["ascending", "descending", "drawn"]),
    pair_draws=st.lists(st.integers(min_value=0, max_value=3), min_size=10, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_call_sequences_match_the_oracle(seed, calls, order, pair_draws):
    """Every answer of a random call sequence equals the oracle's list for
    its k (a budget cut returns a prefix of it), and a budgeted query
    after the pair's list is known for that k is complete."""
    system = random_system(seed, n_components=6, n_invariants=2, n_actions=12)
    reference = AdaptationPlanner(system.universe, system.invariants, system.actions)
    safe = reference.space.enumerate()
    candidates = [(s, t) for s in safe for t in safe if s != t]
    reachable = [
        pair for pair, plan in zip(candidates, reference.plan_many(candidates))
        if plan is not None
    ]
    if not reachable:
        return
    # three pairs with paths (repeats when fewer exist), plus one without
    # or a source equal to its target
    unreachable = [pair for pair in candidates if pair not in reachable]
    pairs = [reachable[i * len(reachable) // 3] for i in range(3)]
    pairs.append(unreachable[0] if unreachable else (safe[0], safe[0]))
    expected = {}
    for planner in _arc_source_planners(system):
        known = {}  # pair -> (longest k answered in full, plans that exist)
        for (kind, k, budget), draw in zip(_k_order(calls, order), pair_draws):
            pair = pairs[draw]
            key = (pair, k, planner.max_components)
            if key not in expected:
                expected[key] = _signatures(reference_plan_k(reference, *pair, k, planner))
            want = expected[key]
            if kind == "plan_k":
                got, complete = planner.plan_k(*pair, k), True
            else:
                got, complete = planner.lazy_plan_k(*pair, k, max_expansions=budget)
            got = _signatures(got)
            longest, count = known.get(pair, (0, None))
            if k <= longest or (count is not None and count < longest):
                assert complete  # nothing new to expand
            if complete:
                assert got == want
                if k > longest:
                    known[pair] = (k, len(got))
            else:
                assert budget is not None and len(got) < k
                assert got == want[: len(got)]


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    budgets=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12),
    pair_index=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_budget_sequences_read_prefixes_of_the_oracle(seed, budgets, pair_index):
    """Any sequence of budgeted queries on one pair answers prefixes of
    the unbudgeted list, never shrinking, and an unbudgeted query after
    them equals it: a cut round resumes at the spur that ran out."""
    system = random_system(seed, n_components=6, n_invariants=2, n_actions=12)
    reference = AdaptationPlanner(system.universe, system.invariants, system.actions)
    safe = reference.space.enumerate()
    candidates = [(s, t) for s in safe for t in safe if s != t]
    reachable = [
        pair for pair, plan in zip(candidates, reference.plan_many(candidates))
        if plan is not None
    ]
    if not reachable:
        return
    pair = reachable[pair_index * len(reachable) // 3]
    for planner in _arc_source_planners(system):
        want = _signatures(reference_plan_k(reference, *pair, 8, planner))
        longest = 0
        for budget in budgets:
            plans, complete = planner.lazy_plan_k(*pair, 8, max_expansions=budget)
            got = _signatures(plans)
            assert got == want[: len(got)]
            assert len(got) >= longest
            # complete means the list is known to end here
            assert not complete or len(got) == len(want)
            assert complete or len(got) < 8
            longest = len(got)
        plans, complete = planner.lazy_plan_k(*pair, 8)
        assert complete and _signatures(plans) == want
