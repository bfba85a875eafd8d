"""Path-quantified verification over the SAG (``repro.ltl.paths``).

Eager semantics run on the paper's §5 video system (fixtures from
``tests/conftest.py``); the lazy frontier mode is pinned against the
eager mode — exact k-best parity on the video system, verdict parity on
random universes.  The mode follows the spec's size
(:attr:`AdaptationPlanner.oversized`), so the differential tests route a
below-cap spec lazily by patching that predicate (:func:`above_cap`).
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlanner
from repro.ltl import DEFAULT_K, parse_property, verify_paths
from repro.manifest import loads

HOLDS = parse_property("historically({one_of(E1, E2)})")
NO_E2 = parse_property("historically(!E2)")


def above_cap():
    """Route every planner as if its spec exceeded the enumeration cap."""
    return mock.patch.object(AdaptationPlanner, "oversized", True)


class TestAllQuantifier:
    def test_invariant_clause_holds_on_every_path(self, planner, source, target):
        verdict = verify_paths(planner, source, target, HOLDS)
        assert verdict.holds is True
        assert verdict.mode == "eager"
        assert verdict.complete
        assert verdict.k == DEFAULT_K
        assert verdict.paths_checked == len(planner.plan_k(source, target, DEFAULT_K))
        assert verdict.counterexample is None

    def test_violation_early_exits_on_the_first_bad_path(
        self, planner, source, target
    ):
        # the target itself carries E2, so path 1 already refutes ∀
        verdict = verify_paths(planner, source, target, NO_E2)
        assert verdict.holds is False
        assert verdict.paths_checked == 1
        assert "path 1" in verdict.reason

    def test_counterexample_is_minimized_to_first_violating_prefix(
        self, planner, source, target
    ):
        verdict = verify_paths(planner, source, target, NO_E2)
        plan = verdict.counterexample
        assert plan is not None
        assert len(plan.steps) == verdict.violation_index
        # the prefix ends exactly at the first violating configuration
        assert "E2" in plan.configurations[-1].members
        for config in plan.configurations[:-1]:
            assert "E2" not in config.members
        assert plan.total_cost == sum(step.action.cost for step in plan.steps)

    def test_property_violated_at_source_minimizes_to_zero_steps(
        self, planner, source, target
    ):
        verdict = verify_paths(planner, source, target, parse_property("!E1"))
        assert verdict.holds is False
        assert verdict.violation_index == 0
        assert verdict.counterexample.steps == ()
        assert verdict.counterexample.total_cost == 0


class TestExistsQuantifier:
    def test_witness_short_circuits(self, planner, source, target):
        verdict = verify_paths(planner, source, target, HOLDS, "exists")
        assert verdict.holds is True
        assert verdict.paths_checked == 1
        assert verdict.witness is not None
        assert verdict.counterexample is None

    def test_no_witness_checks_the_whole_set(self, planner, source, target):
        verdict = verify_paths(planner, source, target, NO_E2, "exists")
        assert verdict.holds is False
        assert verdict.witness is None
        assert verdict.paths_checked == len(planner.plan_k(source, target, DEFAULT_K))


class TestNoPath:
    def test_all_holds_vacuously(self, planner, source, target):
        # the video SAG is one-way: nothing routes back to the source
        verdict = verify_paths(planner, target, source, HOLDS)
        assert verdict.holds is True
        assert verdict.paths_checked == 0
        assert "vacuously" in verdict.reason

    def test_exists_is_false(self, planner, source, target):
        verdict = verify_paths(planner, target, source, HOLDS, "exists")
        assert verdict.holds is False
        assert verdict.paths_checked == 0


class TestValidation:
    def test_bad_quantifier(self, planner, source, target):
        with pytest.raises(ValueError):
            verify_paths(planner, source, target, HOLDS, "some")

    def test_non_positive_k(self, planner, source, target):
        with pytest.raises(ValueError):
            verify_paths(planner, source, target, HOLDS, k=0)


class TestLazyMode:
    def test_lazy_plan_k_matches_eager_yen_exactly(self, planner, source, target):
        eager = planner.plan_k(source, target, DEFAULT_K)
        lazy_planner = AdaptationPlanner(
            planner.universe, planner.invariants, planner.actions
        )
        lazy, complete = lazy_planner.lazy_plan_k(source, target, DEFAULT_K)
        assert complete
        assert [p.total_cost for p in lazy] == [p.total_cost for p in eager]
        assert [
            [s.action.action_id for s in p.steps] for p in lazy
        ] == [[s.action.action_id for s in p.steps] for p in eager]
        assert lazy_planner._sag is None  # never built the eager graph

    @pytest.mark.parametrize("phi", [HOLDS, NO_E2])
    @pytest.mark.parametrize("quantifier", ["all", "exists"])
    def test_verdict_parity_on_video(self, planner, source, target, phi, quantifier):
        eager = verify_paths(planner, source, target, phi, quantifier)
        with above_cap():
            lazy = verify_paths(planner, source, target, phi, quantifier)
        assert lazy.holds == eager.holds
        assert lazy.paths_checked == eager.paths_checked
        assert lazy.mode == "lazy" and eager.mode == "eager"
        if eager.counterexample is not None:
            assert lazy.counterexample.total_cost == eager.counterexample.total_cost

    def test_exhausted_budget_is_inconclusive(self):
        with open("examples/fleet30.manifest", encoding="utf-8") as handle:
            fleet = loads(handle.read())
        verdict = verify_paths(
            fleet.planner(),
            fleet.configurations["baseline"],
            fleet.configurations["canary"],
            fleet.property_named("service0 specified"),
            max_expansions=1,
        )
        assert verdict.mode == "lazy"
        assert verdict.holds is None
        assert not verdict.complete
        assert "inconclusive" in verdict.reason


def _fleet30():
    with open("examples/fleet30.manifest", encoding="utf-8") as handle:
        return loads(handle.read())


def _counting_spurs(planner):
    """Count the planner's banned-set searches (one per Yen spur; the
    first path is the MAP, read off the tables) and sum their
    expansions."""
    counts = {"spurs": 0, "expansions": 0}
    search = planner._banned_shortest

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        counts["spurs"] += 1
        counts["expansions"] += result[2]
        return result

    planner._banned_shortest = counted
    return counts


class TestEarlyExit:
    """verify_paths reads the k best plans one at a time and stops at the
    deciding one; the pair's Yen state keeps what it found, so a later
    verify on the pair resumes it."""

    @pytest.fixture(params=["eager video", "lazy fleet30"])
    def case(self, request, planner, source, target):
        """``(fresh planner factory, source, target, ∀-refuted property)``:
        ``historically(!X)`` for an X the target gains, false at the last
        configuration of every path."""
        if request.param == "eager video":
            make = lambda: AdaptationPlanner(  # noqa: E731
                planner.universe, planner.invariants, planner.actions
            )
            return make, source, target, NO_E2
        fleet = _fleet30()
        baseline = fleet.configurations["baseline"]
        canary = fleet.configurations["canary"]
        gained = sorted(canary.members - baseline.members)[0]
        return fleet.planner, baseline, canary, parse_property(
            f"historically(!{gained})"
        )

    def test_a_refutation_by_path_one_runs_no_search(self, case):
        make, source, target, phi = case
        planner = make()
        counts = _counting_spurs(planner)
        verdict = verify_paths(planner, source, target, phi)
        assert verdict.holds is False and verdict.paths_checked == 1
        assert counts["spurs"] == 0

    def test_a_following_exists_resumes_the_walk(self, case):
        make, source, target, phi = case
        planner = make()
        counts = _counting_spurs(planner)
        refuted = verify_paths(planner, source, target, phi)
        unwitnessed = verify_paths(planner, source, target, phi, "exists")
        walk = make()
        walk_counts = _counting_spurs(walk)
        assert len(list(walk.iter_paths(source, target, DEFAULT_K))) == DEFAULT_K
        assert counts == walk_counts
        assert refuted == verify_paths(make(), source, target, phi)
        assert unwitnessed == verify_paths(make(), source, target, phi, "exists")
        assert unwitnessed.holds is False
        assert unwitnessed.paths_checked == DEFAULT_K

    def test_a_budget_cut_after_the_deciding_path_is_complete(self):
        """``complete`` means no budget ran out before the verdict: a
        budget that finds path 1 and no more still refutes ∀ with it."""
        fleet = _fleet30()
        baseline = fleet.configurations["baseline"]
        canary = fleet.configurations["canary"]
        phi = parse_property("historically(!S0v2)")
        probe = fleet.planner()
        counts = _counting_spurs(probe)
        next(iter(probe.iter_paths(baseline, canary, DEFAULT_K)))
        budget = counts["expansions"]
        plans, complete = fleet.planner().lazy_plan_k(
            baseline, canary, DEFAULT_K, max_expansions=budget
        )
        assert len(plans) == 1 and not complete
        verdict = verify_paths(
            fleet.planner(), baseline, canary, phi, max_expansions=budget
        )
        assert verdict.holds is False and verdict.complete
        assert verdict.paths_checked == 1
        assert verdict.counterexample is not None


def toggle_library(names):
    actions = []
    for index, name in enumerate(names):
        cost = 1.0 + index  # distinct costs keep tie-breaks interesting
        actions.append(
            AdaptiveAction(f"add-{name}", frozenset(), frozenset({name}), cost)
        )
        actions.append(
            AdaptiveAction(f"del-{name}", frozenset({name}), frozenset(), cost)
        )
    return ActionLibrary(actions)


PROPERTIES = tuple(
    parse_property(text)
    for text in (
        "historically(!C0)",
        "once(C1)",
        "historically({one_of(C0, C1)})",
        "C2 -> once(C0)",
        "historically(since(!C0, C1) -> !C2)",
    )
)


@given(
    size=st.integers(min_value=3, max_value=6),
    source_bits=st.integers(min_value=0),
    target_bits=st.integers(min_value=0),
    phi=st.sampled_from(PROPERTIES),
    quantifier=st.sampled_from(["all", "exists"]),
    k=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_lazy_and_eager_verdicts_agree(
    size, source_bits, target_bits, phi, quantifier, k
):
    """On unconstrained universes the frontier Yen must equal eager Yen."""
    names = [f"C{i}" for i in range(size)]
    universe = ComponentUniverse.from_names(names)
    library = toggle_library(names)
    invariants = InvariantSet([])
    source = Configuration(
        [name for i, name in enumerate(names) if (source_bits >> i) & 1]
    )
    target = Configuration(
        [name for i, name in enumerate(names) if (target_bits >> i) & 1]
    )
    eager = verify_paths(
        AdaptationPlanner(universe, invariants, library),
        source, target, phi, quantifier, k,
    )
    with above_cap():
        lazy = verify_paths(
            AdaptationPlanner(universe, invariants, library),
            source, target, phi, quantifier, k,
        )
    assert eager.mode == "eager" and lazy.mode == "lazy"
    assert lazy.holds == eager.holds
    assert lazy.paths_checked == eager.paths_checked
    assert lazy.complete
    if eager.counterexample is None:
        assert lazy.counterexample is None
    else:
        assert lazy.counterexample.total_cost == eager.counterexample.total_cost
        assert lazy.violation_index == eager.violation_index
    if eager.witness is not None:
        assert lazy.witness.total_cost == eager.witness.total_cost
