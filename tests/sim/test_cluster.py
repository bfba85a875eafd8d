"""Integration tests: protocol machines on the simulated cluster."""

import pytest

from repro.core.model import Configuration
from repro.errors import SimulationError, UnsafeConfigurationError
from repro.protocol.manager import ManagerState
from repro.safety import check_safe
from repro.sim import AdaptationCluster, QuiescentAdapter
from repro.trace import AdaptationApplied, BlockRecord, ConfigCommitted


def make_cluster(universe, invariants, actions, source, **kwargs):
    kwargs.setdefault(
        "apps", {p: QuiescentAdapter(2.0) for p in universe.processes()}
    )
    return AdaptationCluster(universe, invariants, actions, source, **kwargs)


class TestHappyPath:
    def test_adaptation_completes(self, universe, invariants, actions, source, target):
        cluster = make_cluster(universe, invariants, actions, source)
        outcome = cluster.adapt_to(target)
        assert outcome.succeeded
        assert outcome.configuration == target
        assert outcome.steps_committed == 5
        assert outcome.steps_rolled_back == 0

    def test_live_components_match_committed(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        cluster.adapt_to(target)
        assert cluster.live_configuration == target
        assert cluster.manager.committed == target

    def test_hosts_partition_initial_config(
        self, universe, invariants, actions, source
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        assert cluster.hosts["server"].components == {"E1"}
        assert cluster.hosts["handheld"].components == {"D1"}
        assert cluster.hosts["laptop"].components == {"D4"}

    def test_trace_commits_every_step(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        cluster.adapt_to(target)
        commits = cluster.trace.of_type(ConfigCommitted)
        assert len(commits) == 6  # initial + 5 steps
        assert commits[0].configuration == source.members
        assert commits[-1].configuration == target.members

    def test_trace_passes_safety_checker(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        cluster.adapt_to(target)
        check_safe(cluster.trace, invariants).raise_if_unsafe()

    def test_blocks_bracket_in_actions(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        cluster.adapt_to(target)
        blocked = {}
        for record in cluster.trace:
            if isinstance(record, BlockRecord):
                blocked[record.process] = record.blocked
            elif isinstance(record, AdaptationApplied):
                assert blocked.get(record.process) is True

    def test_trivial_adaptation(self, universe, invariants, actions, source):
        cluster = make_cluster(universe, invariants, actions, source)
        outcome = cluster.adapt_to(source)
        assert outcome.succeeded
        assert outcome.steps_committed == 0

    def test_sequential_adaptations(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        middle = universe.from_bits("1101001")  # {D2,D4,D5,E1}
        first = cluster.adapt_to(middle)
        assert first.succeeded
        second = cluster.adapt_to(target)
        assert second.succeeded
        assert cluster.live_configuration == target


class TestValidation:
    def test_unsafe_initial_config_rejected(self, universe, invariants, actions):
        with pytest.raises(UnsafeConfigurationError):
            AdaptationCluster(
                universe, invariants, actions, Configuration(["E1"])
            )

    def test_unsafe_target_rejected(self, universe, invariants, actions, source):
        cluster = make_cluster(universe, invariants, actions, source)
        with pytest.raises(UnsafeConfigurationError):
            cluster.adapt_to(Configuration(["D1", "D2", "D4", "E1"]))

    def test_unknown_app_process_rejected(self, universe, invariants, actions, source):
        with pytest.raises(SimulationError):
            AdaptationCluster(
                universe, invariants, actions, source,
                apps={"mars": QuiescentAdapter()},
            )

    def test_plan_must_start_at_committed(
        self, universe, invariants, actions, source, target, planner
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        middle = universe.from_bits("1101001")
        plan = planner.plan(middle, target)
        with pytest.raises(SimulationError):
            cluster.manager.start_plan(plan)


class TestSpecificPlans:
    def test_single_composite_step_plan(
        self, universe, invariants, actions, source, target, planner
    ):
        # Run the expensive A14 triple as a one-step plan.
        plans = planner.plan_k(source, target, 20)
        a14 = next(p for p in plans if p.action_ids == ("A14",))
        cluster = make_cluster(universe, invariants, actions, source)
        outcome = cluster.run_plan(a14)
        assert outcome.succeeded
        assert outcome.steps_committed == 1
        assert cluster.live_configuration == target
        check_safe(cluster.trace, invariants).raise_if_unsafe()

    def test_composite_blocks_all_three_processes(
        self, universe, invariants, actions, source, target, planner
    ):
        plans = planner.plan_k(source, target, 20)
        a14 = next(p for p in plans if p.action_ids == ("A14",))
        cluster = make_cluster(universe, invariants, actions, source)
        cluster.run_plan(a14)
        blocked_processes = {
            r.process for r in cluster.trace.of_type(BlockRecord) if r.blocked
        }
        assert blocked_processes == {"server", "handheld", "laptop"}
