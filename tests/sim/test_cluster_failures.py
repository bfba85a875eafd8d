"""Failure-handling integration tests (§4.4) on the simulated cluster."""

import pytest

from repro.protocol.failures import FailurePolicy
from repro.protocol.manager import ManagerState
from repro.safety import check_safe
from repro.sim import (
    AdaptationCluster,
    BernoulliLoss,
    QuiescentAdapter,
    StuckAdapter,
    UniformDelay,
)

FAST_POLICY = FailurePolicy(
    reset_timeout=60.0,
    resume_timeout=40.0,
    rollback_timeout=40.0,
    retransmit_interval=15.0,
)


def make_cluster(universe, invariants, actions, source, *, apps=None, **kwargs):
    if apps is None:
        apps = {p: QuiescentAdapter(2.0) for p in universe.processes()}
    kwargs.setdefault("policy", FAST_POLICY)
    return AdaptationCluster(universe, invariants, actions, source, apps=apps, **kwargs)


class TestLossOfMessage:
    def test_transient_loss_still_completes(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(
            universe, invariants, actions, source,
            seed=42,
            default_loss=BernoulliLoss(0.2),
            default_delay=UniformDelay(0.5, 3.0),
        )
        outcome = cluster.adapt_to(target)
        assert outcome.succeeded
        assert cluster.live_configuration == target
        check_safe(cluster.trace, invariants).raise_if_unsafe()

    def test_heavy_loss_may_roll_back_but_stays_safe(
        self, universe, invariants, actions, source, target
    ):
        for seed in range(5):
            cluster = make_cluster(
                universe, invariants, actions, source,
                seed=seed,
                default_loss=BernoulliLoss(0.45),
                default_delay=UniformDelay(0.5, 3.0),
            )
            outcome = cluster.adapt_to(target)
            check_safe(cluster.trace, invariants).raise_if_unsafe()
            assert outcome.status in ("complete", "aborted", "await_user")
            # wherever we ended, the system sits at a safe configuration
            assert cluster.planner.space.is_safe(cluster.manager.committed)

    def test_partition_before_resume_aborts_cleanly(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        # Cut off the handheld (first step's only participant) entirely.
        cluster.network.partition("manager", "handheld")
        outcome = cluster.adapt_to(target)
        # rollback messages are also lost → manager exhausts its budget
        assert outcome.status == "await_user"
        assert cluster.live_configuration == source

    def test_partition_healed_mid_adaptation(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        cluster.network.partition("manager", "handheld")
        cluster.sim.schedule(30.0, lambda: cluster.network.heal_all())
        outcome = cluster.adapt_to(target)
        assert outcome.succeeded
        assert cluster.live_configuration == target


class TestFailToReset:
    def test_stuck_process_rolls_back_and_escalates(
        self, universe, invariants, actions, source, target
    ):
        apps = {
            "handheld": StuckAdapter(),
            "server": QuiescentAdapter(2.0),
            "laptop": QuiescentAdapter(2.0),
        }
        cluster = make_cluster(universe, invariants, actions, source, apps=apps)
        outcome = cluster.adapt_to(target)
        # every path to the 128-bit config needs the handheld decoder swap,
        # and the video library cannot return to source (no reverse actions)
        assert outcome.status == "await_user"
        assert outcome.steps_rolled_back >= 2
        assert cluster.planner.space.is_safe(cluster.manager.committed)
        check_safe(cluster.trace, invariants).raise_if_unsafe()

    def test_transiently_stuck_process_recovers_via_retry(
        self, universe, invariants, actions, source, target
    ):
        apps = {
            "handheld": StuckAdapter(stuck_attempts=1, quiesce_delay=2.0),
            "server": QuiescentAdapter(2.0),
            "laptop": QuiescentAdapter(2.0),
        }
        cluster = make_cluster(universe, invariants, actions, source, apps=apps)
        outcome = cluster.adapt_to(target)
        assert outcome.succeeded
        assert outcome.steps_rolled_back == 1  # first attempt timed out
        check_safe(cluster.trace, invariants).raise_if_unsafe()

    def test_rollback_restores_partial_progress(
        self, universe, invariants, actions, source, target
    ):
        # Laptop stuck: A17 (+D5, laptop-only) is the first step to fail —
        # but the handheld's A2 commits first, so the system must settle at
        # {D2,D4,E1}, a safe configuration that is NOT the source.
        apps = {
            "handheld": QuiescentAdapter(2.0),
            "server": QuiescentAdapter(2.0),
            "laptop": StuckAdapter(),
        }
        cluster = make_cluster(universe, invariants, actions, source, apps=apps)
        outcome = cluster.adapt_to(target)
        assert outcome.status == "await_user"
        assert cluster.manager.committed == universe.from_bits("0101001")
        assert cluster.live_configuration == universe.from_bits("0101001")
        check_safe(cluster.trace, invariants).raise_if_unsafe()


class TestReturnToSourcePaths:
    def test_failure_at_source_with_no_alternates_aborts_in_place(
        self, universe, invariants, actions, source, target
    ):
        # max_alternate_plans=0: after the retry fails, the manager asks to
        # "return to source" while already there — the driver answers with
        # the empty plan and the adaptation aborts cleanly at the source.
        apps = {
            "handheld": StuckAdapter(),
            "server": QuiescentAdapter(2.0),
            "laptop": QuiescentAdapter(2.0),
        }
        policy = FailurePolicy(
            reset_timeout=60.0,
            resume_timeout=40.0,
            rollback_timeout=40.0,
            retransmit_interval=15.0,
            max_alternate_plans=0,
        )
        cluster = AdaptationCluster(
            universe, invariants, actions, source, apps=apps, policy=policy
        )
        outcome = cluster.adapt_to(target)
        assert outcome.status == "aborted"
        assert outcome.configuration == source
        assert cluster.live_configuration == source
        check_safe(cluster.trace, invariants).raise_if_unsafe()


class TestResumeLatency:
    def test_slow_resume_delays_commit(
        self, universe, invariants, actions, source, target
    ):
        apps = {
            p: QuiescentAdapter(quiesce_delay=1.0, resume_delay=5.0)
            for p in universe.processes()
        }
        cluster = make_cluster(universe, invariants, actions, source, apps=apps)
        outcome = cluster.adapt_to(target)
        assert outcome.succeeded
        # 5 steps × (1 quiesce + 5 resume + message hops) ≥ 30 time units
        assert outcome.duration >= 30.0
        check_safe(cluster.trace, invariants).raise_if_unsafe()


class TestManagerStateAfterOutcomes:
    def test_manager_reusable_after_success(
        self, universe, invariants, actions, source, target
    ):
        cluster = make_cluster(universe, invariants, actions, source)
        cluster.adapt_to(target)
        assert cluster.manager.machine.state == ManagerState.RUNNING

    def test_await_user_is_terminal(self, universe, invariants, actions, source, target):
        apps = {
            "handheld": StuckAdapter(),
            "server": QuiescentAdapter(2.0),
            "laptop": QuiescentAdapter(2.0),
        }
        cluster = make_cluster(universe, invariants, actions, source, apps=apps)
        cluster.adapt_to(target)
        assert cluster.manager.machine.state == ManagerState.AWAIT_USER
