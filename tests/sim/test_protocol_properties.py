"""Property-based protocol tests: safety under randomized schedules.

The paper's central claim — the adaptation process is safe, including in
the presence of failures (§3.3, §4.4) — is checked here over randomized
seeds, delays, loss rates, and fail-to-reset injections.  Whatever the
schedule does, every run must (a) pass the two-clause safety checker,
(b) terminate at a *safe* configuration, and (c) leave the live component
placement equal to the committed configuration unless the manager parked
awaiting the user mid-step.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.video.system import (
    paper_source,
    paper_target,
    video_actions,
    video_invariants,
    video_universe,
)
from repro.protocol.failures import FailurePolicy
from repro.safety import check_safe
from repro.sim import (
    AdaptationCluster,
    BernoulliLoss,
    QuiescentAdapter,
    StuckAdapter,
    UniformDelay,
)

UNIVERSE = video_universe()
INVARIANTS = video_invariants()

POLICY = FailurePolicy(
    reset_timeout=60.0,
    resume_timeout=40.0,
    rollback_timeout=40.0,
    retransmit_interval=15.0,
)

run_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_cluster(seed, loss, quiesce, stuck_process=None, stuck_attempts=None):
    apps = {}
    for process in UNIVERSE.processes():
        if process == stuck_process:
            apps[process] = StuckAdapter(stuck_attempts=stuck_attempts, quiesce_delay=quiesce)
        else:
            apps[process] = QuiescentAdapter(quiesce)
    cluster = AdaptationCluster(
        UNIVERSE,
        video_invariants(),
        video_actions(),
        paper_source(UNIVERSE),
        seed=seed,
        apps=apps,
        policy=POLICY,
        default_loss=BernoulliLoss(loss),
        default_delay=UniformDelay(0.5, 3.0),
    )
    outcome = cluster.adapt_to(paper_target(UNIVERSE))
    return cluster, outcome


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    loss=st.floats(min_value=0.0, max_value=0.35),
    quiesce=st.floats(min_value=0.1, max_value=8.0),
)
@run_settings
def test_randomized_runs_are_always_safe(seed, loss, quiesce):
    cluster, outcome = run_cluster(seed, loss, quiesce)
    report = check_safe(cluster.trace, INVARIANTS)
    assert report.ok, report.violations[:3]
    assert outcome.status in ("complete", "aborted", "await_user")
    assert cluster.planner.space.is_safe(cluster.manager.committed)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    loss=st.floats(min_value=0.0, max_value=0.25),
)
@run_settings
def test_terminal_config_is_source_target_or_safe_intermediate(seed, loss):
    cluster, outcome = run_cluster(seed, loss, quiesce=2.0)
    final = cluster.manager.committed
    safe_set = set(cluster.planner.space.enumerate())
    assert final in safe_set
    if outcome.status == "complete":
        assert final == paper_target(UNIVERSE)
        assert cluster.live_configuration == final


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    stuck=st.sampled_from(["server", "handheld", "laptop"]),
    attempts=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)
@run_settings
def test_fail_to_reset_never_breaks_safety(seed, stuck, attempts):
    cluster, outcome = run_cluster(
        seed, loss=0.05, quiesce=2.0, stuck_process=stuck, stuck_attempts=attempts
    )
    report = check_safe(cluster.trace, INVARIANTS)
    assert report.ok, report.violations[:3]
    assert cluster.planner.space.is_safe(cluster.manager.committed)
    # live placement matches the committed config except when we parked
    # mid-step awaiting the user (blocked processes may hold undone state)
    if outcome.status != "await_user":
        assert cluster.live_configuration == cluster.manager.committed


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    loss=st.floats(min_value=0.0, max_value=0.3),
)
@run_settings
def test_safe_under_reordered_control_channels(seed, loss):
    """Non-FIFO coordination channels (beyond the paper's TCP assumption):
    duplicates and reordering must neither crash the machines nor break
    safety."""
    apps = {p: QuiescentAdapter(2.0) for p in UNIVERSE.processes()}
    cluster = AdaptationCluster(
        UNIVERSE,
        video_invariants(),
        video_actions(),
        paper_source(UNIVERSE),
        seed=seed,
        apps=apps,
        policy=POLICY,
        default_loss=BernoulliLoss(loss),
        default_delay=UniformDelay(0.2, 6.0),
    )
    # make every control channel non-FIFO
    participants = list(UNIVERSE.processes()) + ["manager"]
    for src in participants:
        for dst in participants:
            if src != dst:
                cluster.network.set_channel(
                    src, dst, delay=UniformDelay(0.2, 6.0),
                    loss=BernoulliLoss(loss), fifo=False,
                )
    outcome = cluster.adapt_to(paper_target(UNIVERSE))
    report = check_safe(cluster.trace, INVARIANTS)
    assert report.ok, report.violations[:3]
    assert cluster.planner.space.is_safe(cluster.manager.committed)
    if outcome.status != "await_user":
        assert cluster.live_configuration == cluster.manager.committed


def test_same_seed_same_trace():
    a, outcome_a = run_cluster(seed=1234, loss=0.2, quiesce=2.0)
    b, outcome_b = run_cluster(seed=1234, loss=0.2, quiesce=2.0)
    assert outcome_a.status == outcome_b.status
    assert outcome_a.finished_at == outcome_b.finished_at
    assert len(a.trace) == len(b.trace)
    assert [type(r).__name__ for r in a.trace] == [type(r).__name__ for r in b.trace]


def test_different_seeds_usually_differ():
    a, _ = run_cluster(seed=1, loss=0.2, quiesce=2.0)
    b, _ = run_cluster(seed=2, loss=0.2, quiesce=2.0)
    assert a.network.messages_dropped != b.network.messages_dropped or (
        len(a.trace) != len(b.trace)
    )
