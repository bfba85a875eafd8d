#!/usr/bin/env python
"""Failure handling (§4.4): loss, rollback, retries, and parking safely.

Three experiments on the video system:

1. a lossy control network — retransmission absorbs transient loss and the
   adaptation still completes;
2. a network partition during a step — the step times out, rolls back,
   and the retry succeeds after the partition heals;
3. a permanently stuck process (fail-to-reset) — every automatic option
   is exhausted and the system parks at a *safe* configuration awaiting
   user intervention, exactly the paper's option 4.

Run:  python examples/failure_rollback.py
"""

from repro.apps.video import VideoScenario, build_video_cluster
from repro.apps.video.system import (
    paper_source,
    paper_target,
    video_actions,
    video_invariants,
    video_universe,
)
from repro.protocol.failures import FailurePolicy
from repro.sim import (
    AdaptationCluster,
    BernoulliLoss,
    QuiescentAdapter,
    StuckAdapter,
    UniformDelay,
)

POLICY = FailurePolicy(
    reset_timeout=80.0,
    resume_timeout=60.0,
    rollback_timeout=60.0,
    retransmit_interval=20.0,
)


def lossy_network() -> None:
    print("1) 20% control-plane loss")
    scenario = VideoScenario(
        cluster=build_video_cluster(
            seed=11,
            policy=POLICY,
            control_loss=BernoulliLoss(0.2),
            control_delay=UniformDelay(0.5, 2.5),
        )
    )
    outcome = scenario.run()
    stats = scenario.stream_stats()
    print(f"   outcome: {outcome.status} in {outcome.duration:g} ms, "
          f"rollbacks: {outcome.steps_rolled_back}")
    print(f"   corrupt packets: "
          f"{stats['handheld_corrupt'] + stats['laptop_corrupt']}")
    print(f"   safety: {scenario.safety_report().summary()}")
    print()


def partition_and_heal() -> None:
    print("2) partition during the adaptation, healed later")
    scenario = VideoScenario(cluster=build_video_cluster(seed=7, policy=POLICY))
    cluster = scenario.cluster
    cluster.sim.run(until=40.0)
    cluster.sim.schedule(3.0, lambda: cluster.network.partition("manager", "server"))
    cluster.sim.schedule(200.0, cluster.network.heal_all)
    outcome = cluster.adapt_to(paper_target())
    cluster.sim.run(until=cluster.sim.now + 50.0)
    print(f"   outcome: {outcome.status}, rollbacks: {outcome.steps_rolled_back}")
    print(f"   safety: {scenario.safety_report().summary()}")
    print()


def stuck_process() -> None:
    print("3) handheld never reaches its safe state (fail-to-reset)")
    universe = video_universe()
    cluster = AdaptationCluster(
        universe,
        video_invariants(),
        video_actions(),
        paper_source(universe),
        apps={
            "handheld": StuckAdapter(),  # stuck forever
            "server": QuiescentAdapter(2.0),
            "laptop": QuiescentAdapter(2.0),
        },
        policy=POLICY,
    )
    outcome = cluster.adapt_to(paper_target())
    print(f"   outcome: {outcome.status} — {outcome.reason}")
    print(f"   rollbacks: {outcome.steps_rolled_back}, "
          f"parked at {cluster.manager.committed.label()} "
          f"(safe: {cluster.planner.space.is_safe(cluster.manager.committed)})")
    from repro.safety import check_safe

    print(f"   safety: {check_safe(cluster.trace, cluster.invariants).summary()}")


def main() -> None:
    lossy_network()
    partition_and_heal()
    stuck_process()


if __name__ == "__main__":
    main()
