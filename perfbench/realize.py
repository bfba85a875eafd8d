"""MAP realization on the simulated backend, run in the benchmark process.

One realization builds a fresh :class:`~repro.sim.cluster.AdaptationCluster`
for 1–3 replicated video groups around a planner shared across runs (set up
and warmed once, as a manager keeps its planner), streams every trace record
through an :class:`~repro.obs.ObservationBus` into a
:class:`~repro.safety.StreamingSafetyChecker`, and times only
``AdaptationCluster.adapt_to``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from gen import RealizeRequest

# Timeouts scaled to the jittered delays below (0.5–4 sim units per hop).
POLICY_ARGS = dict(
    reset_timeout=40.0, resume_timeout=30.0, rollback_timeout=30.0,
    retransmit_interval=8.0,
)
LOSS = 0.15
QUIESCE = 2.0


@dataclass
class RealizeResult:
    wall_ms: float
    status: str
    at_target: bool
    safe_final: bool
    safety_ok: bool
    blocked: float  # simulated blocked time, summed over BlockRecord intervals
    events: int
    committed: int
    rolled_back: int
    observer_records: int
    observer_seconds: float


class Realizer:
    """Holds the warm per-size systems and planners."""

    def __init__(self) -> None:
        from repro.bench.workloads import replicated_video_system
        from repro.serve import PlanningService

        self.service = PlanningService()
        self.systems = {}
        self.planners = {}
        for groups in (1, 2, 3):
            system = replicated_video_system(groups)
            self.systems[groups] = system
            self.planners[groups] = self.service.planner_for(
                system.universe, system.invariants, system.actions
            )

    def warm(self) -> None:
        """Plan every request shape once (enumeration, SAG, SPT, plan_k)."""
        for groups, planner in self.planners.items():
            system = self.systems[groups]
            planner.plan(system.source, system.target)
            planner.plan_k(system.source, system.target, 8)

    def run(self, request: RealizeRequest) -> RealizeResult:
        from repro.exec.app import QuiescentAdapter, StuckAdapter
        from repro.obs import ObservationBus
        from repro.protocol.failures import FailurePolicy
        from repro.safety import StreamingSafetyChecker
        from repro.sim.cluster import AdaptationCluster
        from repro.sim.net import BernoulliLoss, UniformDelay
        from repro.trace import BlockRecord

        system = self.systems[request.groups]
        universe = system.universe
        apps: Dict[str, object] = {
            process: QuiescentAdapter(QUIESCE, resume_delay=request.resume)
            for process in universe.processes()
        }
        faulty = f"handheld@g{request.fault_group}"
        if request.fault == "stuck-once":
            apps[faulty] = StuckAdapter(stuck_attempts=1, quiesce_delay=QUIESCE)
        elif request.fault == "stuck":
            apps[faulty] = StuckAdapter(stuck_attempts=None)
        checker = StreamingSafetyChecker(system.invariants, universe=universe)
        bus = ObservationBus(checker)
        cluster = AdaptationCluster(
            universe, system.invariants, system.actions, system.source,
            seed=request.seed, apps=apps,
            policy=FailurePolicy(**POLICY_ARGS),
            default_delay=UniformDelay(*request.jitter),
            default_loss=BernoulliLoss(LOSS) if request.fault == "loss" else None,
            bus=bus, planner=self.planners[request.groups],
        )
        t0 = time.perf_counter()
        outcome = cluster.adapt_to(system.target)
        wall_ms = (time.perf_counter() - t0) * 1e3
        blocked, since = 0.0, {}
        for record in cluster.trace.of_type(BlockRecord):
            if record.blocked:
                since.setdefault(record.process, record.time)
            elif record.process in since:
                blocked += record.time - since.pop(record.process)
        end = cluster.sim.now
        blocked += sum(end - start for start in since.values())
        stats = bus.stats()["safety"]
        return RealizeResult(
            wall_ms=wall_ms,
            status=outcome.status,
            at_target=outcome.configuration == system.target,
            safe_final=system.invariants.all_hold(outcome.configuration),
            safety_ok=checker.finish().ok,
            blocked=blocked,
            events=cluster.sim.events_processed,
            committed=outcome.steps_committed,
            rolled_back=outcome.steps_rolled_back,
            observer_records=stats.records,
            observer_seconds=stats.seconds,
        )


def check_realize(request: RealizeRequest, result: RealizeResult) -> Optional[str]:
    """Outcome known from the injected fault (``None`` when right)."""
    if not result.safety_ok:
        return "streaming safety checker reported a violation"
    if not result.safe_final:
        return "final configuration violates the invariants"
    if request.fault in ("none", "stuck-once"):
        if result.status != "complete" or not result.at_target:
            return f"{request.fault}: expected completion, got {result.status}"
    elif request.fault == "stuck":
        if result.status not in ("await_user", "aborted"):
            return f"stuck participant: expected a parked outcome, got {result.status}"
    elif result.status == "complete" and not result.at_target:
        return "loss: completed away from the target"
    return None
