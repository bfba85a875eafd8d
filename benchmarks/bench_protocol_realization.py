"""Experiment F1/F2 — realization-phase mechanics, measured per action type.

The paper's Figures 1–2 define the manager/agent coordination; Table 2's
cost model encodes its consequence — actions that must drain the channel
with the sender blocked (encoder/decoder composites) disrupt the stream an
order of magnitude more than single-component actions.  This bench runs
each action class through the live protocol and measures what Table 2
prices: blocking time and stream disruption.
"""

import os
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import report
from repro.apps.video import VideoScenario, build_video_cluster
from repro.apps.video.system import paper_source, paper_target
from repro.bench import format_table
from repro.trace import BlockRecord

BACKENDS_JSON = Path(__file__).with_name("BENCH_backends.json")

CASES = [
    # (label, plan action ids) — each executed from the paper source.
    ("MAP (5 singles)", None),         # planner's own MAP
    ("single composite A14", ("A14",)),
    ("A13 then A4 (composite+single)", ("A13", "A4")),
]


def run_with_plan(action_ids, seed=5):
    scenario = VideoScenario(seed=seed)
    cluster = scenario.cluster
    cluster.sim.run(until=50.0)
    if action_ids is None:
        plan = cluster.planner.plan(paper_source(), paper_target())
    else:
        plans = cluster.planner.plan_k(paper_source(), paper_target(), 30)
        plan = next(p for p in plans if p.action_ids == tuple(action_ids))
    outcome = cluster.run_plan(plan)
    cluster.sim.run(until=cluster.sim.now + 60.0)
    return scenario, outcome


def total_blocked(trace, process):
    total, start = 0.0, None
    for record in trace.of_type(BlockRecord):
        if record.process != process:
            continue
        if record.blocked and start is None:
            start = record.time
        elif not record.blocked and start is not None:
            total += record.time - start
            start = None
    return total


@pytest.mark.parametrize("label,action_ids", CASES, ids=[c[0] for c in CASES])
def test_realization_per_action_class(benchmark, label, action_ids):
    scenario, outcome = benchmark(lambda: run_with_plan(action_ids))
    assert outcome.succeeded
    scenario.safety_report().raise_if_unsafe()
    stats = scenario.stream_stats()
    assert stats["handheld_corrupt"] == 0 and stats["laptop_corrupt"] == 0
    server_blocked = total_blocked(scenario.cluster.trace, "server")
    benchmark.extra_info["adaptation_ms"] = outcome.duration
    benchmark.extra_info["server_blocked_ms"] = server_blocked
    report(
        f"realization: {label}",
        format_table(
            ["metric", "value"],
            [
                ("adaptation duration (ms)", round(outcome.duration, 1)),
                ("server blocked (ms)", round(server_blocked, 1)),
                ("steps", outcome.steps_committed),
            ],
        ),
    )


def test_composites_block_sender_singles_do_not(benchmark):
    """Table 2's cost rationale, measured: the composite drains with the
    server blocked; the all-singles MAP never stops the source."""
    map_scenario, map_outcome = benchmark.pedantic(
        run_with_plan, args=(None,), rounds=1, iterations=1
    )
    composite_scenario, composite_outcome = run_with_plan(("A14",))
    map_blocked = total_blocked(map_scenario.cluster.trace, "server")
    composite_blocked = total_blocked(composite_scenario.cluster.trace, "server")
    assert map_blocked == 0.0
    assert composite_blocked > 0.0
    report(
        "Table 2 cost rationale (measured server blocking)",
        format_table(
            ["plan", "server blocked (ms)"],
            [
                ("MAP (A2,A17,A1,A4,A16)", round(map_blocked, 1)),
                ("composite A14", round(composite_blocked, 1)),
            ],
        ),
    )


def _fig4_system():
    from repro.apps.video.system import (
        video_actions,
        video_invariants,
        video_universe,
    )

    universe = video_universe()
    return (universe, video_invariants(), video_actions(),
            paper_source(universe), paper_target(universe))


def _backend_runners(time_scale=0.0005, quiesce=2.0):
    """Fig. 4 MAP realization on each execution backend.

    Each runner returns ``(outcome, wall_seconds)`` for one source→target
    adaptation with identical :class:`QuiescentAdapter` apps.
    """
    from repro.exec.app import QuiescentAdapter
    from repro.runtime import LiveAdaptationSystem
    from repro.sim import AdaptationCluster

    universe, invariants, actions, source, target = _fig4_system()

    def make_apps():
        return {p: QuiescentAdapter(quiesce) for p in universe.processes()}

    def run_sim():
        cluster = AdaptationCluster(
            universe, invariants, actions, source, apps=make_apps()
        )
        t0 = time.perf_counter()
        outcome = cluster.adapt_to(target)
        return outcome, time.perf_counter() - t0

    def run_live():
        system = LiveAdaptationSystem(
            universe, invariants, actions, source,
            apps=make_apps(), time_scale=time_scale,
        )
        with system:
            t0 = time.perf_counter()
            outcome = system.adapt_to(target, timeout=30.0)
            wall = time.perf_counter() - t0
        return outcome, wall

    return {"sim": run_sim, "live": run_live}


#: adaptations timed per backend: one run cannot tell a change from the host
BACKEND_RUNS = 7


def test_backend_realization_latency():
    """One substrate, two backends: same MAP, per-backend latency.

    The committed-step count is backend-independent (the substrate's
    semantics set it); protocol-time duration is exact on the simulator
    and scheduler-approximate on the wall-clock backend; wall time is
    what each deployment style costs.  Each backend runs
    :data:`BACKEND_RUNS` adaptations; the row is their median with its
    quartiles.
    """
    rows, data = [], {"nproc": os.cpu_count(), "runs": BACKEND_RUNS}
    for name, runner in _backend_runners().items():
        walls, durations = [], []
        for _ in range(BACKEND_RUNS):
            outcome, wall = runner()
            assert outcome.succeeded, f"{name}: {outcome.status} ({outcome.reason})"
            assert outcome.steps_committed == 5
            walls.append(wall * 1000)
            durations.append(outcome.duration)
        q1, median, q3 = statistics.quantiles(walls, n=4)
        rows.append((
            name, round(statistics.median(durations), 1),
            f"{median:.2f}", f"{q1:.2f}-{q3:.2f}",
        ))
        data[name] = {
            "duration_units": statistics.median(durations),
            "wall_ms": median,
            "wall_ms_q1": q1,
            "wall_ms_q3": q3,
            "steps_committed": 5,
        }
    report(
        "Fig. 4 MAP realization latency per backend",
        format_table(
            ["backend", "adaptation (protocol units)", "wall clock p50 (ms)",
             "quartiles (ms)"],
            rows,
        ) + f"\nmedian of {BACKEND_RUNS} runs each on {os.cpu_count()} cpu(s)",
        data=data,
        json_path=BACKENDS_JSON,
    )


def test_message_complexity_of_map(benchmark):
    """Coordination overhead: control messages per five-step adaptation."""

    def run():
        scenario = VideoScenario(seed=9)
        before = scenario.cluster.network.messages_sent
        outcome = scenario.run(warmup=10.0, cooldown=10.0)
        # subtract data-plane traffic: count only manager/agent endpoints
        return scenario, outcome

    scenario, outcome = benchmark(run)
    assert outcome.succeeded
    # 5 steps × (reset + reset_done + adapt_done + resume + resume_done)
    # + 2 flush requests = 27 control messages minimum
    benchmark.extra_info["network_messages_total"] = (
        scenario.cluster.network.messages_sent
    )
