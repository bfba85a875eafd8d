"""Experiment C1 — §4.4 failure handling under message loss.

Sweeps control-plane loss and reports the outcome mix (complete / aborted
/ await-user), rollback counts, and recovery cost.  The paper's claims to
verify in shape: transient loss is absorbed (still completes), rollbacks
only ever happen before a step's first resume, and whatever happens the
system sits at a safe configuration.
"""

import pytest

from benchmarks.conftest import report
from repro.apps.video import build_video_cluster
from repro.apps.video.scenario import VideoScenario
from repro.apps.video.system import paper_target
from repro.bench import format_table
from repro.protocol.failures import FailurePolicy
from repro.safety import check_safe
from repro.sim.net import BernoulliLoss, UniformDelay

POLICY = FailurePolicy(
    reset_timeout=80.0,
    resume_timeout=60.0,
    rollback_timeout=60.0,
    retransmit_interval=20.0,
)

LOSS_RATES = (0.0, 0.1, 0.2, 0.3)
SEEDS_PER_RATE = 8


def run_once(loss, seed):
    scenario = VideoScenario(
        cluster=build_video_cluster(
            seed=seed,
            policy=POLICY,
            control_loss=BernoulliLoss(loss),
            control_delay=UniformDelay(0.5, 2.5),
        )
    )
    outcome = scenario.run(warmup=20.0, cooldown=20.0)
    return scenario, outcome


def sweep(loss):
    rows = []
    for seed in range(SEEDS_PER_RATE):
        scenario, outcome = run_once(loss, seed)
        check_safe(
            scenario.cluster.trace, scenario.cluster.invariants
        ).raise_if_unsafe()
        stats = scenario.stream_stats()
        assert stats["handheld_corrupt"] == 0 and stats["laptop_corrupt"] == 0
        rows.append(outcome)
    return rows


@pytest.mark.parametrize("loss", LOSS_RATES)
def test_loss_sweep(benchmark, loss):
    outcomes = benchmark.pedantic(sweep, args=(loss,), rounds=1, iterations=1)
    complete = sum(1 for o in outcomes if o.status == "complete")
    rollbacks = sum(o.steps_rolled_back for o in outcomes)
    mean_duration = sum(o.duration for o in outcomes) / len(outcomes)
    benchmark.extra_info.update(
        {
            "loss": loss,
            "complete": complete,
            "of": len(outcomes),
            "rollbacks": rollbacks,
            "mean_duration_ms": round(mean_duration, 1),
        }
    )
    report(
        f"failure handling @ control loss {loss:.0%}",
        format_table(
            ["metric", "value"],
            [
                ("runs completing", f"{complete}/{len(outcomes)}"),
                ("total rollbacks", rollbacks),
                ("mean adaptation duration (ms)", round(mean_duration, 1)),
            ],
        ),
    )
    # Shape assertions: lossless is clean and quick; lossy still safe.
    if loss == 0.0:
        assert complete == len(outcomes)
        assert rollbacks == 0
    else:
        assert complete >= 1  # retransmission absorbs transient loss


def test_rollbacks_only_before_resume(benchmark):
    """§4.4's rule, checked over a lossy batch: any step that reached its
    resume phase ran to completion (committed), never rolled back."""
    from repro.trace import ConfigCommitted, NoteRecord

    benchmark.pedantic(lambda: run_once(0.25, 0), rounds=1, iterations=1)
    for seed in range(6):
        scenario, outcome = run_once(0.25, seed)
        committed_steps = {
            r.step_id for r in scenario.cluster.trace.of_type(ConfigCommitted)
        }
        rolled_back_steps = {
            r.text.split()[1]
            for r in scenario.cluster.trace.of_type(NoteRecord)
            if r.text.startswith("step ") and "rolled back" in r.text
        }
        assert committed_steps.isdisjoint(rolled_back_steps)


def test_fail_to_reset_outcome_is_parked_safe(benchmark):
    """A permanently stuck participant parks the system at a safe config
    and surfaces user intervention (§4.4 option 4)."""
    from repro.apps.video.system import (
        paper_source,
        video_actions,
        video_invariants,
        video_universe,
    )
    from repro.sim import AdaptationCluster, QuiescentAdapter, StuckAdapter

    def run():
        universe = video_universe()
        apps = {
            "handheld": StuckAdapter(),
            "server": QuiescentAdapter(2.0),
            "laptop": QuiescentAdapter(2.0),
        }
        cluster = AdaptationCluster(
            universe, video_invariants(), video_actions(),
            paper_source(universe), apps=apps, policy=POLICY,
        )
        outcome = cluster.adapt_to(paper_target())
        return cluster, outcome

    cluster, outcome = benchmark(run)
    assert outcome.status == "await_user"
    assert cluster.planner.space.is_safe(cluster.manager.committed)
    benchmark.extra_info["rollbacks"] = outcome.steps_rolled_back
