"""Cross-backend conformance: one protocol, two substrates, same answers.

Runs the Section 5 video scenario and an injected-failure rollback
scenario on both execution backends (discrete-event sim, threaded live
runtime) with the *same* portable app adapters, and asserts:

* the safety checker passes each backend's trace with zero violations;
* the live backend's ``committed_configurations()`` sequence agrees with
  the sim backend's (the substrate's semantics, not the backend, decide
  what gets committed).
"""

import pytest

from repro.apps.video.system import (
    paper_source,
    paper_target,
    video_actions,
    video_invariants,
    video_universe,
)
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.exec.app import QuiescentAdapter, StuckAdapter
from repro.protocol.failures import FailurePolicy
from repro.runtime import LiveAdaptationSystem
from repro.obs import MetricsObserver, ObservationBus
from repro.safety import SafetyChecker, check_safe
from repro.sim import AdaptationCluster
from tests.oracles.replay_safety_reference import check_replay

# Wall time per protocol unit on the live backend: fast enough for
# CI, slow enough that 30-unit policy timeouts are well above scheduler
# jitter.
TIME_SCALE = 0.0005


def run_sim(universe, invariants, actions, source, target, make_app, policy=None,
            bus=None):
    cluster = AdaptationCluster(
        universe,
        invariants,
        actions,
        source,
        apps={p: make_app() for p in universe.processes()},
        policy=policy,
        bus=bus,
    )
    outcome = cluster.adapt_to(target)
    return outcome, cluster.trace


def run_live(universe, invariants, actions, source, target, make_app, policy=None,
             bus=None):
    system = LiveAdaptationSystem(
        universe,
        invariants,
        actions,
        source,
        apps={p: make_app() for p in universe.processes()},
        policy=policy,
        time_scale=TIME_SCALE,
        bus=bus,
    )
    with system:
        outcome = system.adapt_to(target, timeout=30.0)
    return outcome, system.trace


BACKENDS = {"sim": run_sim, "live": run_live}


def run_all_backends(universe, invariants, actions, source, target, make_app,
                     policy=None):
    return {
        name: runner(universe, invariants, actions, source, target, make_app, policy)
        for name, runner in BACKENDS.items()
    }


class TestSection5Scenario:
    """The paper's §5 MAP realization, on every backend."""

    @pytest.fixture(scope="class")
    def results(self):
        universe = video_universe()
        return run_all_backends(
            universe,
            video_invariants(),
            video_actions(),
            paper_source(universe),
            paper_target(universe),
            lambda: QuiescentAdapter(quiesce_delay=2.0),
        )

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_completes(self, results, backend):
        outcome, _ = results[backend]
        assert outcome.succeeded, f"{backend}: {outcome.status} ({outcome.reason})"
        assert outcome.steps_committed == 5
        assert outcome.steps_rolled_back == 0

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_safety_checker_passes(self, results, backend):
        _, trace = results[backend]
        report = check_safe(trace, video_invariants())
        assert report.ok, f"{backend}: {report.violations[:3]}"
        assert not report.violations

    @pytest.mark.parametrize("backend", ("live",))
    def test_committed_sequence_agrees_with_sim(self, results, backend):
        _, sim_trace = results["sim"]
        _, trace = results[backend]
        assert trace.committed_configurations() == sim_trace.committed_configurations()


class TestInjectedFailureRollback:
    """Fail-to-reset on the only path: §4.4 drives every backend back."""

    POLICY = FailurePolicy(
        reset_timeout=30.0,
        resume_timeout=20.0,
        rollback_timeout=20.0,
        retransmit_interval=10.0,
    )

    @pytest.fixture(scope="class")
    def results(self):
        universe = ComponentUniverse.from_names(
            ["F1", "F2"], {"F1": "node", "F2": "node"}
        )
        invariants = InvariantSet.of("one_of(F1, F2)")
        actions = ActionLibrary([AdaptiveAction.replace("S12", "F1", "F2", 5)])
        return run_all_backends(
            universe,
            invariants,
            actions,
            universe.configuration("F1"),
            universe.configuration("F2"),
            StuckAdapter,
            policy=self.POLICY,
        ), invariants

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_aborts_at_source(self, results, backend):
        outcome, _ = results[0][backend]
        assert outcome.status in ("aborted", "await_user")
        assert outcome.configuration.members == frozenset({"F1"})

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_safety_checker_passes(self, results, backend):
        _, trace = results[0][backend]
        report = check_safe(trace, results[1])
        assert report.ok, f"{backend}: {report.violations[:3]}"

    @pytest.mark.parametrize("backend", ("live",))
    def test_committed_sequence_agrees_with_sim(self, results, backend):
        _, sim_trace = results[0]["sim"]
        _, trace = results[0][backend]
        assert trace.committed_configurations() == sim_trace.committed_configurations()


class TestStreamingObservation:
    """The observation bus on every backend: streaming verdict == batch
    replay, and online enforcement is inert on the safe protocol."""

    def _run(self, backend, enforce):
        universe = video_universe()
        invariants = video_invariants()
        checker = SafetyChecker(invariants, universe=universe)
        stream = checker.streaming(enforce=enforce)
        metrics = MetricsObserver()
        bus = ObservationBus(stream, metrics)
        outcome, trace = BACKENDS[backend](
            universe,
            invariants,
            video_actions(),
            paper_source(universe),
            paper_target(universe),
            lambda: QuiescentAdapter(quiesce_delay=2.0),
            bus=bus,
        )
        return checker, stream, metrics, bus, outcome, trace

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_streaming_verdict_matches_batch_replay(self, backend):
        checker, stream, metrics, bus, outcome, trace = self._run(
            backend, enforce=False
        )
        assert outcome.succeeded
        # Every emitted record streamed through the bus, in trace order.
        assert bus.records_published == len(trace)
        assert metrics.finish().records == len(trace)
        # The incremental verdict is byte-identical to the replay oracle.
        assert stream.finish() == check_replay(checker, trace)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_enforcement_inert_on_safe_protocol(self, backend):
        _, stream, _, _, outcome, _ = self._run(backend, enforce=True)
        assert outcome.succeeded, f"{backend}: enforcement tripped a safe run"
        assert not stream.tripped
        assert stream.finish().ok
