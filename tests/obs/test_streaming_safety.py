"""Streaming safety checking and online enforcement.

Unit coverage for the incremental CCS tracker and the streaming checker
(batch parity on crafted traces; the hypothesis suite covers random
ones), plus the headline behavior: enforcement aborts the unsafe
baselines *mid-run*, at the first violating record.
"""

import pytest

from repro.apps.video import VideoScenario
from repro.apps.video.scenario import VIDEO_CCS
from repro.apps.video.system import paper_target
from repro.baselines import LocalQuiescenceSwap, RestartSwap, TwoPhaseSwap, UnsafeSwap
from repro.ccs import CCSSpec, CCSTracker
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.errors import SafetyViolationError
from repro.obs import ObservationBus
from repro.safety import SafetyChecker, StreamingSafetyChecker, check_safe
from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    Trace,
)
from tests.oracles.replay_safety_reference import check_replay

SPEC = CCSSpec([("a",), ("a", "b"), ("a", "b", "c"), ("x", "y")])


class TestCCSTracker:
    def test_complete_segment(self):
        tracker = CCSTracker(SPEC)
        assert tracker.observe(1, "a", time=1.0) is None
        assert tracker.observe(1, "b", time=2.0) is None
        (verdict,) = tracker.verdicts()
        assert verdict.complete and not verdict.interrupted
        assert tracker.sequence(1) == ("a", "b")
        assert tracker.last_time(1) == 2.0
        assert tracker.completed == 1

    def test_interruption_is_detected_at_the_violating_action(self):
        tracker = CCSTracker(SPEC)
        assert tracker.observe(1, "x", time=1.0) is None  # open prefix
        verdict = tracker.observe(1, "c", time=2.0)  # leaves the prefix set
        assert verdict is not None and verdict.interrupted
        assert verdict.sequence == ("x", "c")
        # Dead is final: later actions never revive it, and the verdict
        # is only surfaced once (the enforcement hook fires once).
        assert tracker.observe(1, "y", time=3.0) is None
        (final,) = tracker.verdicts()
        assert final.interrupted and final.sequence == ("x", "c", "y")
        assert tracker.interrupted == 1

    def test_completed_segment_can_be_extended_and_rejudged(self):
        tracker = CCSTracker(SPEC)
        tracker.observe(1, "a")  # complete: ("a",)
        assert tracker.verdicts()[0].complete
        tracker.observe(1, "b")  # longer complete: ("a", "b")
        assert tracker.verdicts()[0].complete
        assert tracker.completed == 1
        verdict = tracker.observe(1, "a")  # ("a","b","a") — now dead
        assert verdict is not None and verdict.interrupted
        assert tracker.completed == 0 and tracker.interrupted == 1

    def test_completed_segments_store_no_action_list(self):
        tracker = CCSTracker(SPEC)
        for cid in range(100):
            tracker.observe(cid, "a")
            tracker.observe(cid, "b")
            tracker.observe(cid, "c")
        assert tracker.completed == 100
        assert all(
            state.actions is None for state in tracker._segments.values()
        )

    def test_matches_batch_judgement(self):
        comms = [
            CommRecord(time=float(i), cid=cid, action=action)
            for i, (cid, action) in enumerate(
                [(1, "a"), (2, "x"), (1, "b"), (2, "c"), (3, "a"), (2, "y")]
            )
        ]
        trace = Trace(comms)
        tracker = CCSTracker(SPEC)
        for record in comms:
            tracker.observe(record.cid, record.action, record.time)
        assert tracker.verdicts() == SPEC.judge_trace(trace)
        assert tracker.cids() == trace.cids()
        for cid in trace.cids():
            assert tracker.sequence(cid) == trace.comm_sequence(cid)


UNIVERSE = ComponentUniverse.from_names(
    ["A", "B", "C"], {"A": "p1", "B": "p1", "C": "p2"}
)
INVARIANTS = InvariantSet.of("A | B")


def crafted_unsafe_records():
    return [
        ConfigCommitted(time=0.0, configuration=frozenset({"A"})),
        CommRecord(time=1.0, cid=1, action="a"),
        ConfigCommitted(time=2.0, configuration=frozenset({"C"}), step_id="s1"),
        AdaptationApplied(
            time=3.0, process="p1", action_id="a1",
            removes=frozenset({"A"}), adds=frozenset({"C"}),
        ),
        CommRecord(time=4.0, cid=1, action="c"),
        CorruptionRecord(time=5.0, process="p2", detail="bad frame"),
        BlockRecord(time=6.0, process="p1", blocked=True),
        AdaptationApplied(
            time=7.0, process="p1", action_id="a2",
            removes=frozenset(), adds=frozenset({"B"}),
        ),
    ]


class TestStreamingChecker:
    @pytest.mark.parametrize("universe", [None, UNIVERSE])
    def test_matches_replay_on_crafted_unsafe_trace(self, universe):
        trace = Trace(crafted_unsafe_records())
        checker = SafetyChecker(INVARIANTS, ccs=SPEC, universe=universe)
        streamed = checker.check(trace)
        assert streamed == check_replay(checker, trace)
        assert [v.kind for v in streamed.violations] == [
            "dependency", "ccs", "corruption", "discipline"
        ]

    def test_mask_fast_path_and_ast_agree_on_details(self):
        trace = Trace(crafted_unsafe_records())
        with_mask = SafetyChecker(INVARIANTS, ccs=SPEC, universe=UNIVERSE)
        without = SafetyChecker(INVARIANTS, ccs=SPEC)
        assert with_mask.check(trace) == without.check(trace)

    def test_unknown_components_fall_back_to_ast(self):
        records = [
            ConfigCommitted(time=0.0, configuration=frozenset({"A", "ZZZ"})),
            ConfigCommitted(time=1.0, configuration=frozenset({"ZZZ"})),
        ]
        trace = Trace(records)
        checker = SafetyChecker(INVARIANTS, universe=UNIVERSE)
        report = checker.check(trace)
        assert report == check_replay(checker, trace)
        assert len(report.by_kind("dependency")) == 1

    def test_check_safe_accepts_universe(self):
        trace = Trace([ConfigCommitted(time=0.0, configuration=frozenset({"A"}))])
        assert check_safe(trace, INVARIANTS, universe=UNIVERSE).ok

    def test_first_violation_is_recorded_without_enforcement(self):
        stream = StreamingSafetyChecker(INVARIANTS, ccs=SPEC)
        for record in crafted_unsafe_records():
            stream.feed(record)
        assert stream.tripped
        first = stream.first_violation
        # First violating record in stream order: the t=2 bad commit.
        assert first.kind == "dependency" and first.time == 2.0
        # finish() is idempotent and inspectable mid-stream.
        assert stream.finish() == stream.finish()

    def test_discipline_disabled_skips_counting(self):
        trace = Trace(crafted_unsafe_records())
        checker = SafetyChecker(INVARIANTS, ccs=SPEC, check_discipline=False)
        report = checker.check(trace)
        assert report == check_replay(checker, trace)
        assert report.in_actions_checked == 0
        assert not report.by_kind("discipline")


class TestEnforcement:
    def test_raises_structured_error_at_the_violating_record(self):
        stream = StreamingSafetyChecker(INVARIANTS, enforce=True)
        stream.feed(ConfigCommitted(time=0.0, configuration=frozenset({"A"})))
        with pytest.raises(SafetyViolationError) as excinfo:
            stream.feed(
                ConfigCommitted(time=2.0, configuration=frozenset({"C"}), step_id="s1")
            )
        violation = excinfo.value.violation
        assert violation is not None
        assert violation.kind == "dependency" and violation.time == 2.0
        assert violation == stream.first_violation

    def test_tripwire_aborts_trace_append_but_keeps_evidence(self):
        stream = StreamingSafetyChecker(INVARIANTS, enforce=True)
        trace = Trace(bus=ObservationBus(stream))
        bad = ConfigCommitted(time=0.0, configuration=frozenset({"C"}))
        with pytest.raises(SafetyViolationError):
            trace.append(bad)
        assert trace.snapshot() == (bad,)

    def test_report_raise_if_unsafe_carries_structure(self):
        trace = Trace(crafted_unsafe_records())
        report = check_safe(trace, INVARIANTS, ccs=SPEC)
        with pytest.raises(SafetyViolationError) as excinfo:
            report.raise_if_unsafe()
        assert excinfo.value.violation == report.violations[0]


def enforced_scenario(seed=3):
    scenario = VideoScenario(seed=seed)
    stream = StreamingSafetyChecker(
        scenario.cluster.invariants,
        ccs=VIDEO_CCS,
        universe=scenario.cluster.universe,
        enforce=True,
    )
    scenario.cluster.trace.attach_bus(ObservationBus(stream), replay=True)
    return scenario, stream


class TestEnforcementOnBaselines:
    """--enforce semantics: unsafe baselines halt mid-run, safe ones don't."""

    def test_unsafe_swap_is_halted_at_first_violation(self):
        scenario, stream = enforced_scenario()
        UnsafeSwap(scenario.cluster, paper_target(), at_time=50.0).schedule()
        with pytest.raises(SafetyViolationError) as excinfo:
            scenario.cluster.sim.run(until=120.0)
        # Halted at the swap instant, not at the end of the run.
        assert scenario.cluster.sim.now == pytest.approx(50.0, abs=1.0)
        assert excinfo.value.violation == stream.first_violation

    def test_quiescence_swap_is_halted_mid_run(self):
        scenario, stream = enforced_scenario()
        LocalQuiescenceSwap(scenario.cluster, paper_target(), at_time=50.0).schedule()
        with pytest.raises(SafetyViolationError):
            scenario.cluster.sim.run(until=150.0)
        assert stream.tripped
        assert scenario.cluster.sim.now < 150.0

    def test_two_phase_swap_runs_untouched(self):
        scenario, stream = enforced_scenario()
        scenario.cluster.sim.run(until=50.0)
        TwoPhaseSwap(scenario.cluster, paper_target()).run()
        scenario.cluster.sim.run(until=scenario.cluster.sim.now + 60.0)
        assert not stream.tripped
        assert stream.finish().ok

    def test_restart_swap_runs_untouched(self):
        scenario, stream = enforced_scenario()
        RestartSwap(scenario.cluster, paper_target(), at_time=50.0).schedule()
        scenario.cluster.sim.run(until=150.0)
        assert not stream.tripped

    def test_safe_protocol_completes_under_enforcement(self):
        scenario, stream = enforced_scenario()
        outcome = scenario.run()
        assert outcome.succeeded
        assert not stream.tripped
        assert stream.finish().ok
