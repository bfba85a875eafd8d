"""Property tests: streaming verdicts are pinned to the batch oracles.

``SafetyChecker.check`` is now a wrapper over the streaming core, so the
meaningful oracle is ``check_replay`` — the pre-bus whole-trace replay
implementation kept verbatim in ``tests/oracles/replay_safety_reference.py``
for exactly this differential test.  Any
divergence in the incremental bookkeeping (violations, counters,
ordering, CCS re-judgement of extended segments) fails here on a
shrunken counterexample.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccs import CCSSpec, CCSTracker
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.safety import SafetyChecker
from tests.oracles.replay_safety_reference import check_replay
from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    NoteRecord,
    RollbackRecord,
    Trace,
)

PROCESSES = ("p1", "p2")
# "Z" is deliberately outside the universe: commits containing it force
# the streaming checker off the compiled-mask fast path onto the AST.
COMPONENTS = ("A", "B", "C", "Z")
ACTIONS = ("a", "b", "c", "x", "y")

UNIVERSE = ComponentUniverse.from_names(
    ["A", "B", "C"], {"A": "p1", "B": "p1", "C": "p2"}
)
INVARIANTS = InvariantSet.of("A | B", "one_of(A, C)")
# Nested prefixes and a shared-prefix pair: exercises open → complete →
# longer-complete → dead transitions in the incremental tracker.
SPEC = CCSSpec([("a",), ("a", "b"), ("a", "b", "c"), ("x", "y")])

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)
configurations = st.frozensets(st.sampled_from(COMPONENTS), max_size=4)

record_strategy = st.one_of(
    st.builds(
        ConfigCommitted,
        time=times,
        configuration=configurations,
        step_id=st.sampled_from(("initial", "s1", "s2")),
        action_id=st.sampled_from(("", "a1")),
    ),
    st.builds(
        CommRecord,
        time=times,
        cid=st.integers(min_value=0, max_value=3),
        action=st.sampled_from(ACTIONS),
    ),
    st.builds(
        BlockRecord,
        time=times,
        process=st.sampled_from(PROCESSES),
        blocked=st.booleans(),
    ),
    st.builds(
        AdaptationApplied,
        time=times,
        process=st.sampled_from(PROCESSES),
        action_id=st.sampled_from(("a1", "a2")),
        removes=configurations,
        adds=configurations,
    ),
    st.builds(
        CorruptionRecord,
        time=times,
        process=st.sampled_from(PROCESSES),
        detail=st.sampled_from(("bad frame", "checksum mismatch")),
    ),
    st.builds(
        RollbackRecord,
        time=times,
        process=st.sampled_from(PROCESSES),
        action_id=st.just("a1"),
    ),
    st.builds(NoteRecord, time=times, text=st.just("note")),
)

record_lists = st.lists(record_strategy, max_size=80)


@settings(max_examples=200, deadline=None)
@given(records=record_lists, with_universe=st.booleans())
def test_streaming_verdict_equals_batch_replay(records, with_universe):
    trace = Trace(records)
    checker = SafetyChecker(
        INVARIANTS, ccs=SPEC, universe=UNIVERSE if with_universe else None
    )
    streamed = checker.check(trace)
    replayed = check_replay(checker, trace)
    # Dataclass equality covers violations (content AND ordering) plus
    # every counter; spelled out for readable failure output.
    assert streamed.violations == replayed.violations
    assert streamed.configurations_checked == replayed.configurations_checked
    assert streamed.segments_checked == replayed.segments_checked
    assert streamed.segments_complete == replayed.segments_complete
    assert streamed.in_actions_checked == replayed.in_actions_checked
    assert streamed == replayed


@settings(max_examples=200, deadline=None)
@given(records=record_lists, check_discipline=st.booleans())
def test_streaming_matches_replay_without_discipline_clause(
    records, check_discipline
):
    trace = Trace(records)
    checker = SafetyChecker(
        INVARIANTS, ccs=SPEC, check_discipline=check_discipline
    )
    assert checker.check(trace) == check_replay(checker, trace)


comm_lists = st.lists(
    st.builds(
        CommRecord,
        time=times,
        cid=st.integers(min_value=0, max_value=4),
        action=st.sampled_from(ACTIONS),
    ),
    max_size=100,
)


@settings(max_examples=200, deadline=None)
@given(comms=comm_lists)
def test_incremental_ccs_tracker_equals_batch_extraction(comms):
    trace = Trace(comms)
    tracker = CCSTracker(SPEC)
    online_dead = []
    for record in comms:
        verdict = tracker.observe(record.cid, record.action, record.time)
        if verdict is not None:
            online_dead.append(verdict.cid)
    # Verdicts agree with the batch S_CID extraction + judgement.
    assert tracker.verdicts() == SPEC.judge_trace(trace)
    assert tracker.cids() == trace.cids()
    for cid in trace.cids():
        assert tracker.sequence(cid) == trace.comm_sequence(cid)
    # The online interruption hook fired exactly once per finally
    # interrupted segment (prefix-closure: dead is irrevocable).
    batch_dead = [v.cid for v in SPEC.judge_trace(trace) if v.interrupted]
    assert sorted(online_dead) == sorted(batch_dead)
    # Counters agree with the batch classification.
    verdicts = SPEC.judge_trace(trace)
    assert tracker.completed == sum(1 for v in verdicts if v.complete)
    assert tracker.interrupted == len(batch_dead)
    assert tracker.open_count == sum(1 for v in verdicts if v.in_progress)
    assert tracker.segments_seen == len(verdicts)
