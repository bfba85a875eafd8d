"""Reference whole-trace safety checker (slow oracle).

:func:`check_replay` is the checker :class:`repro.safety.SafetyChecker`
ran before the observation bus: each clause of the paper's §3 safety
definition is a separate pass over the finished trace, and CCS segments
are judged by :meth:`repro.ccs.CCSSpec.judge_trace`.  The streaming
checker keeps O(open segments) state instead; the property suites pin
its verdict to this replay, byte for byte:

* ``tests/obs/test_property.py`` and ``tests/obs/test_streaming_safety.py``;
* ``tests/exec/test_conformance.py`` (every execution backend).
"""

from __future__ import annotations

from typing import Dict

from repro.safety import (
    SafetyChecker,
    SafetyReport,
    Violation,
    _ccs_violation,
    _dependency_violation,
)
from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    Trace,
)


def check_replay(checker: SafetyChecker, trace: Trace) -> SafetyReport:
    """Judge *trace* with *checker*'s parameters, one pass per clause."""
    report = SafetyReport()
    _check_dependencies(checker, trace, report)
    if checker.ccs is not None:
        _check_segments(checker, trace, report)
    _check_corruption(trace, report)
    if checker.check_discipline:
        _check_discipline(trace, report)
    return report


# -- clause 1: dependency relationships -------------------------------------------
def _check_dependencies(
    checker: SafetyChecker, trace: Trace, report: SafetyReport
) -> None:
    for record in trace.of_type(ConfigCommitted):
        report.configurations_checked += 1
        for invariant in checker.invariants.violated(record.configuration):
            report.violations.append(_dependency_violation(record, invariant.name))


# -- clause 2: critical communication segments ------------------------------------
def _check_segments(
    checker: SafetyChecker, trace: Trace, report: SafetyReport
) -> None:
    assert checker.ccs is not None
    last_time: Dict[int, float] = {}
    for record in trace.of_type(CommRecord):
        last_time[record.cid] = record.time
    for verdict in checker.ccs.judge_trace(trace):
        report.segments_checked += 1
        if verdict.complete:
            report.segments_complete += 1
        elif verdict.interrupted:
            report.violations.append(
                _ccs_violation(
                    verdict.cid, verdict.sequence, last_time.get(verdict.cid, 0.0)
                )
            )
        # else: in progress at end of trace — permitted.


def _check_corruption(trace: Trace, report: SafetyReport) -> None:
    for record in trace.of_type(CorruptionRecord):
        report.violations.append(
            Violation(
                kind="corruption",
                time=record.time,
                detail=f"[{record.process}] {record.detail}",
            )
        )


# -- clause 3 (derived): in-actions only in held-safe processes --------------------
def _check_discipline(trace: Trace, report: SafetyReport) -> None:
    blocked: Dict[str, bool] = {}
    for record in trace:
        if isinstance(record, BlockRecord):
            blocked[record.process] = record.blocked
        elif isinstance(record, AdaptationApplied):
            report.in_actions_checked += 1
            if not blocked.get(record.process, False):
                report.violations.append(
                    Violation(
                        kind="discipline",
                        time=record.time,
                        detail=(
                            f"in-action {record.action_id} executed on "
                            f"process {record.process!r} while it was not "
                            "held in a safe (blocked) state"
                        ),
                    )
                )
