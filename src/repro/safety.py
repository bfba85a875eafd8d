"""Executable safety checker — the paper's §3 definition, run over traces.

    "A dynamic adaptation process is safe iff
       – It does not violate dependency relationships among components.
       – It does not interrupt critical communication segments."

Given an execution :class:`~repro.trace.Trace`, the checker verifies:

1. **Dependency clause** — every committed configuration satisfies every
   invariant (safe configurations only, per §3.1).
2. **CCS clause** — for every CID, ``S_CID ∈ CCS`` (or the segment is still
   a live prefix at the instant the trace ends), and no application-level
   corruption was recorded (corruption is the observable symptom of an
   interrupted segment).
3. **Global-safe-state discipline** (optional, on by default) — every
   local in-action fired while its hosting process was blocked, i.e. held
   in a safe state, per §3.3's equivalence proof.

Since the observation-bus refactor the checker is *streaming-first*:
:class:`StreamingSafetyChecker` consumes one record at a time (an
:class:`~repro.obs.Observer`, so it subscribes directly to a trace's
:class:`~repro.obs.ObservationBus`), keeps O(open segments) state, and
can **enforce** online — the first violation raises a structured
:class:`~repro.errors.SafetyViolationError` the moment the violating
record is published, aborting an unsafe adaptation in flight.
:meth:`SafetyChecker.check` is a thin batch wrapper that feeds a finished
trace through the same streaming core.  The pre-bus whole-trace replay
checker is the test oracle ``tests/oracles/replay_safety_reference.py``;
the property tests pin the streaming verdict to it, byte for byte.

Baseline strategies in :mod:`repro.baselines` demonstrably fail these
checks; the safe-adaptation protocol passes them under randomized
schedules and injected faults (see ``tests/protocol`` and
``benchmarks/bench_safety_vs_baselines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.ccs import CCSSpec, CCSTracker
from repro.core.invariants import InvariantSet
from repro.errors import SafetyViolationError, UnknownComponentError
from repro.obs import Observer
from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    Trace,
    TraceRecord,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.model import ComponentUniverse


@dataclass(frozen=True)
class Violation:
    """One piece of evidence that an execution was unsafe."""

    kind: str  # "dependency" | "ccs" | "corruption" | "discipline"
    time: float
    detail: str


@dataclass
class SafetyReport:
    """Checker output: list of violations plus summary counters."""

    violations: List[Violation] = field(default_factory=list)
    configurations_checked: int = 0
    segments_checked: int = 0
    segments_complete: int = 0
    in_actions_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self, kind: str) -> Tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.kind == kind)

    def raise_if_unsafe(self) -> None:
        if not self.ok:
            first = self.violations[0]
            raise SafetyViolationError(
                f"{len(self.violations)} safety violation(s); first: "
                f"[{first.kind} @ t={first.time:g}] {first.detail}",
                violation=first,
            )

    def summary(self) -> str:
        status = "SAFE" if self.ok else f"UNSAFE ({len(self.violations)} violations)"
        return (
            f"{status} — {self.configurations_checked} configurations, "
            f"{self.segments_complete}/{self.segments_checked} segments complete, "
            f"{self.in_actions_checked} in-actions checked"
        )


def _dependency_violation(record: ConfigCommitted, invariant_name: str) -> Violation:
    members = "{" + ",".join(sorted(record.configuration)) + "}"
    return Violation(
        kind="dependency",
        time=record.time,
        detail=(
            f"configuration {members} (step {record.step_id}) "
            f"violates invariant {invariant_name!r}"
        ),
    )


def _ccs_violation(cid: int, sequence: Tuple[str, ...], time: float) -> Violation:
    return Violation(
        kind="ccs",
        time=time,
        detail=(
            f"segment CID={cid} interrupted: observed "
            f"{list(sequence)} is not in CCS"
        ),
    )


class StreamingSafetyChecker(Observer):
    """The §3 safety definition, checked one record at a time.

    Per published record the work is O(1)-ish: the dependency clause is
    evaluated against the PR-1 compiled-invariant mask closure when a
    *universe* is supplied (falling back to the AST evaluator for
    configurations containing unknown components, so verdict *details*
    are always produced by the semantic source of truth), the CCS clause
    advances an incremental :class:`~repro.ccs.CCSTracker`, and the
    discipline clause tracks the per-process blocked map in place.

    :meth:`finish` assembles a :class:`SafetyReport` that is
    **byte-identical** to the batch replay verdict over the same records
    — same violations, same counters, same ordering (dependency, then
    CCS in first-seen-CID order, then corruption, then discipline) — and
    is idempotent, so a live run can be inspected mid-flight.

    With ``enforce=True`` the checker is a tripwire: the first record
    that proves a violation raises :class:`SafetyViolationError`
    (carrying the structured :class:`Violation`) out of the emitting
    ``trace.append``, halting the adaptation at the violation instant.
    A CCS violation trips the moment a segment's action sequence leaves
    the CCS prefix set — from that record on, no continuation can make
    the segment complete, so the final verdict is already decided.
    """

    def __init__(
        self,
        invariants: InvariantSet,
        ccs: Optional[CCSSpec] = None,
        check_discipline: bool = True,
        universe: "Optional[ComponentUniverse]" = None,
        enforce: bool = False,
    ):
        self.invariants = invariants
        self.ccs = ccs
        self.check_discipline = check_discipline
        self.enforce = enforce
        self.universe = universe
        self._mask_ok: Optional[Callable[[int], bool]] = None
        if universe is not None:
            try:
                self._mask_ok = invariants.compile_mask(universe.atom_bits)
            except KeyError:
                # An invariant mentions atoms outside the universe: the
                # compiled fast path cannot represent it; use the AST.
                self._mask_ok = None
        self._tracker = CCSTracker(ccs) if ccs is not None else None
        self._dependency: List[Violation] = []
        self._corruption: List[Violation] = []
        self._discipline: List[Violation] = []
        self._blocked: Dict[str, bool] = {}
        self.configurations_checked = 0
        self.in_actions_checked = 0
        self.records_seen = 0
        #: The first violation observed, in record order (set even when
        #: ``enforce`` is off — time-to-first-violation measurements).
        self.first_violation: Optional[Violation] = None

    @property
    def name(self) -> str:
        return "safety"

    @property
    def tripped(self) -> bool:
        return self.first_violation is not None

    # -- per-record entry --------------------------------------------------------
    def feed(self, record: TraceRecord) -> None:
        self.records_seen += 1
        if isinstance(record, ConfigCommitted):
            self._on_commit(record)
        elif isinstance(record, CommRecord):
            self._on_comm(record)
        elif isinstance(record, CorruptionRecord):
            violation = Violation(
                kind="corruption",
                time=record.time,
                detail=f"[{record.process}] {record.detail}",
            )
            self._corruption.append(violation)
            self._trip(violation)
        elif isinstance(record, BlockRecord):
            self._blocked[record.process] = record.blocked
        elif isinstance(record, AdaptationApplied):
            if self.check_discipline:
                self.in_actions_checked += 1
                if not self._blocked.get(record.process, False):
                    violation = Violation(
                        kind="discipline",
                        time=record.time,
                        detail=(
                            f"in-action {record.action_id} executed on "
                            f"process {record.process!r} while it was not "
                            "held in a safe (blocked) state"
                        ),
                    )
                    self._discipline.append(violation)
                    self._trip(violation)

    # -- clause 1: dependency relationships ---------------------------------------
    def _on_commit(self, record: ConfigCommitted) -> None:
        self.configurations_checked += 1
        if self._mask_ok is not None:
            try:
                mask = self.universe.mask_of_names(record.configuration)
            except UnknownComponentError:
                mask = None
            if mask is not None and self._mask_ok(mask):
                return  # compiled fast path: configuration is safe
        # Slow path only for violating (or mask-unrepresentable) commits:
        # the AST evaluator names the broken invariants for the report.
        for invariant in self.invariants.violated(record.configuration):
            violation = _dependency_violation(record, invariant.name)
            self._dependency.append(violation)
            self._trip(violation)

    # -- clause 2: critical communication segments ---------------------------------
    def _on_comm(self, record: CommRecord) -> None:
        if self._tracker is None:
            return
        verdict = self._tracker.observe(record.cid, record.action, record.time)
        if verdict is not None:
            # The segment just became irrecoverably interrupted; the
            # batch-parity violation (final sequence, last comm time) is
            # assembled in finish() — this one is the online tripwire.
            self._trip(_ccs_violation(verdict.cid, verdict.sequence, record.time))

    def _trip(self, violation: Violation) -> None:
        if self.first_violation is None:
            self.first_violation = violation
        if self.enforce:
            raise SafetyViolationError(
                f"safety violation [{violation.kind} @ t={violation.time:g}] "
                f"{violation.detail}",
                violation=violation,
            )

    # -- report assembly ---------------------------------------------------------
    def finish(self) -> SafetyReport:
        """The report over everything fed so far (batch-ordered, idempotent)."""
        report = SafetyReport()
        report.configurations_checked = self.configurations_checked
        report.violations.extend(self._dependency)
        if self._tracker is not None:
            for verdict in self._tracker.verdicts():
                report.segments_checked += 1
                if verdict.complete:
                    report.segments_complete += 1
                elif verdict.interrupted:
                    report.violations.append(
                        _ccs_violation(
                            verdict.cid,
                            verdict.sequence,
                            self._tracker.last_time(verdict.cid),
                        )
                    )
                # else: in progress at the stream head — permitted.
        report.violations.extend(self._corruption)
        report.in_actions_checked = self.in_actions_checked
        report.violations.extend(self._discipline)
        return report


class SafetyChecker:
    """Judges traces against the paper's two-clause safety definition."""

    def __init__(
        self,
        invariants: InvariantSet,
        ccs: Optional[CCSSpec] = None,
        check_discipline: bool = True,
        universe: "Optional[ComponentUniverse]" = None,
    ):
        self.invariants = invariants
        self.ccs = ccs
        self.check_discipline = check_discipline
        self.universe = universe

    def streaming(self, enforce: bool = False) -> StreamingSafetyChecker:
        """A fresh incremental checker with this checker's parameters."""
        return StreamingSafetyChecker(
            self.invariants,
            ccs=self.ccs,
            check_discipline=self.check_discipline,
            universe=self.universe,
            enforce=enforce,
        )

    def check(self, trace: Trace) -> SafetyReport:
        """Batch verdict: stream the finished trace through the incremental
        checker."""
        stream = self.streaming()
        for record in trace.snapshot():
            stream.feed(record)
        return stream.finish()


def check_safe(
    trace: Trace,
    invariants: InvariantSet,
    ccs: Optional[CCSSpec] = None,
    check_discipline: bool = True,
    universe: "Optional[ComponentUniverse]" = None,
) -> SafetyReport:
    """One-shot convenience wrapper around :class:`SafetyChecker`."""
    checker = SafetyChecker(
        invariants, ccs=ccs, check_discipline=check_discipline, universe=universe
    )
    return checker.check(trace)
