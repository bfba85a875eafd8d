"""The observation bus: streaming trace consumption for every backend.

Historically every consumer of an execution :class:`~repro.trace.Trace`
— the safety checker, CCS extraction, the ptLTL monitor, the timeline
renderer, the decision engine — replayed or polled the in-memory record
list through its own ad-hoc wiring, which meant an execution could only
be judged *after it ended*.  This module is the shared streaming
substrate instead: an :class:`ObservationBus` that receives every
:class:`~repro.trace.TraceRecord` at emission time (a
:class:`~repro.trace.Trace` with an attached bus publishes from
``append``, so the simulator, the threaded runtime, the application
adapters, and the baseline strategies all feed it without any
per-emitter wiring) and a tiny :class:`Observer` contract —
``feed(record)`` per record, ``finish()`` for the report — that the
incremental consumers implement:

* :class:`repro.safety.StreamingSafetyChecker` — the paper's §3 safety
  definition checked online, with optional enforcement (first violation
  raises mid-run);
* :class:`repro.ltl.TemporalObserver` — ptLTL / safe-state monitoring
  over published records;
* :class:`repro.render.EventStreamSink` — live tail of the event log;
* :class:`repro.monitor.engine.DecisionEngine.attach_to_bus` — rule
  evaluation driven by manager milestones instead of periodic polling;
* :class:`MetricsObserver` (here) — rolling counters for the
  ``--metrics`` surfaces and the observer-overhead benchmark.

Observers see records in trace order: publication happens under the
trace's append lock, so even on the threaded backend the stream is a
single serialized sequence.  An observer that raises aborts the
publishing ``append`` — that is the *enforcement tripwire* semantic, and
it is deliberate: the record that proves the violation is already in the
trace when the exception surfaces in the emitting backend.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    NoteRecord,
    RollbackRecord,
    TraceRecord,
)


class Observer:
    """Contract for incremental trace consumers.

    Subclasses override :meth:`feed` (called once per published record,
    in trace order) and :meth:`finish` (called to produce the terminal
    report; must be safe to call more than once and mid-stream, so a
    live run can be inspected without stopping it).
    """

    @property
    def name(self) -> str:
        """Identifier used in bus statistics and reports."""
        return type(self).__name__

    def feed(self, record: TraceRecord) -> None:
        """Consume one record (trace order; may raise to trip the run)."""

    def finish(self) -> object:
        """Report over everything fed so far (idempotent)."""
        return None


class CallbackObserver(Observer):
    """Adapter: wrap a plain callable as an observer."""

    def __init__(self, callback: Callable[[TraceRecord], None], name: str = ""):
        self._callback = callback
        self._name = name or getattr(callback, "__name__", "callback")

    @property
    def name(self) -> str:
        return self._name

    def feed(self, record: TraceRecord) -> None:
        self._callback(record)


@dataclass
class ObserverStats:
    """Per-observer bus accounting (drives the checker-latency metric)."""

    records: int = 0
    seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        """Mean per-record feed latency in microseconds."""
        if not self.records:
            return 0.0
        return self.seconds / self.records * 1e6


class ObservationBus:
    """Fan-out of trace records to registered observers, in order.

    Args:
        observers: initial subscribers.
        timed: when True (default) every ``feed`` call is timed with
            ``time.perf_counter`` and accumulated into :meth:`stats` —
            the per-observer overhead record the metrics surfaces and
            the observer-overhead benchmark report.
    """

    def __init__(self, *observers: Observer, timed: bool = True):
        self._observers: Tuple[Observer, ...] = ()
        self._stats: Dict[str, ObserverStats] = {}
        self.timed = timed
        self.records_published = 0
        for observer in observers:
            self.subscribe(observer)

    @property
    def observers(self) -> Tuple[Observer, ...]:
        return self._observers

    def subscribe(self, observer: Observer) -> Observer:
        """Register *observer*; returns it (handy for inline creation)."""
        if not isinstance(observer, Observer):
            raise TypeError(
                f"expected an Observer, got {type(observer).__name__} "
                "(wrap plain callables in CallbackObserver)"
            )
        self._observers = self._observers + (observer,)
        self._stats.setdefault(observer.name, ObserverStats())
        return observer

    def unsubscribe(self, observer: Observer) -> None:
        self._observers = tuple(o for o in self._observers if o is not observer)

    def publish(self, record: TraceRecord) -> None:
        """Feed *record* to every observer, in subscription order.

        Called under the publishing trace's lock, so observers may keep
        plain (unlocked) state.  An observer exception propagates to the
        emitter — the enforcement tripwire path.
        """
        self.records_published += 1
        if not self.timed:
            for observer in self._observers:
                observer.feed(record)
            return
        for observer in self._observers:
            t0 = time.perf_counter()
            try:
                observer.feed(record)
            finally:
                stats = self._stats[observer.name]
                stats.records += 1
                stats.seconds += time.perf_counter() - t0

    def finish(self) -> Dict[str, object]:
        """Collect every observer's report, keyed by observer name."""
        return {observer.name: observer.finish() for observer in self._observers}

    def stats(self) -> Dict[str, ObserverStats]:
        """Per-observer feed accounting (stays zeroed when ``timed=False``)."""
        return dict(self._stats)


@dataclass
class MetricsReport:
    """Rolling counters kept by :class:`MetricsObserver`."""

    records: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    commits: int = 0
    blocks: int = 0
    resumes: int = 0
    in_actions: int = 0
    rollbacks: int = 0
    corruption: int = 0
    comm_actions: int = 0
    notes: int = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None

    @property
    def span(self) -> float:
        if self.first_time is None or self.last_time is None:
            return 0.0
        return self.last_time - self.first_time

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (``BENCH_obs.json`` / ``--metrics``)."""
        return {
            "records": self.records,
            "by_kind": dict(sorted(self.by_kind.items())),
            "commits": self.commits,
            "blocks": self.blocks,
            "resumes": self.resumes,
            "in_actions": self.in_actions,
            "rollbacks": self.rollbacks,
            "corruption": self.corruption,
            "comm_actions": self.comm_actions,
            "notes": self.notes,
            "span": self.span,
        }

    def summary(self) -> str:
        """Human-readable multi-line summary (CLI ``--metrics``)."""
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.by_kind.items()))
        return (
            f"records: {self.records} over {self.span:g} time units\n"
            f"by kind: {kinds or '(none)'}\n"
            f"commits: {self.commits}, in-actions: {self.in_actions}, "
            f"rollbacks: {self.rollbacks}\n"
            f"blocks: {self.blocks}, resumes: {self.resumes}, "
            f"comm actions: {self.comm_actions}, corruption: {self.corruption}"
        )


class MetricsObserver(Observer):
    """Rolling execution counters: records by kind, commits, blocks, ...

    The production-observability counterpart of the safety checker: it
    never judges, only counts, and its :class:`MetricsReport` is what
    ``repro simulate --metrics`` / ``repro trace check --metrics`` print
    and the observer-overhead benchmark dumps to ``BENCH_obs.json``.
    """

    def __init__(self) -> None:
        self._by_kind: Counter = Counter()
        self._report = MetricsReport()

    def feed(self, record: TraceRecord) -> None:
        report = self._report
        report.records += 1
        self._by_kind[type(record).__name__] += 1
        if report.first_time is None:
            report.first_time = record.time
        report.last_time = record.time
        if isinstance(record, ConfigCommitted):
            report.commits += 1
        elif isinstance(record, BlockRecord):
            if record.blocked:
                report.blocks += 1
            else:
                report.resumes += 1
        elif isinstance(record, AdaptationApplied):
            report.in_actions += 1
        elif isinstance(record, RollbackRecord):
            report.rollbacks += 1
        elif isinstance(record, CorruptionRecord):
            report.corruption += 1
        elif isinstance(record, CommRecord):
            report.comm_actions += 1
        elif isinstance(record, NoteRecord):
            report.notes += 1

    def finish(self) -> MetricsReport:
        self._report.by_kind = dict(self._by_kind)
        return self._report
