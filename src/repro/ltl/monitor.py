"""ptLTL runtime monitoring — the paper's §7 future work, built.

    "One promising approach is to use a temporal logic formula to specify
    the set of critical communication segments of a component.  The
    run-time component states can be monitored and the formula can then be
    dynamically evaluated.  If all the obligations of the formula are
    fulfilled in a state, then the state can be automatically identified
    as a safe state."

We implement exactly that: a ptLTL formula compiled once
(:mod:`repro.ltl.compile`) and evaluated *incrementally* in O(formula)
per event (the standard recursive-update construction), plus a
:class:`SafeStateMonitor` that watches a process's event stream and
reports when the formula holds — the automatically derived local safe
state.  :class:`TemporalObserver` steps either one from an observation
bus.  The AST-walking reference semantics the compiled core is pinned to
lives with the tests (``tests/oracles/ptltl_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.ltl.ast import PFormula
from repro.ltl.compile import compile_property
from repro.obs import Observer
from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    RollbackRecord,
    TraceRecord,
)


@dataclass(frozen=True)
class BalancedPair:
    """A start/done event pair whose balance defines an open obligation."""

    start: str
    done: str


class SafeStateMonitor:
    """Automatic local-safe-state detection (§7 future work).

    Combines a ptLTL formula (arbitrary temporal obligations) with
    *balanced pairs* (counting obligations like "every begin-decode has a
    matching end-decode", which pure ptLTL cannot count).  The process is
    in a safe state when the formula holds **and** every pair is balanced
    — exactly "all the obligations of the formula are fulfilled in a
    state".  The formula runs on the compiled core
    (:meth:`~repro.ltl.compile.CompiledProperty.monitor`).
    """

    def __init__(
        self,
        formula: Optional[PFormula] = None,
        pairs: Iterable[BalancedPair] = (),
    ):
        self.monitor = (
            compile_property(formula).monitor() if formula is not None else None
        )
        self.pairs = tuple(pairs)
        self._open: Dict[BalancedPair, int] = {pair: 0 for pair in self.pairs}
        self._callbacks: List[Callable[[], None]] = []

    def on_safe(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever an observation lands in a
        safe state (used by agents waiting to reset)."""
        self._callbacks.append(callback)

    def observe(self, *events: str) -> bool:
        """Feed one step's events; returns whether the state is safe."""
        event_set = frozenset(events)
        for pair in self.pairs:
            if pair.start in event_set:
                self._open[pair] += 1
            if pair.done in event_set:
                if self._open[pair] == 0:
                    raise ValueError(
                        f"unmatched {pair.done!r} (no open {pair.start!r})"
                    )
                self._open[pair] -= 1
        if self.monitor is not None:
            self.monitor.step(event_set)
        if self.safe and self._callbacks:
            for callback in self._callbacks:
                callback()
        return self.safe

    @property
    def open_obligations(self) -> int:
        return sum(self._open.values())

    @property
    def safe(self) -> bool:
        formula_ok = self.monitor.value if self.monitor is not None else True
        if formula_ok is None:  # no step observed yet: vacuously safe
            formula_ok = True
        return bool(formula_ok) and self.open_obligations == 0


def no_open_segments(start: str = "start", done: str = "done") -> SafeStateMonitor:
    """The canonical decoder safe-state monitor: no segment mid-flight."""
    return SafeStateMonitor(pairs=[BalancedPair(start, done)])


def record_events(record: TraceRecord) -> Tuple[str, ...]:
    """Default trace-record → proposition mapping for :class:`TemporalObserver`.

    Communication records contribute their atomic-action name directly
    (so CCS-style formulas can be written over ``encode``/``send``/...);
    lifecycle records contribute a fixed proposition each.  Records with
    no temporal meaning (notes) map to the empty tuple and do not step
    the monitor.
    """
    if isinstance(record, CommRecord):
        return (record.action,)
    if isinstance(record, BlockRecord):
        return ("block",) if record.blocked else ("resume",)
    if isinstance(record, ConfigCommitted):
        return ("commit",)
    if isinstance(record, AdaptationApplied):
        return ("adapt",)
    if isinstance(record, RollbackRecord):
        return ("rollback",)
    if isinstance(record, CorruptionRecord):
        return ("corruption",)
    return ()


@dataclass
class TemporalReport:
    """Terminal summary of a :class:`TemporalObserver`."""

    steps: int = 0
    holds: Optional[bool] = None
    unsafe_steps: int = 0
    first_unsafe_time: Optional[float] = None

    @property
    def ever_unsafe(self) -> bool:
        return self.unsafe_steps > 0


class TemporalObserver(Observer):
    """ptLTL / safe-state monitoring as an observation-bus subscriber.

    Replaces the bespoke per-application plumbing (``MonitoredApp``
    calling ``SafeStateMonitor.observe`` by hand): subscribe one of these
    to a trace's bus and the monitor is stepped from the published record
    stream itself, on any backend.  Wraps a :class:`SafeStateMonitor`
    (balanced pairs + formula; its safe-state callbacks keep firing) or
    a :class:`~repro.ltl.compile.CompiledMonitor` (the bit-slot core) —
    anything exposing ``step(events) -> bool``.

    ``events`` maps each record to the step's proposition set
    (default :func:`record_events`); records mapping to no events are
    skipped, and an optional ``process`` filter restricts the stream to
    one process's records — local safe states are per-process in §3.2.
    """

    def __init__(
        self,
        monitor: Union[SafeStateMonitor, "StepMonitor"],
        events: Callable[[TraceRecord], Iterable[str]] = record_events,
        process: Optional[str] = None,
        name: str = "temporal",
    ):
        self.monitor = monitor
        self._events = events
        self._process = process
        self._name = name
        self._report = TemporalReport()

    @property
    def name(self) -> str:
        return self._name

    def feed(self, record: TraceRecord) -> None:
        if self._process is not None:
            owner = getattr(record, "process", None)
            if owner != self._process:
                return
        events = tuple(self._events(record))
        if not events:
            return
        if isinstance(self.monitor, SafeStateMonitor):
            holds = self.monitor.observe(*events)
        else:
            holds = self.monitor.step(events)
        report = self._report
        report.steps += 1
        report.holds = holds
        if not holds:
            report.unsafe_steps += 1
            if report.first_unsafe_time is None:
                report.first_unsafe_time = record.time

    @property
    def holds(self) -> Optional[bool]:
        """Current monitor value (None before the first stepped record)."""
        return self._report.holds

    def finish(self) -> TemporalReport:
        return self._report


class StepMonitor:  # pragma: no cover - structural typing aid only
    """Protocol-ish base for monitors steppable by event set (docs only)."""

    def step(self, events: Iterable[str]) -> bool:
        raise NotImplementedError
