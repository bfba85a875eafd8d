"""The decision engine: rule evaluation → adaptation requests.

Bridges monitoring (sensors + rules) to process management (the
adaptation manager).  On each evaluation it fires at most one rule — the
highest-priority tripped one — and only when the manager is idle and the
target differs from the current committed configuration.

Evaluation is *event-driven* (:meth:`DecisionEngine.attach_to_bus`):
the engine evaluates when sensor data arrives (sensors notify their
listeners on every pushed reading) and when the observation bus reports
the manager reaching a terminal state (so a rule that tripped while an
adaptation was in flight gets a prompt retry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.model import Configuration
from repro.errors import NoSafePathError, UnsafeConfigurationError
from repro.monitor.rules import AdaptationRule
from repro.obs import CallbackObserver, Observer
from repro.protocol.manager import ManagerState
from repro.trace import NoteRecord, TraceRecord


@dataclass
class Decision:
    """One fired rule, for audit logs and tests."""

    time: float
    rule: str
    target: Configuration
    accepted: bool
    detail: str = ""


class DecisionEngine:
    """Evaluates rules and issues adaptation requests."""

    def __init__(self, rules: Sequence[AdaptationRule]):
        self.rules: List[AdaptationRule] = list(rules)
        self.decisions: List[Decision] = []
        # Rules whose trip was observed while the manager was busy.  The
        # threshold comparator consumes a trip when sampled, so without
        # this list a rule that tripped mid-adaptation would be lost until
        # its sensor re-armed and tripped again; instead it stays eligible
        # and fires at the next evaluation with an idle manager (the
        # bus-driven terminal-milestone retry).
        self._deferred: List[AdaptationRule] = []

    def evaluate(
        self,
        now: float,
        current: Configuration,
        request: Callable[[Configuration], None],
        busy: bool = False,
    ) -> Optional[Decision]:
        """One evaluation round.

        Args:
            now: current time (simulated or wall).
            current: the committed configuration.
            request: callback that starts the adaptation (manager entry).
            busy: True while an adaptation is already in flight — tripped
                rules are recorded but not fired.
        """
        tripped = [rule for rule in self.rules if rule.evaluate(now)]
        for deferred in self._deferred:
            if deferred.ready(now) and not any(r is deferred for r in tripped):
                tripped.append(deferred)
        if not tripped:
            return None
        tripped.sort(key=lambda rule: (-rule.priority, rule.name))
        rule = tripped[0]
        if busy:
            for r in tripped:
                if not any(d is r for d in self._deferred):
                    self._deferred.append(r)
            decision = Decision(now, rule.name, rule.target, False, "manager busy")
        elif rule.target == current:
            self._deferred = [d for d in self._deferred if d is not rule]
            decision = Decision(now, rule.name, rule.target, False, "already at target")
        else:
            self._deferred = [d for d in self._deferred if d is not rule]
            try:
                request(rule.target)
            except (NoSafePathError, UnsafeConfigurationError) as exc:
                decision = Decision(now, rule.name, rule.target, False, str(exc))
            else:
                rule.mark_fired(now)
                decision = Decision(now, rule.name, rule.target, True)
        self.decisions.append(decision)
        return decision

    # -- system integration -------------------------------------------------------
    def _manager_busy(self, manager) -> bool:
        return manager.machine.state != ManagerState.RUNNING or (
            manager.outcome is None and manager.machine.plan is not None
        )

    def attach_to_bus(self, system, bus=None) -> Observer:
        """Event-driven evaluation on any backend.

        Two triggers drive evaluation:

        * **data arrival** — every sensor referenced by a rule notifies
          the engine on each pushed reading, and the engine evaluates
          immediately (a tripped threshold fires at the reading that
          trips it, not up to a period later);
        * **manager milestones** — the observation bus carries the
          manager's terminal note record, after which the engine
          re-evaluates (via a zero-delay timer: the note is published
          from inside the manager's own dispatch, so evaluation is
          deferred out of the re-entrant context) — a rule that tripped
          while the manager was busy gets its retry promptly.

        *system* is any backend wrapper with a ``manager`` runtime
        (simulated cluster or threaded system).  *bus*
        defaults to the bus attached to the system's trace; without one,
        only sensor-driven evaluation is active.  Returns the subscribed
        observer (so callers may unsubscribe it).
        """
        manager = system.manager
        if bus is None:
            bus = system.trace.bus

        def evaluate() -> None:
            self.evaluate(
                manager.clock.now(),
                manager.committed,
                manager.request_adaptation,
                busy=self._manager_busy(manager),
            )

        seen: Set[int] = set()
        for rule in self.rules:
            if id(rule.sensor) in seen:
                continue
            seen.add(id(rule.sensor))
            rule.sensor.on_update(lambda _sensor: evaluate())

        def on_record(record: TraceRecord) -> None:
            if isinstance(record, NoteRecord) and record.text.startswith("adaptation "):
                manager.timers.set_timer("decision-engine:reevaluate", 0.0, evaluate)

        observer = CallbackObserver(on_record, name="decision-engine")
        if bus is not None:
            bus.subscribe(observer)
        return observer
