"""Simulator-only process applications.

:class:`MonitoredApp` derives the local safe state from a temporal
monitor and schedules its release on the simulator's event loop.  The
backend-portable synthetic apps (configurable quiesce latency,
fail-to-reset injection) are :class:`repro.exec.app.QuiescentAdapter`
and :class:`repro.exec.app.StuckAdapter`.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.cluster import ProcessApp


class MonitoredApp(ProcessApp):
    """Local safe state derived automatically from a temporal monitor (§7).

    Instead of a fixed quiesce delay, the app feeds its workload events to
    a :class:`repro.ltl.SafeStateMonitor`; when a reset is pending and an
    observation lands in a safe state, the agent is notified.  This is the
    paper's future-work proposal ("the formula can then be dynamically
    evaluated ... the state can be automatically identified as a safe
    state") realized against the simulator.
    """

    def __init__(self, monitor):
        self.monitor = monitor
        self._pending_step: Optional[str] = None
        monitor.on_safe(self._maybe_release)

    def observe(self, *events: str) -> None:
        """Feed workload events (e.g. segment begin/end) to the monitor."""
        self.monitor.observe(*events)

    def _maybe_release(self) -> None:
        if self._pending_step is not None:
            step_key, self._pending_step = self._pending_step, None
            self.host.local_safe(step_key)

    def begin_reset(self, step_key, action, inject_flush, await_flush) -> None:
        if self.monitor.safe:
            self.host.sim.call_soon(lambda: self.host.local_safe(step_key))
        else:
            self._pending_step = step_key

    def abort_reset(self, step_key) -> None:
        if self._pending_step == step_key:
            self._pending_step = None
