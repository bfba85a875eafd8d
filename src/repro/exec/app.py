"""The canonical application adapter of the execution substrate.

:class:`AppAdapter` is the one interface an application implements to
ride the safe-adaptation protocol.  The simulator's
:class:`~repro.sim.cluster.ProcessApp` subclasses it only to type
``host`` as a :class:`~repro.sim.cluster.ProcessHost`.
Every hook is called by the owning :class:`~repro.exec.runtime.AgentRuntime`
while it interprets agent effects, on whatever thread of control the
backend gives that runtime.

Adapters that only use ``self.host`` services that exist on every
backend — ``local_safe``, ``timers``, ``components``, ``running_event`` —
are *portable*: the same instance class runs unchanged on the simulator
and the threaded runtime.  :class:`QuiescentAdapter` and
:class:`StuckAdapter` below are the synthetic test apps of every
backend and power the cross-backend conformance suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.actions import AdaptiveAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.exec.runtime import AgentRuntime


class AppAdapter:
    """How a process quiesces, recomposes, and resumes.

    Subclass and override what the application needs; the defaults model
    a process that can quiesce instantly and whose recomposition is
    purely the component-set change.  ``self.host`` is set by
    :meth:`attach` and is the owning agent runtime.
    """

    host: "AgentRuntime"

    def attach(self, host: "AgentRuntime") -> None:
        self.host = host

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Begin application traffic (called once at system start)."""

    def stop(self) -> None:
        """Stop application workers (called once at system shutdown)."""

    # -- reset / safe state --------------------------------------------------------
    def begin_reset(
        self, step_key: str, action: AdaptiveAction, inject_flush: bool, await_flush: bool
    ) -> None:
        """Pre-action + reset initiation (Fig. 1 'resetting do: reset').

        Must eventually call ``self.host.local_safe(step_key)`` once the
        local safe state (plus any required drain condition) is reached.
        The default is immediate quiescence.
        """
        self.host.local_safe(step_key)

    def abort_reset(self, step_key: str) -> None:
        """Reset cancelled (rollback before the safe state was reached)."""

    def inject_marker(self, step_key: str) -> None:
        """Push a drain marker into the outgoing stream *without blocking*.

        Sent to upstream processes that are not themselves participants
        of a step whose downstream loses decode capability (see
        :class:`~repro.protocol.messages.FlushRequest`).  Default: no-op.
        """

    # -- structural change ---------------------------------------------------------
    def apply_action(self, action: AdaptiveAction) -> None:
        """Application-level structural change beyond the component set."""

    def undo_action(self, action: AdaptiveAction) -> None:
        """Reverse :meth:`apply_action` (rollback)."""

    def post_action(self, action: AdaptiveAction) -> None:
        """Local post-action, e.g. destroy replaced components."""

    # -- blocking ------------------------------------------------------------------
    def on_blocked(self) -> None:
        """Process was just blocked (held in its safe state)."""

    def on_resumed(self) -> None:
        """Full operation resumed."""

    def resume_latency(self) -> float:
        """Protocol time needed to restore full operation (default: 0)."""
        return 0.0


class QuiescentAdapter(AppAdapter):
    """Reaches the local safe state ``quiesce_delay`` after each reset.

    Portable across backends: the delay runs on the host's
    :class:`~repro.exec.substrate.TimerService`, so it is simulated ticks
    on the simulator and scaled wall time on the threaded backend.
    """

    _TIMER = "app:quiesce"

    def __init__(self, quiesce_delay: float = 2.0, resume_delay: float = 0.0):
        self.quiesce_delay = quiesce_delay
        self.resume_delay = resume_delay
        self.resets_started = 0
        self.resets_aborted = 0

    def begin_reset(self, step_key, action, inject_flush, await_flush) -> None:
        self.resets_started += 1
        host = self.host
        host.timers.set_timer(
            self._TIMER, self.quiesce_delay, lambda: host.local_safe(step_key)
        )

    def abort_reset(self, step_key) -> None:
        self.resets_aborted += 1
        self.host.timers.cancel_timer(self._TIMER)

    def resume_latency(self) -> float:
        return self.resume_delay


class StuckAdapter(AppAdapter):
    """Fail-to-reset injection: never (or not initially) reaches safety.

    The process silently stays busy, so the manager's reset timeout
    drives the §4.4 failure-handling cascade on any backend.

    Args:
        stuck_attempts: how many reset attempts to ignore before behaving
            like a quiescent adapter.  ``None`` means stuck forever.
        quiesce_delay: delay used once un-stuck.
    """

    _TIMER = "app:quiesce"

    def __init__(self, stuck_attempts: Optional[int] = None, quiesce_delay: float = 2.0):
        self.stuck_attempts = stuck_attempts
        self.quiesce_delay = quiesce_delay
        self.attempts_seen = 0

    def begin_reset(self, step_key, action, inject_flush, await_flush) -> None:
        self.attempts_seen += 1
        if self.stuck_attempts is None or self.attempts_seen <= self.stuck_attempts:
            return  # silently stay busy: the manager's timeout will fire
        host = self.host
        host.timers.set_timer(
            self._TIMER, self.quiesce_delay, lambda: host.local_safe(step_key)
        )

    def abort_reset(self, step_key) -> None:
        self.host.timers.cancel_timer(self._TIMER)
