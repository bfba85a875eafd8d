"""Unified execution substrate: one effect-interpreter core, two backends.

The sans-io protocol machines (:mod:`repro.protocol`) are pure; this
package is the single place their effects are interpreted.  A deployment
backend supplies three services — :class:`Clock`, :class:`Transport`,
:class:`TimerService` (see :mod:`repro.exec.substrate`) — plus its own
receive-loop wiring, and reuses the shared :class:`AgentRuntime` /
:class:`ManagerRuntime` for everything else: effect interpretation,
trace emission, timer bookkeeping, and the §4.4 replan cascade.

Shipped backends:

* :mod:`repro.sim.cluster` — deterministic discrete-event simulation;
* :mod:`repro.runtime` — threads + in-memory queues (real hot swaps).

Applications implement :class:`AppAdapter` once and run on any backend
(see :mod:`repro.exec.app` for what "portable" requires).
"""

from repro.exec.app import AppAdapter, QuiescentAdapter, StuckAdapter
from repro.exec.runtime import (
    AdaptationOutcome,
    AgentRuntime,
    ManagerRuntime,
    resolve_replan,
)
from repro.exec.substrate import (
    STOP,
    Clock,
    NullLock,
    ThreadTimerService,
    TimerService,
    Transport,
    WallClock,
)

__all__ = [
    "AppAdapter",
    "QuiescentAdapter",
    "StuckAdapter",
    "AdaptationOutcome",
    "AgentRuntime",
    "ManagerRuntime",
    "resolve_replan",
    "Clock",
    "Transport",
    "TimerService",
    "NullLock",
    "WallClock",
    "ThreadTimerService",
    "STOP",
]
