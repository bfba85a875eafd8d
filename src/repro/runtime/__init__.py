"""Threaded live runtime: real hot swaps with the same protocol machines.

The discrete-event simulator (:mod:`repro.sim`) proves the protocol's
properties; this package shows the *same* sans-io manager/agent machines
driving a live, multi-threaded Python system — each process is a thread,
coordination messages travel over in-memory queues, timers are real, and
the recomposed structure is a running :class:`~repro.components.FilterChain`
processing items while the adaptation happens around it.

This package is the threaded backend of the shared execution substrate
(:mod:`repro.exec`): hosts and the system assembly only add thread/queue
wiring; all effect interpretation lives in the shared runtimes.
"""

from repro.runtime.transport import InMemoryTransport, STOP
from repro.exec.app import AppAdapter
from repro.runtime.host import LiveAgentHost
from repro.runtime.live import LiveAdaptationSystem, PipelineApp

__all__ = [
    "InMemoryTransport",
    "STOP",
    "AppAdapter",
    "LiveAgentHost",
    "LiveAdaptationSystem",
    "PipelineApp",
]
