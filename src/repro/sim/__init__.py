"""Discrete-event simulation substrate.

The paper evaluated on a physical wireless testbed (iPAQ + laptop clients
on a multicast LAN).  We substitute a deterministic discrete-event
simulator: same protocol code (the sans-io machines), but with seedable
schedules, per-channel delay/loss models, partitions, and full execution
traces — strictly better for *verifying* safety claims than real hardware.

* :mod:`repro.sim.kernel` — event loop, simulated clock, timers.
* :mod:`repro.sim.net` — directed channels, loss/delay models, multicast,
  partitions.
* :mod:`repro.sim.cluster` — the discrete-event backend of the shared
  execution substrate (:mod:`repro.exec`): manager/agent hosts wiring
  the shared runtimes to the simulated clock, timers, and network.
* :mod:`repro.sim.apps` — :class:`MonitoredApp`, whose local safe state
  comes from a temporal monitor.  The synthetic apps of tests and
  benchmarks (configurable quiesce latency, fail-to-reset injection) are
  the backend-portable :class:`~repro.exec.app.QuiescentAdapter` and
  :class:`~repro.exec.app.StuckAdapter`, re-exported here.
"""

from repro.sim.kernel import Simulator, TimerHandle
from repro.sim.net import (
    BernoulliLoss,
    BurstLoss,
    DelayModel,
    FixedDelay,
    LossModel,
    Network,
    NoLoss,
    UniformDelay,
)
from repro.sim.cluster import (
    AdaptationCluster,
    AdaptationOutcome,
    ManagerHost,
    ProcessApp,
    ProcessHost,
)
from repro.sim.apps import MonitoredApp
from repro.exec.app import QuiescentAdapter, StuckAdapter

__all__ = [
    "Simulator",
    "TimerHandle",
    "Network",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "BurstLoss",
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "AdaptationCluster",
    "AdaptationOutcome",
    "ManagerHost",
    "ProcessHost",
    "ProcessApp",
    "MonitoredApp",
    "QuiescentAdapter",
    "StuckAdapter",
]
