"""Backend contracts of the execution substrate.

A deployment backend supplies three small services and the shared
runtimes in :mod:`repro.exec.runtime` do everything else:

* :class:`Clock` — the current time in *protocol units* (the simulator's
  tick ≈ one millisecond).  Policies, timers, and trace timestamps all
  speak these units, so a backend that runs on wall time divides by its
  ``time_scale`` (wall seconds per unit).
* :class:`Transport` — fire-and-forget envelope delivery.  Inbound
  delivery is the backend's business: it must route each received
  envelope to the owning runtime's ``on_envelope``.
* :class:`TimerService` — named, re-armable one-shot timers.  Arming a
  name that is already armed replaces it; cancelling an unarmed or
  already-fired name is a no-op.  Delays are protocol units.

The module also ships the substrate pieces that are backend-agnostic:
:class:`WallClock` and :class:`ThreadTimerService` (the threaded
backend's clock and timers), :class:`NullLock` (the shared runtimes'
default lock, which the single-threaded simulator keeps), and the
:data:`STOP` sentinel that shuts down a receive loop.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Protocol, runtime_checkable

from repro.protocol.messages import Envelope

STOP = object()  # sentinel delivered to a receive loop to shut it down


@runtime_checkable
class Clock(Protocol):
    """Source of the current time in protocol units."""

    def now(self) -> float:
        """Current time (simulated ticks or scaled wall time)."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Outbound half of the coordination channel."""

    def send(self, envelope: Envelope) -> None:
        """Deliver *envelope* to its destination endpoint."""
        ...


@runtime_checkable
class TimerService(Protocol):
    """Named one-shot timers in protocol units."""

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        """Arm (or re-arm) *name* to invoke *callback* after *delay* units."""
        ...

    def cancel_timer(self, name: str) -> None:
        """Disarm *name* (no-op if not armed)."""
        ...

    def cancel_all(self) -> None:
        """Disarm every armed timer (backend shutdown)."""
        ...


class NullLock:
    """No-op context manager for single-threaded backends."""

    def __enter__(self) -> "NullLock":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class WallClock:
    """Protocol-unit clock over ``time.monotonic``.

    Args:
        time_scale: wall seconds per protocol unit (default 1 ms/unit).
    """

    def __init__(self, time_scale: float = 0.001):
        self.time_scale = time_scale
        self._t0 = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._t0) / self.time_scale


class ThreadTimerService:
    """Named timers over ``threading.Timer`` (the threaded backend).

    Callbacks fire on a fresh timer thread; the owning runtime is
    responsible for its own locking (both shared runtimes are).
    """

    def __init__(self, time_scale: float = 0.001):
        self.time_scale = time_scale
        self._timers: Dict[str, threading.Timer] = {}
        self._lock = threading.Lock()

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        timer = threading.Timer(
            delay * self.time_scale, self._fire, args=(name, callback)
        )
        timer.daemon = True
        with self._lock:
            old = self._timers.pop(name, None)
            if old is not None:
                old.cancel()
            self._timers[name] = timer
        timer.start()

    def _fire(self, name: str, callback: Callable[[], None]) -> None:
        with self._lock:
            self._timers.pop(name, None)
        callback()

    def cancel_timer(self, name: str) -> None:
        with self._lock:
            timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()

    def cancel_all(self) -> None:
        with self._lock:
            timers, self._timers = list(self._timers.values()), {}
        for timer in timers:
            timer.cancel()
