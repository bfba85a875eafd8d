"""Live agent host: one thread per adaptive process.

The threaded backend of the execution substrate.  All effect
interpretation and trace emission live in
:class:`repro.exec.runtime.AgentRuntime`; this module only adds the
thread wiring — a receive loop consuming control messages from the
in-memory transport, an RLock so app-thread callbacks (``local_safe``
from a worker) and queue-thread message handling never interleave
mid-effect, and real (scaled) wall-clock timers.  Blocking is the
runtime's ``running_event``, a :class:`threading.Event` the
application's workers wait on.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.core.model import ComponentUniverse
from repro.errors import RuntimeHostError
from repro.exec.app import AppAdapter
from repro.exec.runtime import AgentRuntime
from repro.exec.substrate import STOP, Clock, ThreadTimerService, WallClock
from repro.protocol.messages import Envelope
from repro.runtime.transport import InMemoryTransport
from repro.trace import Trace


class LiveAgentHost(AgentRuntime):
    """One adaptive process: receive thread + agent machine + app."""

    def __init__(
        self,
        process_id: str,
        transport: InMemoryTransport,
        universe: ComponentUniverse,
        components: Iterable[str],
        app: Optional[AppAdapter] = None,
        trace: Optional[Trace] = None,
        clock: Optional[Clock] = None,
        manager_id: str = "manager",
        time_scale: float = 0.001,
    ):
        super().__init__(
            process_id,
            universe,
            components,
            clock=clock if clock is not None else WallClock(time_scale),
            transport=transport,
            timers=ThreadTimerService(time_scale),
            trace=trace if trace is not None else Trace(),
            app=app or AppAdapter(),
            manager_id=manager_id,
            lock=threading.RLock(),
            error=RuntimeHostError,
        )
        self._queue = transport.register(process_id)
        self._thread = threading.Thread(
            target=self._receive_loop, name=f"agent-{process_id}", daemon=True
        )

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        self._thread.start()
        self.app.start()

    def stop(self, timeout: float = 5.0) -> None:
        self.app.stop()
        self.timers.cancel_all()
        self.transport.stop_endpoint(self.process_id)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - shutdown hygiene
            raise RuntimeHostError(f"agent thread {self.process_id} did not stop")

    # -- inbound ---------------------------------------------------------------
    def _receive_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is STOP:
                return
            assert isinstance(item, Envelope)
            self.on_envelope(item)
