"""Unit tests for the backend contracts of the execution substrate."""

import threading
import time

import pytest

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.errors import ExecutionError
from repro.exec.app import QuiescentAdapter
from repro.exec.substrate import (
    Clock,
    NullLock,
    ThreadTimerService,
    TimerService,
    Transport,
    WallClock,
)
from repro.runtime import InMemoryTransport, LiveAdaptationSystem
from repro.sim.cluster import AdaptationCluster, SimClock, SimTimerService
from repro.sim.kernel import Simulator

# Fast wall scale for the threaded-timer tests: 1 unit = 1 ms.
SCALE = 0.001


class TestProtocolConformance:
    def test_wall_clock_is_a_clock(self):
        assert isinstance(WallClock(), Clock)

    def test_sim_clock_is_a_clock(self):
        assert isinstance(SimClock(Simulator()), Clock)

    def test_timer_services_conform(self):
        assert isinstance(ThreadTimerService(), TimerService)
        assert isinstance(SimTimerService(Simulator()), TimerService)

    def test_transports_conform(self):
        from repro.sim.net import Network

        assert isinstance(InMemoryTransport(), Transport)
        assert isinstance(Network(Simulator()), Transport)


class TestNullLock:
    def test_context_manager(self):
        lock = NullLock()
        with lock as held:
            assert held is lock


class TestWallClock:
    def test_reports_protocol_units(self):
        clock = WallClock(time_scale=0.001)
        t0 = clock.now()
        time.sleep(0.01)
        # 10 ms of wall time is ≥ ~5 protocol units at 1 ms/unit even on a
        # heavily loaded CI box.
        assert clock.now() - t0 >= 5.0

    def test_starts_near_zero(self):
        assert WallClock().now() < 1000.0


class TestThreadTimerService:
    def test_fires_once(self):
        timers = ThreadTimerService(SCALE)
        fired = threading.Event()
        timers.set_timer("t", 1.0, fired.set)
        assert fired.wait(timeout=2.0)

    def test_cancel_prevents_fire(self):
        timers = ThreadTimerService(SCALE)
        fired = threading.Event()
        timers.set_timer("t", 20.0, fired.set)
        timers.cancel_timer("t")
        assert not fired.wait(timeout=0.05)

    def test_rearm_replaces(self):
        timers = ThreadTimerService(SCALE)
        hits = []
        done = threading.Event()
        timers.set_timer("t", 500.0, lambda: hits.append("slow"))
        timers.set_timer("t", 1.0, lambda: (hits.append("fast"), done.set()))
        assert done.wait(timeout=2.0)
        time.sleep(0.02)
        assert hits == ["fast"]

    def test_cancel_all(self):
        timers = ThreadTimerService(SCALE)
        fired = threading.Event()
        for name in ("a", "b", "c"):
            timers.set_timer(name, 20.0, fired.set)
        timers.cancel_all()
        assert not fired.wait(timeout=0.05)

    def test_cancel_unarmed_is_noop(self):
        ThreadTimerService(SCALE).cancel_timer("missing")


class TestSimTimerService:
    def test_fires_at_virtual_time(self):
        sim = Simulator()
        timers = SimTimerService(sim)
        fired_at = []
        timers.set_timer("t", 5.0, lambda: fired_at.append(sim.now))
        sim.run(until=10.0)
        assert fired_at == [5.0]

    def test_cancel_and_rearm(self):
        sim = Simulator()
        timers = SimTimerService(sim)
        hits = []
        timers.set_timer("t", 5.0, lambda: hits.append("first"))
        timers.set_timer("t", 2.0, lambda: hits.append("second"))  # re-arm
        timers.set_timer("u", 3.0, lambda: hits.append("doomed"))
        timers.cancel_timer("u")
        sim.run(until=10.0)
        assert hits == ["second"]

    def test_cancel_all(self):
        sim = Simulator()
        timers = SimTimerService(sim)
        hits = []
        timers.set_timer("a", 1.0, lambda: hits.append("a"))
        timers.set_timer("b", 2.0, lambda: hits.append("b"))
        timers.cancel_all()
        sim.run(until=10.0)
        assert hits == []


class TestErrorHierarchy:
    """``except ExecutionError`` catches the failures of every backend."""

    @pytest.fixture
    def system(self):
        universe = ComponentUniverse.from_names(
            ["F1", "F2"], {"F1": "node", "F2": "node"}
        )
        actions = ActionLibrary([AdaptiveAction.replace("S12", "F1", "F2", 5)])
        return (universe, InvariantSet.of("one_of(F1, F2)"), actions,
                universe.configuration("F1"))

    def test_sim_unknown_app_process(self, system):
        with pytest.raises(ExecutionError):
            AdaptationCluster(*system, apps={"mars": QuiescentAdapter()})

    def test_live_unknown_app_process(self, system):
        with pytest.raises(ExecutionError):
            LiveAdaptationSystem(*system, apps={"mars": QuiescentAdapter()})

    def test_duplicate_transport_endpoint(self):
        transport = InMemoryTransport()
        transport.register("x")
        with pytest.raises(ExecutionError):
            transport.register("x")
