"""Integration tests for the threaded live runtime (real hot swaps)."""

import threading
import time

import pytest

from repro.components.filters import Filter, PassthroughFilter
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.errors import RuntimeHostError
from repro.runtime import InMemoryTransport, LiveAdaptationSystem, PipelineApp
from repro.runtime.transport import STOP
from repro.protocol.messages import Envelope, StatusQuery
from repro.safety import check_safe


class Scaler(Filter):
    """Multiplies items; the live analogue of an encoder variant."""

    def __init__(self, name, factor):
        super().__init__(name)
        self.factor = factor

    def process(self, item):
        return [item * self.factor]


FACTORS = {"F1": 10, "F2": 100, "F3": 1000}


def filter_factory(name):
    return Scaler(name, FACTORS[name])


def make_system(**kwargs):
    universe = ComponentUniverse.from_names(
        ["F1", "F2", "F3"], {n: "node" for n in FACTORS}
    )
    invariants = InvariantSet.of("one_of(F1, F2, F3)")
    actions = ActionLibrary(
        [
            AdaptiveAction.replace("S12", "F1", "F2", 5),
            AdaptiveAction.replace("S23", "F2", "F3", 5),
            AdaptiveAction.replace("S21", "F2", "F1", 5),
        ]
    )
    outputs = []
    app = PipelineApp(filter_factory, sink=outputs.append, interval=0.001)
    system = LiveAdaptationSystem(
        universe,
        invariants,
        actions,
        universe.configuration("F1"),
        apps={"node": app},
        **kwargs,
    )
    return system, app, outputs


class TestTransport:
    def test_register_and_send(self):
        transport = InMemoryTransport()
        q = transport.register("x")
        transport.send(Envelope("a", "x", StatusQuery(step_key="k")))
        assert q.get_nowait().message.step_key == "k"

    def test_duplicate_endpoint_rejected(self):
        transport = InMemoryTransport()
        transport.register("x")
        with pytest.raises(RuntimeHostError):
            transport.register("x")

    def test_unknown_destination_rejected(self):
        transport = InMemoryTransport()
        with pytest.raises(RuntimeHostError):
            transport.send(Envelope("a", "nowhere", StatusQuery(step_key="k")))

    def test_stop_sentinel(self):
        transport = InMemoryTransport()
        q = transport.register("x")
        transport.stop_endpoint("x")
        assert q.get_nowait() is STOP


class TestLiveAdaptation:
    def test_single_step_swap(self):
        system, app, outputs = make_system()
        with system:
            time.sleep(0.03)
            outcome = system.adapt_to(
                system.universe.configuration("F2"), timeout=15
            )
            time.sleep(0.03)
        assert outcome.succeeded
        assert system.hosts["node"].components == {"F2"}
        # outputs show both regimes: ×10 before the swap, ×100 after
        assert any(o % 100 == 0 for o in outputs)

    def test_multi_step_plan(self):
        system, app, outputs = make_system()
        with system:
            time.sleep(0.02)
            outcome = system.adapt_to(
                system.universe.configuration("F3"), timeout=15
            )
        assert outcome.succeeded
        assert outcome.steps_committed == 2  # F1→F2→F3

    def test_pipeline_keeps_processing(self):
        system, app, outputs = make_system()
        with system:
            time.sleep(0.03)
            before = app.items_processed
            system.adapt_to(system.universe.configuration("F2"), timeout=15)
            time.sleep(0.05)
            after = app.items_processed
        assert after > before  # survived the adaptation and kept working

    def test_trace_passes_safety_checker(self):
        system, app, outputs = make_system()
        with system:
            time.sleep(0.02)
            system.adapt_to(system.universe.configuration("F2"), timeout=15)
        report = check_safe(system.trace, system.planner.invariants)
        assert report.ok, report.violations[:3]

    def test_sequential_adaptations(self):
        system, app, outputs = make_system()
        with system:
            assert system.adapt_to(
                system.universe.configuration("F2"), timeout=15
            ).succeeded
            assert system.adapt_to(
                system.universe.configuration("F1"), timeout=15
            ).succeeded
        assert system.hosts["node"].components == {"F1"}

    def test_unsafe_target_rejected_immediately(self):
        from repro.errors import UnsafeConfigurationError

        system, app, outputs = make_system()
        with system:
            with pytest.raises(UnsafeConfigurationError):
                system.adapt_to(system.universe.configuration("F1", "F2"))

    def test_shutdown_idempotent_workers(self):
        system, app, outputs = make_system()
        system.start()
        system.shutdown()
        # threads are gone; a second shutdown of hosts would fail loudly if
        # the receive loops were still alive — reaching here is the test.


class StuckPipelineApp(PipelineApp):
    """Never reaches the local safe state: live fail-to-reset injection."""

    def begin_reset(self, step_key, action, inject_flush, await_flush):
        pass  # never call local_safe


class TestLiveFailureHandling:
    def test_fail_to_reset_rolls_back_with_real_timers(self):
        from repro.protocol.failures import FailurePolicy

        universe = ComponentUniverse.from_names(
            ["F1", "F2", "F3"], {n: "node" for n in FACTORS}
        )
        invariants = InvariantSet.of("one_of(F1, F2, F3)")
        actions = ActionLibrary(
            [AdaptiveAction.replace("S12", "F1", "F2", 5)]
        )
        outputs = []
        app = StuckPipelineApp(filter_factory, sink=outputs.append, interval=0.001)
        system = LiveAdaptationSystem(
            universe,
            invariants,
            actions,
            universe.configuration("F1"),
            apps={"node": app},
            policy=FailurePolicy(
                reset_timeout=30.0,
                resume_timeout=20.0,
                rollback_timeout=20.0,
                retransmit_interval=10.0,
            ),
            time_scale=0.001,  # 30 time units ≈ 30 ms wall
        )
        with system:
            outcome = system.adapt_to(
                system.universe.configuration("F2"), timeout=20
            )
            # the only path needs the stuck node → abort at the source
            assert outcome.status in ("aborted", "await_user")
            assert system.committed == universe.configuration("F1")
            assert system.hosts["node"].components == {"F1"}
        report = check_safe(system.trace, invariants)
        assert report.ok, report.violations[:3]
