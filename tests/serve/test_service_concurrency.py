"""PlanningService under concurrency: exact accounting, build-once specs."""

import threading

import pytest

import repro.serve.service as service_module
from repro.errors import NoSafePathError
from repro.manifest import loads
from repro.serve import PlanningService


@pytest.fixture
def spec(video_text):
    manifest = loads(video_text)
    source = manifest.resolve_configuration("source")
    target = manifest.resolve_configuration("target")
    return manifest, source, target


def hammer(threads, iterations, work):
    """Run *work(thread_index, iteration)* from *threads* workers."""
    barrier = threading.Barrier(threads)
    errors = []

    def body(index):
        barrier.wait()
        try:
            for iteration in range(iterations):
                work(index, iteration)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    workers = [
        threading.Thread(target=body, args=(i,)) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert not errors, errors


class TestExactAccounting:
    THREADS = 8
    ITERATIONS = 50

    def test_every_request_is_warm_or_cold_and_cold_is_per_pair(self, spec):
        manifest, source, target = spec
        service = PlanningService()
        digest = service.register(
            manifest.universe, manifest.invariants, manifest.actions
        )
        pairs = [(source, target), (target, target), (source, source)]

        def work(index, iteration):
            a, b = pairs[(index + iteration) % len(pairs)]
            plan = service.plan_digest(digest, a, b)
            assert plan.source == a and plan.target == b

        hammer(self.THREADS, self.ITERATIONS, work)
        stats = service.stats()
        total = self.THREADS * self.ITERATIONS
        assert stats.warm_hits + stats.cold_plans == total
        assert stats.cold_plans == len(pairs)
        assert stats.lazy_plans == 0

    def test_unreachable_pairs_stay_exact_too(self, spec):
        manifest, source, target = spec
        service = PlanningService()
        digest = service.register(
            manifest.universe, manifest.invariants, manifest.actions
        )
        # target -> source is unreachable (actions are directed); the
        # planner caches the negative answer, so it costs one cold plan
        pairs = [(source, target), (target, source)]
        unreachable = []

        def work(index, iteration):
            a, b = pairs[(index + iteration) % len(pairs)]
            try:
                service.plan_digest(digest, a, b)
            except NoSafePathError:
                unreachable.append(1)

        hammer(self.THREADS, self.ITERATIONS, work)
        stats = service.stats()
        total = self.THREADS * self.ITERATIONS
        assert stats.warm_hits + stats.cold_plans == total
        assert stats.cold_plans == len(pairs)
        assert len(unreachable) == total // 2

    def test_stats_snapshot_is_consistent_mid_hammer(self, spec):
        manifest, source, target = spec
        service = PlanningService()
        digest = service.register(
            manifest.universe, manifest.invariants, manifest.actions
        )
        stop = threading.Event()
        snapshots = []

        def reader():
            while not stop.is_set():
                snapshots.append(service.stats())

        observer = threading.Thread(target=reader)
        observer.start()
        try:
            hammer(
                self.THREADS, self.ITERATIONS,
                lambda i, j: service.plan_digest(digest, source, target),
            )
        finally:
            stop.set()
            observer.join()
        total = self.THREADS * self.ITERATIONS
        assert service.stats().warm_hits + service.stats().cold_plans == total
        # served counts never decrease and never overshoot the total
        counts = [s.warm_hits + s.cold_plans for s in snapshots]
        assert counts == sorted(counts)
        assert all(count <= total for count in counts)


class TestBuildOnce:
    def test_concurrent_register_builds_the_planner_exactly_once(
        self, spec, monkeypatch
    ):
        manifest, _, _ = spec
        real_planner = service_module.AdaptationPlanner
        built = []

        class CountingPlanner(real_planner):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            service_module, "AdaptationPlanner", CountingPlanner
        )
        service = PlanningService()
        digests = []

        def work(index, iteration):
            digests.append(
                service.register(
                    manifest.universe, manifest.invariants, manifest.actions
                )
            )

        hammer(8, 5, work)
        assert len(built) == 1
        assert len(set(digests)) == 1
        assert service.stats().specs == 1

    def test_count_warm_hit_only_credits_live_specs(self, spec):
        """A cached wire answer counts as a warm hit of its live spec; once
        the spec is evicted there is neither an answer nor a count."""
        manifest, _, _ = spec
        service = PlanningService()
        entry, _ = service.admit(
            manifest.universe, manifest.invariants, manifest.actions
        )
        service.store_wire(entry, ("source", "target"), b"answer")
        assert service.wire_hit(entry.digest, ("source", "target")) == b"answer"
        assert service.wire_hit(entry.digest, ("target", "source")) is None
        assert service.stats().warm_hits == 1
        service.evict(entry.digest)
        assert service.wire_hit(entry.digest, ("source", "target")) is None
        assert service.stats().warm_hits == 0  # the counts left with the entry
