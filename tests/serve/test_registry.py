"""SpecRegistry: LRU bound, service sync."""

import pytest

from repro.serve import PlanningService, SpecRegistry


def manifest_with_n_components(n):
    lines = ["[components]"]
    lines += [f"C{i} @ host" for i in range(n)]
    lines += ["", "[invariants]", ": C0", "", "[configurations]",
              "base = " + "1" * n]
    return "\n".join(lines) + "\n"


@pytest.fixture
def registry():
    return SpecRegistry(PlanningService(), max_specs=3)


class TestLRUBound:
    def test_register_past_bound_evicts_least_recently_used(self, registry):
        digests = []
        for n in range(2, 6):
            record, created = registry.register(manifest_with_n_components(n))
            assert created is True
            digests.append(record.digest)
        assert len(registry) == 3
        assert digests[0] not in registry
        assert all(d in registry for d in digests[1:])

    def test_eviction_drops_the_service_entry_too(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        for n in range(3, 6):
            registry.register(manifest_with_n_components(n))
        assert not registry.service.has_spec(first.digest)
        assert registry.service.stats().evictions == 1

    def test_get_refreshes_lru_order(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        second, _ = registry.register(manifest_with_n_components(3))
        registry.get(first.digest)
        registry.register(manifest_with_n_components(4))
        registry.register(manifest_with_n_components(5))
        assert first.digest in registry
        assert second.digest not in registry

    def test_reregister_is_idempotent_and_refreshes(self, registry):
        first, created = registry.register(manifest_with_n_components(2))
        again, created_again = registry.register(
            manifest_with_n_components(2)
        )
        assert created and not created_again
        assert again is first
        assert len(registry) == 1

    def test_max_specs_must_be_positive(self):
        with pytest.raises(ValueError):
            SpecRegistry(PlanningService(), max_specs=0)


class TestLookup:
    def test_get_unknown_raises_keyerror_with_digest(self, registry):
        with pytest.raises(KeyError, match="unknown spec digest 'beef'"):
            registry.get("beef")

    def test_peek_is_lru_neutral(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        registry.register(manifest_with_n_components(3))
        assert registry.peek(first.digest) is first
        assert registry.peek("nope") is None
        # peek must not have refreshed: first is still the LRU victim
        registry.register(manifest_with_n_components(4))
        registry.register(manifest_with_n_components(5))
        assert first.digest not in registry

    def test_evict_returns_whether_anything_existed(self, registry):
        record, _ = registry.register(manifest_with_n_components(2))
        assert registry.evict(record.digest) is True
        assert registry.evict(record.digest) is False
        assert not registry.service.has_spec(record.digest)


class TestDescribe:
    def test_describe_merges_manifest_facts_with_counters(self, registry):
        record, _ = registry.register(manifest_with_n_components(2))
        source = registry.get(record.digest).manifest.resolve_configuration(
            "base"
        )
        registry.service.plan_digest(record.digest, source, source)
        (doc,) = registry.describe()
        assert doc["digest"] == record.digest
        assert doc["components"] == 2
        assert doc["configurations"] == ["base"]
        assert "owned" not in doc
        assert doc["cold_plans"] == 1
