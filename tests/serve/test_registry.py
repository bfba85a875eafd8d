"""SpecRegistry: the manifest front of the service's LRU-bounded spec table."""

import pytest

from repro.serve import PlanningService, SpecRegistry, UnknownSpecError


def manifest_with_n_components(n):
    lines = ["[components]"]
    lines += [f"C{i} @ host" for i in range(n)]
    lines += ["", "[invariants]", ": C0", "", "[configurations]",
              "base = " + "1" * n]
    return "\n".join(lines) + "\n"


@pytest.fixture
def registry():
    return SpecRegistry(PlanningService(max_specs=3))


def registered(registry):
    return set(registry.service.digests())


class TestLRUBound:
    def test_register_past_bound_evicts_least_recently_used(self, registry):
        digests = []
        for n in range(2, 6):
            entry, created = registry.register(manifest_with_n_components(n))
            assert created is True
            digests.append(entry.digest)
        assert registered(registry) == set(digests[1:])

    def test_eviction_drops_the_service_entry_too(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        registry.service.store_wire(first, ("base", "base"), b"cached")
        for n in range(3, 6):
            registry.register(manifest_with_n_components(n))
        assert first.digest not in registered(registry)
        assert registry.service.stats().evictions == 1
        # the cached answer went with the entry
        assert registry.service.wire_hit(first.digest, ("base", "base")) is None

    def test_get_refreshes_lru_order(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        second, _ = registry.register(manifest_with_n_components(3))
        registry.get(first.digest)
        registry.register(manifest_with_n_components(4))
        registry.register(manifest_with_n_components(5))
        assert first.digest in registered(registry)
        assert second.digest not in registered(registry)

    def test_reregister_is_idempotent_and_refreshes(self, registry):
        first, created = registry.register(manifest_with_n_components(2))
        again, created_again = registry.register(
            manifest_with_n_components(2)
        )
        assert created and not created_again
        assert again is first
        assert registered(registry) == {first.digest}

    def test_max_specs_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanningService(max_specs=0)

    def test_registry_keeps_no_state_of_its_own(self, registry):
        assert vars(registry) == {"service": registry.service}


class TestLookup:
    def test_get_unknown_raises_keyerror_with_digest(self, registry):
        with pytest.raises(KeyError, match="unknown spec digest 'beef'"):
            registry.get("beef")
        with pytest.raises(UnknownSpecError):
            registry.get("beef")

    def test_object_specs_are_not_addressable_by_name(self, registry):
        text = manifest_with_n_components(2)
        from repro.manifest import loads

        manifest = loads(text)
        digest = registry.service.register(
            manifest.universe, manifest.invariants, manifest.actions
        )
        with pytest.raises(UnknownSpecError):
            registry.get(digest)
        assert registry.describe() == []
        # uploading the manifest attaches it to the existing entry
        entry, created = registry.register(text)
        assert created and entry.digest == digest
        assert registry.get(digest).manifest is entry.manifest

    def test_wire_hit_is_lru_neutral(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        registry.register(manifest_with_n_components(3))
        registry.service.store_wire(first, ("base", "base"), b"cached")
        assert registry.service.wire_hit(first.digest, ("base", "base"))
        # the hit must not have refreshed: first is still the LRU victim
        registry.register(manifest_with_n_components(4))
        registry.register(manifest_with_n_components(5))
        assert first.digest not in registered(registry)

    def test_evict_returns_whether_anything_existed(self, registry):
        entry, _ = registry.register(manifest_with_n_components(2))
        assert registry.evict(entry.digest) is True
        assert registry.evict(entry.digest) is False
        assert entry.digest not in registered(registry)


class TestDescribe:
    def test_describe_merges_manifest_facts_with_counters(self, registry):
        entry, _ = registry.register(manifest_with_n_components(2))
        source = registry.get(entry.digest).manifest.resolve_configuration(
            "base"
        )
        registry.service.plan_digest(entry.digest, source, source)
        (doc,) = registry.describe()
        assert doc["digest"] == entry.digest
        assert doc["components"] == 2
        assert doc["configurations"] == ["base"]
        assert doc["compiled_properties"] == 0
        assert "owned" not in doc
        assert doc["cold_plans"] == 1
