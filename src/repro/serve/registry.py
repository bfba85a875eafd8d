"""SpecRegistry: multi-tenant manifest registry over a PlanningService.

The :class:`~repro.serve.service.PlanningService` keys warm planners by
the content digest of a compiled ``(S, I, A)`` spec; this registry adds
the **manifest layer** on top — named configurations, ``[properties]``
formulas, component counts — so control-plane requests can say
``"source": "baseline"`` instead of shipping bit vectors.  Uploading a
spec *is* uploading manifest text: the registry parses it, registers the
compiled spec with the service, and remembers the parsed manifest under
the digest.

The registry is LRU-bounded (``max_specs``): registering past the bound
evicts the least-recently-used spec, dropping its warm planner from the
service as well.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.manifest import SystemManifest, loads
from repro.serve.service import PlanningService


class SpecRecord:
    """One registered spec: its digest plus the parsed manifest."""

    __slots__ = ("digest", "manifest")

    def __init__(self, digest: str, manifest: SystemManifest):
        self.digest = digest
        self.manifest = manifest


class SpecRegistry:
    """LRU-bounded digest → :class:`SpecRecord` map, synced to a service.

    Args:
        service: the planning service warm caches live in; evicting a
            record evicts the service entry too.
        max_specs: LRU bound on registered specs (≥ 1).
    """

    def __init__(self, service: PlanningService, max_specs: int = 64):
        if max_specs < 1:
            raise ValueError(f"max_specs must be >= 1, got {max_specs}")
        self.service = service
        self.max_specs = max_specs
        self._lock = threading.RLock()
        self._records: "OrderedDict[str, SpecRecord]" = OrderedDict()

    # -- registration ------------------------------------------------------------
    def register(self, text: str) -> Tuple[SpecRecord, bool]:
        """Parse manifest *text* and register its spec.

        Returns ``(record, created)`` — *created* is False when an equal
        spec (same content digest) was already registered, in which case
        the existing record is refreshed in LRU order and returned.
        Raises :class:`repro.errors.ParseError` on bad manifest text.
        """
        manifest = loads(text)
        digest = self.service.register(
            manifest.universe, manifest.invariants, manifest.actions
        )
        with self._lock:
            record = self._records.get(digest)
            if record is not None:
                self._records.move_to_end(digest)
                return record, False
            record = SpecRecord(digest, manifest)
            self._records[digest] = record
            while len(self._records) > self.max_specs:
                victim, _ = self._records.popitem(last=False)
                self.service.evict(victim)
        return record, True

    # -- lookup ------------------------------------------------------------------
    def get(self, digest: str) -> SpecRecord:
        """The record for *digest*, refreshed in LRU order.

        Raises ``KeyError`` (message includes the digest) when absent.
        """
        with self._lock:
            record = self._records.get(digest)
            if record is None:
                raise KeyError(f"unknown spec digest {digest!r}")
            self._records.move_to_end(digest)
            return record

    def peek(self, digest: str) -> Optional[SpecRecord]:
        """Lock-free, LRU-neutral lookup for hot paths (None when absent)."""
        return self._records.get(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def __len__(self) -> int:
        return len(self._records)

    def digests(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._records)

    def evict(self, digest: str) -> bool:
        """Drop a spec from registry and service; True when it existed."""
        with self._lock:
            existed = self._records.pop(digest, None) is not None
        # Sync the service either way: a spec registered through the
        # object-keyed service API may exist there without a record here.
        serviced = self.service.evict(digest)
        return existed or serviced

    # -- introspection -----------------------------------------------------------
    def describe(self) -> List[Dict[str, Any]]:
        """Per-spec listing merging registry facts with service counters."""
        with self._lock:
            records = list(self._records.values())
        counters = self.service.spec_stats()
        out: List[Dict[str, Any]] = []
        for record in sorted(records, key=lambda r: r.digest):
            doc: Dict[str, Any] = {
                "digest": record.digest,
                "components": len(record.manifest.universe),
                "configurations": sorted(record.manifest.configurations),
                "properties": sorted(record.manifest.properties),
            }
            spec_counters = dict(counters.get(record.digest, {}))
            # the service's "properties" counter is its compiled-formula
            # cache size; don't clobber the manifest's property names
            if "properties" in spec_counters:
                spec_counters["compiled_properties"] = spec_counters.pop(
                    "properties"
                )
            doc.update(spec_counters)
            out.append(doc)
        return out
