"""SpecRegistry: the manifest front of the planning service's spec table.

The :class:`~repro.serve.service.PlanningService` keys one
:class:`~repro.serve.service.SpecEntry` per compiled ``(S, I, A)`` spec
by its content digest; this registry adds the **manifest layer** on top
— named configurations, ``[properties]`` formulas, component counts — so
control-plane requests can say ``"source": "baseline"`` instead of
shipping bit vectors.  Uploading a spec *is* uploading manifest text:
the registry parses it and registers the compiled spec, with the parsed
manifest, in the service's table.

The registry keeps no state of its own: the LRU bound (``max_specs``),
the lock and the entries all belong to the service, so evicting a spec
drops its manifest, planner and cached answers at once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.manifest import loads
from repro.serve.service import PlanningService, SpecEntry, UnknownSpecError


class SpecRegistry:
    """Manifest-addressed front of a :class:`PlanningService`'s spec table.

    Args:
        service: the planning service whose table holds the specs.
    """

    def __init__(self, service: PlanningService):
        self.service = service

    def register(self, text: str) -> Tuple[SpecEntry, bool]:
        """Parse manifest *text* and register its spec.

        Returns ``(entry, created)`` — *created* is False when an equal
        spec (same content digest) was already registered, in which case
        the existing entry is refreshed in LRU order and returned.
        Raises :class:`repro.errors.ParseError` on bad manifest text.
        """
        manifest = loads(text)
        return self.service.admit(
            manifest.universe, manifest.invariants, manifest.actions, manifest
        )

    def get(self, digest: str) -> SpecEntry:
        """The entry for *digest*, refreshed in LRU order.

        Raises :class:`~repro.serve.service.UnknownSpecError` (a
        ``KeyError`` whose message includes the digest) when no manifest
        was registered under it.
        """
        entry = self.service.touch(digest)
        if entry.manifest is None:
            raise UnknownSpecError(digest)
        return entry

    def evict(self, digest: str) -> bool:
        """Drop a spec and everything kept for it; True when it existed."""
        return self.service.evict(digest)

    def describe(self) -> List[Dict[str, Any]]:
        """Per-spec listing: manifest facts, then the entry's counters."""
        out: List[Dict[str, Any]] = []
        for entry in sorted(self.service.entries(), key=lambda e: e.digest):
            manifest = entry.manifest
            if manifest is None:
                continue
            doc: Dict[str, Any] = {
                "digest": entry.digest,
                "components": len(manifest.universe),
                "configurations": sorted(manifest.configurations),
                "properties": sorted(manifest.properties),
            }
            doc.update(entry.snapshot())
            out.append(doc)
        return out
