"""PlanningService: the one spec table, and a thread-safe front end over it.

The ROADMAP north star is serving heavy adaptation-request traffic: many
concurrent ``(source, target)`` requests against the *same* compiled
``(S, I, T, A)`` spec.  Building a fresh :class:`AdaptationPlanner` per
request re-derives the safe space, the SAG, and every shortest path from
scratch; the service instead keys one :class:`SpecEntry` per spec by a
**content hash** of the spec itself — so two callers handing in equal
specs (even separately constructed objects) land on the same warm
space + SAG + shortest-path-tree caches.

The digest → entry table is the only per-spec map in :mod:`repro.serve`.
An entry holds everything kept for its spec: the parsed manifest (when
it was registered from manifest text), the planner with its cold lock
and counters, the compiled properties, and the wire bytes of its cached
``/v1/plan`` answers.  The table is LRU-bounded (``max_specs``), and an
eviction drops the entry whole, so nothing of an evicted spec can be
served after it, not even to a later spec with the same digest.

Concurrency model (one table lock, lock-per-spec, lock-free warm reads):

* the table lock is held only to look up, create, refresh or drop an
  entry — never while planning;
* each entry owns an ``RLock`` serializing *cold* work (safe-space
  enumeration, SAG build, Dijkstra) for that spec only — concurrent
  traffic against different specs never contends;
* warm reads bypass the locks entirely: a planned pair is served from
  :meth:`AdaptationPlanner.peek_plan`, and a cached answer from
  :meth:`PlanningService.wire_hit`, plain dict lookups that are safe
  under the GIL;
* counters are bumped (and snapshotted) under a dedicated per-entry
  ``stats_lock`` so accounting is **exact** under concurrency: every
  request is counted exactly once as warm, cold, or lazy, and
  :meth:`stats` returns a consistent snapshot rather than a torn read.

Every request names its spec by digest (:meth:`register`, then
:meth:`plan_digest`, :meth:`verify_paths_digest`, ...), so network front
ends — the :class:`~repro.serve.control.ControlPlane` and its HTTP
adapter — resolve a spec once at registration time and never re-hash it.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.actions import ActionLibrary
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner
from repro.errors import NoSafePathError
from repro.expr.ast import to_text
from repro.ltl.ast import PFormula, property_to_text
from repro.ltl.compile import CompiledProperty
from repro.ltl.paths import PathVerdict
from repro.ltl.paths import verify_paths as _verify_paths

if TYPE_CHECKING:
    from repro.manifest import SystemManifest

#: bound on the cached plan answers of all specs together (a full plan
#: cache is cleared whole) and, in the control plane, on cached lint
#: answers (the oldest leave first)
WIRE_CACHE_LIMIT = 4096
#: bound on the bytes of the control plane's cached lint answers, request
#: keys included: about 130 replicated-video x3 answers of ~250 KB; the
#: oldest answers leave first
LINT_CACHE_BYTES = 32 << 20


def spec_digest(
    universe: ComponentUniverse,
    invariants: InvariantSet,
    actions: ActionLibrary,
) -> str:
    """Content hash of a compiled ``(S, I, A)`` spec.

    Canonical JSON over declaration-ordered primitives: component
    ``(name, process)`` pairs, invariant source texts, and action deltas.
    Declaration order is semantic (it fixes bit positions and tie-breaks),
    so it is part of the key — two specs differing only in component
    order plan over different bit encodings and must not share caches.
    """
    doc = {
        "components": [
            (name, universe.component(name).process) for name in universe.order
        ],
        "invariants": [to_text(inv.expr) for inv in invariants],
        "actions": [
            (
                action.action_id,
                sorted(action.removes),
                sorted(action.adds),
                action.cost,
            )
            for action in actions
        ],
    }
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def no_safe_path_message(source: Configuration, target: Configuration) -> str:
    """The one message every unreachable-pair error carries (wire-pinned)."""
    return (
        f"no safe adaptation path from {source.label()} to {target.label()}"
    )


class UnknownSpecError(KeyError):
    """No spec is registered under a digest (the wire's ``unknown-spec``)."""

    def __init__(self, digest: str):
        super().__init__(f"unknown spec digest {digest!r}")


@dataclass
class ServiceStats:
    """Counters for one service (snapshot; see :meth:`PlanningService.stats`)."""

    specs: int
    warm_hits: int
    cold_plans: int
    lazy_plans: int = 0
    #: path-quantified verifications served from a warm compiled property
    verify_hits: int = 0
    #: spec entries dropped by eviction (explicit or LRU)
    evictions: int = 0


class SpecEntry:
    """One registered spec: everything the service keeps for its digest."""

    __slots__ = (
        "digest",
        "manifest",
        "planner",
        "lock",
        "stats_lock",
        "warm_hits",
        "cold_plans",
        "lazy_plans",
        "verify_hits",
        "properties",
        "wire",
    )

    def __init__(
        self,
        digest: str,
        manifest: Optional["SystemManifest"],
        planner: AdaptationPlanner,
    ):
        self.digest = digest
        #: the parsed manifest (``None`` for a spec registered from objects)
        self.manifest = manifest
        self.planner = planner
        #: serializes cold work (enumeration, SAG build, Dijkstra)
        self.lock = threading.RLock()
        #: guards the counters only — held for nanoseconds, never while planning
        self.stats_lock = threading.Lock()
        self.warm_hits = 0
        self.cold_plans = 0
        self.lazy_plans = 0
        self.verify_hits = 0
        #: compiled-property cache, keyed by the canonical formula text
        self.properties: Dict[str, CompiledProperty] = {}
        #: (source, target) names → the wire bytes of this spec's answer
        self.wire: Dict[Tuple[str, str], bytes] = {}

    def count(self, counter: str, amount: int = 1) -> None:
        with self.stats_lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> Dict[str, int]:
        """All counters read atomically (consistent under concurrent bumps)."""
        with self.stats_lock:
            return {
                "warm_hits": self.warm_hits,
                "cold_plans": self.cold_plans,
                "lazy_plans": self.lazy_plans,
                "verify_hits": self.verify_hits,
                "compiled_properties": len(self.properties),
            }


class PlanningService:
    """Shared planning front end for many callers over many specs.

    Oversized specs (:attr:`AdaptationPlanner.oversized
    <repro.core.planner.AdaptationPlanner.oversized>`) are planned
    through :meth:`AdaptationPlanner.lazy_plan`, the others through
    :meth:`AdaptationPlanner.plan`; both read the MAP off the per-set
    tables and never materialize the safe space or the SAG.  Results
    land in the same per-pair plan cache, so warm reads stay lock-free
    whichever entry point planned the pair.

    Args:
        max_specs: LRU bound on registered specs (≥ 1); registering past
            it evicts the least-recently-used spec.
    """

    def __init__(self, max_specs: int = 64):
        if max_specs < 1:
            raise ValueError(f"max_specs must be >= 1, got {max_specs}")
        self.max_specs = max_specs
        self._lock = threading.Lock()
        self._specs: "OrderedDict[str, SpecEntry]" = OrderedDict()
        self._evictions = 0
        #: cached plan answers across every entry's ``wire``
        self._wire_answers = 0

    # -- the spec table ----------------------------------------------------------
    def register(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
    ) -> str:
        """Ensure a spec entry exists; returns its content digest.

        Idempotent: registering an equal spec again lands on the same
        warm entry.  Callers keep the digest and address every later
        request through the ``*_digest`` methods.
        """
        return self.admit(universe, invariants, actions)[0].digest

    def admit(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        manifest: Optional["SystemManifest"] = None,
    ) -> Tuple[SpecEntry, bool]:
        """The spec's entry, made on first use, and whether it was made.

        Refreshes the spec in LRU order; a new entry past ``max_specs``
        evicts the least recently used one.  A *manifest* given for an
        entry registered from objects attaches to it, which counts as
        made: the spec is new to manifest callers.
        """
        digest = spec_digest(universe, invariants, actions)
        with self._lock:
            entry = self._specs.get(digest)
            if entry is not None:
                self._specs.move_to_end(digest)
                if manifest is None or entry.manifest is not None:
                    return entry, False
                entry.manifest = manifest
                return entry, True
            entry = SpecEntry(
                digest,
                manifest,
                AdaptationPlanner(universe, invariants, actions),
            )
            self._specs[digest] = entry
            # the victims are freed (planner and all) on return, after
            # the lock is released
            victims = [
                self._drop(next(iter(self._specs)))
                for _ in range(len(self._specs) - self.max_specs)
            ]
        return entry, True

    def touch(self, digest: str) -> SpecEntry:
        """The entry for *digest*, refreshed in LRU order.

        Raises :class:`UnknownSpecError` when absent.
        """
        with self._lock:
            entry = self._specs.get(digest)
            if entry is None:
                raise UnknownSpecError(digest)
            self._specs.move_to_end(digest)
            return entry

    def evict(self, digest: str) -> bool:
        """Drop a spec entry (and all it holds); True when it existed."""
        with self._lock:
            victim = self._drop(digest)
        return victim is not None  # the victim is freed after the lock

    def _drop(self, digest: str) -> Optional[SpecEntry]:
        """Pop *digest* from the table (the caller holds the table lock)."""
        entry = self._specs.pop(digest, None)
        if entry is not None:
            self._evictions += 1
            self._wire_answers -= len(entry.wire)
        return entry

    def entries(self) -> List[SpecEntry]:
        """The registered entries, least recently used first."""
        with self._lock:
            return list(self._specs.values())

    def digests(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._specs)

    def _entry(self, digest: str) -> SpecEntry:
        """Lock-free, LRU-neutral lookup for the request paths."""
        entry = self._specs.get(digest)
        if entry is None:
            raise UnknownSpecError(digest)
        return entry

    def planner_for(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
    ) -> AdaptationPlanner:
        """The shared planner for this spec (registered on first use).

        Callers holding a planner directly (e.g. a manager runtime) get
        the warm caches but bypass the service's cold-path lock — fine
        for a single-threaded runtime loop, not for concurrent callers.
        """
        return self.admit(universe, invariants, actions)[0].planner

    # -- cached plan answers -----------------------------------------------------
    def wire_hit(self, digest: str, key: Tuple[str, str]) -> Optional[bytes]:
        """The cached answer bytes for a pair of a spec, or ``None``.

        For front-end wire caches: a hit is counted as a warm hit of the
        spec, takes no lock but the counter's and leaves the LRU order
        alone.
        """
        entry = self._specs.get(digest)
        if entry is None:
            return None
        wire = entry.wire.get(key)
        if wire is not None:
            entry.count("warm_hits")
        return wire

    def store_wire(
        self, entry: SpecEntry, key: Tuple[str, str], wire: bytes
    ) -> None:
        """Cache the answer bytes *entry* produced for a pair.

        Kept only while *entry* is the registered one: bytes of an
        evicted entry are dropped, even when an equal spec has been
        registered since (its configuration names may differ).  Past
        :data:`WIRE_CACHE_LIMIT` answers, every entry's cache is cleared.
        """
        with self._lock:
            if self._specs.get(entry.digest) is not entry:
                return
            if self._wire_answers >= WIRE_CACHE_LIMIT:
                for live in self._specs.values():
                    live.wire.clear()
                self._wire_answers = 0
            if key not in entry.wire:
                self._wire_answers += 1
            entry.wire[key] = wire

    # -- planning ----------------------------------------------------------------
    def plan_digest(
        self,
        digest: str,
        source: Configuration,
        target: Configuration,
    ) -> AdaptationPlan:
        """One MAP request against the spec's shared caches.

        Warm pairs return without taking any lock; cold pairs serialize
        on the spec's lock (one Dijkstra, then every waiter reads the
        fresh cache entry).

        Raises like :meth:`AdaptationPlanner.plan` (unsafe endpoints,
        unreachable target), and :class:`UnknownSpecError`.
        """
        entry = self._entry(digest)
        hit, plan = entry.planner.peek_plan(source, target)
        if hit:
            entry.count("warm_hits")
            if plan is None:
                raise NoSafePathError(no_safe_path_message(source, target))
            return plan
        with entry.lock:
            # Re-peek under the lock: a concurrent caller may have planned
            # this exact pair while we waited.  Without this, two racing
            # cold requests would both count (and plan) cold — the
            # accounting hammer test pins exactness.
            hit, plan = entry.planner.peek_plan(source, target)
            if hit:
                entry.count("warm_hits")
                if plan is None:
                    raise NoSafePathError(no_safe_path_message(source, target))
                return plan
            if entry.planner.oversized:
                entry.count("lazy_plans")
                return entry.planner.lazy_plan(source, target)
            entry.count("cold_plans")
            return entry.planner.plan(source, target)

    def plan_many_digest(
        self,
        digest: str,
        pairs: Sequence[Tuple[Configuration, Configuration]],
    ) -> List[Optional[AdaptationPlan]]:
        """Batched MAP solving against the spec's shared caches.

        Semantics follow :meth:`AdaptationPlanner.plan_many`: one result
        per request in input order, ``None`` for unreachable pairs.
        Oversized specs answer each pair via the lazy frontier search
        (unsafe endpoints still raise; unreachable pairs yield ``None``).
        """
        entry = self._entry(digest)
        with entry.lock:
            if entry.planner.oversized:
                entry.count("lazy_plans", len(pairs))
                results: List[Optional[AdaptationPlan]] = []
                for source, target in pairs:
                    try:
                        results.append(entry.planner.lazy_plan(source, target))
                    except NoSafePathError:
                        results.append(None)
                return results
            entry.count("cold_plans", len(pairs))
            return entry.planner.plan_many(pairs)

    def plan_k_digest(
        self,
        digest: str,
        source: Configuration,
        target: Configuration,
        k: int,
    ) -> List[AdaptationPlan]:
        """The k best alternates for a pair, by digest.

        Unbudgeted on every spec: above the lazy cap
        :meth:`~repro.core.planner.AdaptationPlanner.plan_k` searches the
        implicit SAG, so no 2^n graph is built (a server's deadline bounds
        the request).
        """
        entry = self._entry(digest)
        with entry.lock:
            return list(entry.planner.plan_k(source, target, k))

    # -- temporal verification ---------------------------------------------------
    def compiled_property_digest(
        self, digest: str, phi: PFormula
    ) -> CompiledProperty:
        """The spec's compiled form of *phi* (compiled once, then warm).

        Keyed by the canonical formula text, so structurally equal
        formulas — even separately constructed objects — share one
        compilation per spec.  Warm lookups bump ``verify_hits``.
        """
        return self._compiled_property(self._entry(digest), phi)

    @staticmethod
    def _compiled_property(entry: SpecEntry, phi: PFormula) -> CompiledProperty:
        key = property_to_text(phi)
        compiled = entry.properties.get(key)  # lock-free (dict only grows)
        if compiled is not None:
            entry.count("verify_hits")
            return compiled
        with entry.lock:
            compiled = entry.properties.get(key)
            if compiled is None:
                compiled = CompiledProperty(
                    phi, entry.planner.universe.atom_bits
                )
                entry.properties[key] = compiled
        return compiled

    def verify_paths_digest(
        self,
        digest: str,
        source: Configuration,
        target: Configuration,
        phi: PFormula,
        quantifier: str = "all",
        k: Optional[int] = None,
        max_expansions: Optional[int] = None,
    ) -> PathVerdict:
        """Path-quantified verification against the spec's shared caches.

        Semantics of :func:`repro.ltl.paths.verify_paths`, with the
        service's amortization on top: the property compiles once per
        spec, the path enumeration reuses (and feeds) the shared plan
        caches, and oversized specs route to the lazy frontier exactly
        as :meth:`plan_digest` does.
        """
        entry = self._entry(digest)
        compiled = self._compiled_property(entry, phi)
        with entry.lock:
            return _verify_paths(
                entry.planner,
                source,
                target,
                phi,
                quantifier,
                k,
                max_expansions=max_expansions,
                compiled=compiled,
            )

    # -- introspection -----------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Aggregate counters across every registered spec.

        Consistent under concurrent mutation: the entry list is copied
        under the table lock, then each entry's counters are read
        atomically under its ``stats_lock`` — no torn warm/cold reads.
        """
        with self._lock:
            entries = list(self._specs.values())
            evictions = self._evictions
        snapshots = [entry.snapshot() for entry in entries]
        return ServiceStats(
            specs=len(entries),
            warm_hits=sum(s["warm_hits"] for s in snapshots),
            cold_plans=sum(s["cold_plans"] for s in snapshots),
            lazy_plans=sum(s["lazy_plans"] for s in snapshots),
            verify_hits=sum(s["verify_hits"] for s in snapshots),
            evictions=evictions,
        )
