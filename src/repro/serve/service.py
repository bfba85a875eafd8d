"""PlanningService: a thread-safe, amortizing front end over planners.

The ROADMAP north star is serving heavy adaptation-request traffic: many
concurrent ``(source, target)`` requests against the *same* compiled
``(S, I, T, A)`` spec.  Building a fresh :class:`AdaptationPlanner` per
request re-derives the safe space, the SAG, and every shortest path from
scratch; the service instead keys one shared planner per spec by a
**content hash** of the spec itself — so two callers handing in equal
specs (even separately constructed objects) land on the same warm
space + SAG + shortest-path-tree caches.

Concurrency model (lock-per-spec, lock-free warm reads):

* the service-level registry lock is held only to look up / create a
  spec entry — never while planning;
* each spec entry owns an ``RLock`` serializing *cold* work (safe-space
  enumeration, SAG build, Dijkstra) for that spec only — concurrent
  traffic against different specs never contends;
* warm reads bypass the lock entirely: a planned pair is served from
  :meth:`AdaptationPlanner.peek_plan`, a single dict lookup that is safe
  under the GIL because plan caches only ever grow;
* counters are bumped (and snapshotted) under a dedicated per-entry
  ``stats_lock`` so accounting is **exact** under concurrency: every
  request is counted exactly once as warm, cold, or lazy, and
  :meth:`stats` returns a consistent snapshot rather than a torn read.

The service is also addressable **by digest** (:meth:`register`,
:meth:`plan_digest`, :meth:`evict`, ...) so network front ends — the
:class:`~repro.serve.control.ControlPlane` and its HTTP adapter — can
resolve a spec once at registration time and skip re-hashing the spec
on every request.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.actions import ActionLibrary
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner
from repro.errors import NoSafePathError
from repro.expr.ast import to_text
from repro.ltl.ast import PFormula, property_to_text
from repro.ltl.compile import CompiledProperty
from repro.ltl.paths import PathVerdict, check_plan
from repro.ltl.paths import verify_paths as _verify_paths


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


@dataclass
class ServiceStats:
    """Counters for one service (snapshot; see :meth:`PlanningService.stats`)."""

    specs: int
    warm_hits: int
    cold_plans: int
    lazy_plans: int = 0
    #: path-quantified verifications served from a warm compiled property
    verify_hits: int = 0
    #: spec entries dropped via :meth:`PlanningService.evict`
    evictions: int = 0


class _SpecEntry:
    """One spec's shared planner plus its cold-path lock and counters."""

    __slots__ = (
        "planner",
        "lock",
        "stats_lock",
        "warm_hits",
        "cold_plans",
        "lazy_plans",
        "properties",
        "verify_hits",
    )

    def __init__(self, planner: AdaptationPlanner):
        self.planner = planner
        #: serializes cold work (enumeration, SAG build, Dijkstra)
        self.lock = threading.RLock()
        #: guards the counters only — held for nanoseconds, never while planning
        self.stats_lock = threading.Lock()
        self.warm_hits = 0
        self.cold_plans = 0
        self.lazy_plans = 0
        #: compiled-property cache, keyed by the canonical formula text
        self.properties: Dict[str, CompiledProperty] = {}
        self.verify_hits = 0

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
                "properties": len(self.properties),
            }


class PlanningService:
    """Shared planning front end for many callers over many specs.

    Oversized specs (:attr:`AdaptationPlanner.oversized
    <repro.core.planner.AdaptationPlanner.oversized>`) are planned
    through :meth:`AdaptationPlanner.lazy_plan` — the frontier search
    that never materializes the safe space or the SAG — instead of the
    eager CSR pipeline.  Lazy results land in the same per-pair plan
    cache, so warm reads stay lock-free whichever engine planned the
    pair.

    Args:
        spt_cache_size: per-planner bound on cached shortest-path trees.
    """

    def __init__(
        self,
        spt_cache_size: int = AdaptationPlanner.SPT_CACHE_SIZE,
    ):
        self.spt_cache_size = spt_cache_size
        self._registry_lock = threading.Lock()
        self._specs: Dict[str, _SpecEntry] = {}
        self._evictions = 0

    # -- spec registry -----------------------------------------------------------
    def register(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
    ) -> str:
        """Ensure a spec entry exists; returns its content digest.

        Idempotent: registering an equal spec again lands on the same
        warm entry.  Front ends keep the digest and address every later
        request through the ``*_digest`` methods, skipping the per-call
        spec hashing the object-keyed methods pay.
        """
        digest = spec_digest(universe, invariants, actions)
        self._ensure_entry(digest, universe, invariants, actions)
        return digest

    def has_spec(self, digest: str) -> bool:
        return digest in self._specs

    def digests(self) -> Tuple[str, ...]:
        with self._registry_lock:
            return tuple(self._specs)

    def evict(self, digest: str) -> bool:
        """Drop a spec entry (and its warm caches); True when it existed."""
        with self._registry_lock:
            existed = self._specs.pop(digest, None) is not None
            if existed:
                self._evictions += 1
        return existed

    def _ensure_entry(
        self,
        digest: str,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
    ) -> _SpecEntry:
        entry = self._specs.get(digest)  # lock-free fast path (dict read)
        if entry is not None:
            return entry
        with self._registry_lock:
            entry = self._specs.get(digest)
            if entry is None:
                entry = _SpecEntry(
                    AdaptationPlanner(
                        universe,
                        invariants,
                        actions,
                        spt_cache_size=self.spt_cache_size,
                    )
                )
                self._specs[digest] = entry
        return entry

    def _entry_for(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
    ) -> _SpecEntry:
        return self._ensure_entry(
            spec_digest(universe, invariants, actions),
            universe,
            invariants,
            actions,
        )

    def _entry(self, digest: str) -> _SpecEntry:
        entry = self._specs.get(digest)
        if entry is None:
            raise KeyError(f"unknown spec digest {digest!r}")
        return entry

    def planner_for(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
    ) -> AdaptationPlanner:
        """The shared planner for this spec (created on first use).

        Callers holding a planner directly (e.g. a manager runtime) get
        the warm caches but bypass the service's cold-path lock — fine
        for a single-threaded runtime loop, not for concurrent callers.
        """
        return self._entry_for(universe, invariants, actions).planner

    def planner_digest(self, digest: str) -> AdaptationPlanner:
        """:meth:`planner_for` addressed by digest (``KeyError`` when unknown)."""
        return self._entry(digest).planner

    # -- planning ----------------------------------------------------------------
    def plan(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        source: Configuration,
        target: Configuration,
    ) -> AdaptationPlan:
        """One MAP request against the shared spec caches.

        Warm pairs return without taking any lock; cold pairs serialize
        on the spec's lock (one Dijkstra, then every waiter reads the
        fresh cache entry).

        Raises like :meth:`AdaptationPlanner.plan` (unsafe endpoints,
        unreachable target).
        """
        entry = self._entry_for(universe, invariants, actions)
        return self._plan_entry(entry, source, target)

    def plan_digest(
        self,
        digest: str,
        source: Configuration,
        target: Configuration,
    ) -> AdaptationPlan:
        """:meth:`plan` addressed by digest (``KeyError`` when unknown)."""
        return self._plan_entry(self._entry(digest), source, target)

    def _plan_entry(
        self,
        entry: _SpecEntry,
        source: Configuration,
        target: Configuration,
    ) -> AdaptationPlan:
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

    def count_warm_hit(self, digest: str) -> bool:
        """Credit one warm hit to *digest*; False when the spec is gone.

        For front-end wire caches that answer repeated requests from
        precomputed bytes: the response bypasses the planner, but the
        traffic still shows up in the spec's warm statistics — and a
        ``False`` return tells the cache its spec was evicted.
        """
        entry = self._specs.get(digest)
        if entry is None:
            return False
        entry.count("warm_hits")
        return True

    def plan_many(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        pairs: Sequence[Tuple[Configuration, Configuration]],
    ) -> List[Optional[AdaptationPlan]]:
        """Batched MAP solving against the shared spec caches.

        Semantics follow :meth:`AdaptationPlanner.plan_many`: one result
        per request in input order, ``None`` for unreachable pairs.
        Oversized specs answer each pair via the lazy frontier search
        (unsafe endpoints still raise; unreachable pairs yield ``None``).
        """
        entry = self._entry_for(universe, invariants, actions)
        return self._plan_many_entry(entry, pairs)

    def plan_many_digest(
        self,
        digest: str,
        pairs: Sequence[Tuple[Configuration, Configuration]],
    ) -> List[Optional[AdaptationPlan]]:
        """:meth:`plan_many` addressed by digest (``KeyError`` when unknown)."""
        return self._plan_many_entry(self._entry(digest), pairs)

    def _plan_many_entry(
        self,
        entry: _SpecEntry,
        pairs: Sequence[Tuple[Configuration, Configuration]],
    ) -> List[Optional[AdaptationPlan]]:
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
    def _compiled_property(
        self, entry: _SpecEntry, phi: PFormula
    ) -> CompiledProperty:
        """The spec's compiled form of *phi* (compiled once, then warm).

        Keyed by the canonical formula text, so structurally equal
        formulas — even separately constructed objects — share one
        compilation per spec digest.  Warm lookups bump ``verify_hits``.
        """
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

    def compiled_property_digest(
        self, digest: str, phi: PFormula
    ) -> CompiledProperty:
        """Per-digest compiled-property cache (``KeyError`` when unknown)."""
        return self._compiled_property(self._entry(digest), phi)

    def verify_paths(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        source: Configuration,
        target: Configuration,
        phi: PFormula,
        quantifier: str = "all",
        k: Optional[int] = None,
        max_expansions: Optional[int] = None,
    ) -> PathVerdict:
        """Path-quantified verification against the shared spec caches.

        Semantics of :func:`repro.ltl.paths.verify_paths`, with the
        service's amortization on top: the property compiles once per
        spec digest, the path enumeration reuses (and feeds) the shared
        plan caches, and oversized specs route to the lazy frontier
        exactly as :meth:`plan` does.
        """
        entry = self._entry_for(universe, invariants, actions)
        return self._verify_entry(
            entry, source, target, phi, quantifier, k, max_expansions
        )

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
        """:meth:`verify_paths` addressed by digest (``KeyError`` when unknown)."""
        return self._verify_entry(
            self._entry(digest),
            source,
            target,
            phi,
            quantifier,
            k,
            max_expansions,
        )

    def _verify_entry(
        self,
        entry: _SpecEntry,
        source: Configuration,
        target: Configuration,
        phi: PFormula,
        quantifier: str,
        k: Optional[int],
        max_expansions: Optional[int],
    ) -> PathVerdict:
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

    def check_plans(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        pairs: Sequence[Tuple[Configuration, Configuration]],
        phi: PFormula,
    ) -> List[Optional[Tuple[AdaptationPlan, Optional[int]]]]:
        """Batch-check φ along the MAP of every request pair.

        Plans the batch via :meth:`plan_many`, then evaluates the
        compiled property along each resulting plan's committed
        configurations.  One result per pair, in input order:
        ``None`` for unreachable pairs, else ``(plan, violation)``
        where *violation* is the index of the first committed
        configuration falsifying φ (``None`` when the plan satisfies
        it end to end).
        """
        entry = self._entry_for(universe, invariants, actions)
        compiled = self._compiled_property(entry, phi)
        plans = self._plan_many_entry(entry, pairs)
        return [
            None
            if plan is None
            else (plan, check_plan(compiled, entry.planner, plan))
            for plan in plans
        ]

    # -- introspection -----------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Aggregate counters across every registered spec.

        Consistent under concurrent mutation: the entry list is copied
        under the registry lock, then each entry's counters are read
        atomically under its ``stats_lock`` — no torn warm/cold reads.
        """
        with self._registry_lock:
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

    def spec_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-spec counter snapshots keyed by digest (each consistent)."""
        with self._registry_lock:
            items = list(self._specs.items())
        out: Dict[str, Dict[str, int]] = {}
        for digest, entry in items:
            snap = entry.snapshot()
            snap["components"] = len(entry.planner.universe)
            out[digest] = snap
        return out
