"""Detection & setup phase: Minimum Adaptation Path planning (paper §4.2).

The :class:`AdaptationPlanner` performs the three setup steps on demand:

1. construct the safe-configuration set,
2. construct the Safe Adaptation Graph,
3. find the Minimum Adaptation Path (MAP) — plus the extras the rest of
   the paper needs: the cheapest path avoiding failed steps (failure
   handling §4.4), k-best paths (path-property verification) and lazy
   A* partial exploration (scalability, §7).

A MAP query skips steps 1 and 2 and runs no search: no invariant and no
action spans two collaborative sets (§7), so the plan is read off exact
per-set distance tables (:meth:`SetDistanceHeuristic.walk
<repro.core.collaborative.SetDistanceHeuristic.walk>`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
    Optional, Sequence, Set, Tuple,
)

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.collaborative import MapWalk, SetDistanceHeuristic
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.sag import Arcs, LazySAG, SafeAdaptationGraph
from repro.core.space import SafeConfigurationSpace
from repro.errors import NoSafePathError
from repro.graphs.astar import astar_cost, corridor_search
from repro.graphs.digraph import Path
from repro.graphs.yen import YenState


#: a successor function: one mask's ``(action_id, cost, next_mask)`` arcs
Successors = Callable[[int], Arcs]

#: above this many components the eager 2^n enumeration is off the table:
#: the default of :attr:`AdaptationPlanner.max_components`, the cap
#: :attr:`AdaptationPlanner.oversized` reads; every planning entry point
#: routes by that predicate (lint's default safe-space cap,
#: ``repro.lint.MAX_ENUM_COMPONENTS``, is this same constant)
LAZY_PLAN_COMPONENTS = 24


@dataclass(frozen=True)
class PlanStep:
    """One adaptation step: an ordered configuration pair plus its action."""

    index: int
    action: AdaptiveAction
    source: Configuration
    target: Configuration

    def participants(self, universe: ComponentUniverse) -> FrozenSet[str]:
        """Processes whose agents take part in this step."""
        return self.action.participants(universe)

    def __repr__(self) -> str:
        return (
            f"PlanStep({self.index}: {self.action.action_id} "
            f"{self.source.label()} -> {self.target.label()})"
        )


@dataclass(frozen=True)
class AdaptationPlan:
    """A safe adaptation path: safe configurations joined by adaptation steps."""

    source: Configuration
    target: Configuration
    steps: Tuple[PlanStep, ...]
    total_cost: float

    @property
    def action_ids(self) -> Tuple[str, ...]:
        return tuple(step.action.action_id for step in self.steps)

    @property
    def configurations(self) -> Tuple[Configuration, ...]:
        """All configurations visited, source first."""
        if not self.steps:
            return (self.source,)
        return (self.steps[0].source,) + tuple(step.target for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        """Multi-line, human-readable rendering used by examples and benches."""
        lines = [
            f"plan {self.source.label()} -> {self.target.label()} "
            f"(cost {self.total_cost:g}, {len(self.steps)} steps)"
        ]
        for step in self.steps:
            lines.append(
                f"  {step.index + 1}. {step.action.action_id}: "
                f"{step.action.description or step.action.operation_text()} "
                f"[cost {step.action.cost:g}]"
            )
        return "\n".join(lines)


class AdaptationPlanner:
    """Runs the detection & setup phase for a fixed ``(universe, I, T, A)``.

    The planner is **incremental**: the safe space, the SAG, the per-set
    distance tables and every computed plan are cached, and each is
    built only when a query needs it (:meth:`plan` needs neither the
    space nor the SAG).  The
    §4.4 failure cascade — retry the step, take the cheapest path that
    avoids the failed steps, roll back to the source — re-enters the
    planner through :meth:`plan_avoiding` with shifting ``(source,
    target)`` pairs and failure sets; each answer is derived once, then
    served from the plan cache (or the kept answers per failure set) on
    repetition.  A pair's k-best paths live in one resumable
    :class:`~repro.graphs.yen.YenState` that every k and both sides of
    the cap share.

    Not thread-safe: the table LRU and the Yen states change in place,
    so each caller serializes its calls.  The planning service holds the
    spec entry's lock (``SpecEntry.lock``) around every call but the
    lock-free :meth:`peek_plan`; the live backend holds its
    system lock (``LiveAdaptationSystem._lock``) around the manager's
    replans, so a planner shared between a service and a live system
    would need one lock for both; the model checker is single-threaded.
    """

    #: bound on the per-set distance tables, one per (collaborative set,
    #: target projection)
    SET_TABLE_CACHE_SIZE = 64

    def __init__(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        conflicts: Tuple[Tuple[str, str], ...] = (),
    ):
        self.universe = universe
        self.invariants = invariants
        self.actions = actions
        #: declared racing action pairs (manifest ``[conflicts]``) — kept
        #: inside one collaborative set so they serialize under one manager
        self.conflicts = tuple(conflicts)
        self.space = SafeConfigurationSpace(universe, invariants)
        #: the size cap :attr:`oversized` reads; lint sets it to its
        #: ``--max-enum-components``
        self.max_components = LAZY_PLAN_COMPONENTS
        self._sag: Optional[SafeAdaptationGraph] = None
        self._lazy_sag: Optional[LazySAG] = None
        self._set_distances: Optional[SetDistanceHeuristic] = None
        self._plan_cache: Dict[
            Tuple[Configuration, Configuration], Optional[AdaptationPlan]
        ] = {}
        # plan_avoiding's answers whose MAP used a failed edge, per
        # (source, target, failed edges); None: every safe path uses one
        self._avoiding: Dict[
            Tuple[Configuration, Configuration, FrozenSet[Tuple[Configuration, str]]],
            Optional[AdaptationPlan],
        ] = {}
        # per pair: its resumable Yen state — one serves every k, on both
        # sides of the cap — and the plans the list entry points decoded
        # from it (verify_paths decodes only its deciding path, unkept)
        self._k_best: Dict[
            Tuple[Configuration, Configuration],
            Tuple[YenState, List[AdaptationPlan]],
        ] = {}

    def reset_caches(self) -> None:
        """Drop every derived cache (after mutating the action library).

        Clears the SAG (and with it the compiled CSR view), the lazy
        successor generator, the per-set sub-SAGs and distance tables,
        the plan cache, :meth:`plan_avoiding`'s kept answers and the
        per-pair Yen states — all of them are derived from the action
        library, so any of them could otherwise serve a path using an
        action that no longer exists.  Call it under the same lock as
        every other call (see the class docstring): a :class:`PathStream`
        that outlives it keeps extending the dropped state, never the
        new one.
        """
        self._sag = None
        self._lazy_sag = None
        self._set_distances = None
        self._plan_cache.clear()
        self._avoiding.clear()
        self._k_best.clear()

    # -- setup steps -------------------------------------------------------------
    @property
    def sag(self) -> SafeAdaptationGraph:
        """The Safe Adaptation Graph (built on first use, then cached)."""
        if self._sag is None:
            self._sag = SafeAdaptationGraph.build(self.space, self.actions)
        return self._sag

    @property
    def lazy_sag(self) -> LazySAG:
        """The implicit-SAG successor generator (built on first use).

        Its :attr:`~repro.core.sag.LazySAG.successors` read the
        collaborative factors when every factor with actions fits
        :attr:`max_components`."""
        if self._lazy_sag is None:
            self._lazy_sag = LazySAG(self.space, self.actions, self.max_components)
        return self._lazy_sag

    @property
    def oversized(self) -> bool:
        """True when the universe exceeds :attr:`max_components`
        (:data:`LAZY_PLAN_COMPONENTS` unless lint lowered or raised it).

        The one place the size cap is read.  Above it the safe space and
        the SAG are never built: the planning service answers MAPs with
        :meth:`lazy_plan`, and :meth:`plan_k` and
        :func:`repro.ltl.paths.verify_paths` search the implicit SAG.
        """
        return len(self.universe) > self.max_components

    def _validate_endpoints(self, source: Configuration, target: Configuration) -> None:
        self.universe.validate_members(source.members)
        self.universe.validate_members(target.members)
        self.space.require_safe(source, role="source configuration")
        self.space.require_safe(target, role="target configuration")

    # -- planning entry points -----------------------------------------------------
    def plan(self, source: Configuration, target: Configuration) -> AdaptationPlan:
        """The Minimum Adaptation Path (§4.2 step 3).

        The plan obeys the MAP contract (DESIGN.md §11): least cost,
        then fewest steps, then at each step the lowest action-library
        index.  A pair is answered from the per-pair plan cache (a
        cached ``None`` records that the target is unreachable, distinct
        from an absent entry), else by :meth:`_map_path`: a walk over
        the exact per-set distance tables, with no search, no safe
        space and no SAG.  Only a pair that changes a collaborative set
        above :attr:`max_components` is searched instead
        (:meth:`_banned_shortest` over :attr:`lazy_sag`), and its ties
        break as Dijkstra's on the built SAG do.

        Raises:
            UnsafeConfigurationError: source or target violates invariants.
            NoSafePathError: target unreachable through safe configurations.
        """
        self._validate_endpoints(source, target)
        return self._answer(source, target, None)

    def _answer(
        self, source: Configuration, target: Configuration, budget: Optional[int]
    ) -> AdaptationPlan:
        """:meth:`_lookup`, raising on an unreachable target."""
        plan = self._lookup(source, target, budget)
        if plan is None:
            raise NoSafePathError(
                f"no safe adaptation path from {source.label()} to {target.label()}"
            )
        return plan

    def _lookup(
        self, source: Configuration, target: Configuration, budget: Optional[int]
    ) -> Optional[AdaptationPlan]:
        """The routing shared by :meth:`plan`, :meth:`lazy_plan` and
        :meth:`plan_many`: the plan cache, else :meth:`_map_path` under
        *budget* (exhausting it raises, and is never cached); ``None``
        when the target is unreachable."""
        key = (source, target)
        if key in self._plan_cache:
            return self._plan_cache[key]
        path, exhausted, _ = self._map_path(
            self.universe.mask_of(source), self.universe.mask_of(target), budget
        )
        if exhausted:
            raise NoSafePathError(
                f"no safe adaptation path from {source.label()} to "
                f"{target.label()} within {budget} expansions"
            )
        plan = self._plan_cache[key] = None if path is None else self._plan_from_mask_path(
            source, target, path.nodes, path.labels, path.cost
        )
        return plan

    def _map_path(
        self, source_mask: int, target_mask: int, budget: Optional[int]
    ) -> Tuple[Optional["MapWalk | Path"], bool, int]:
        """The MAP between two safe masks, as ``(path, exhausted,
        expansions_spent)`` like :meth:`_banned_shortest`.

        Every route that asks for a MAP with nothing banned ends here
        (:meth:`plan`, :meth:`lazy_plan`, :meth:`plan_many`, the MAP
        check of :meth:`plan_avoiding`, and the first path of a pair's
        Yen state).  When every collaborative set the pair changes fits
        :attr:`max_components`, the plan is read off the per-set tables
        (:meth:`SetDistanceHeuristic.walk
        <repro.core.collaborative.SetDistanceHeuristic.walk>`): no
        expansion, and an unreachable target is known from the tables
        alone.  Otherwise :meth:`_banned_shortest` searches
        :attr:`lazy_sag` under *budget*.
        """
        exact, walk = self._set_tables().walk(source_mask, target_mask)
        if exact:
            return walk, False, 0
        return self._banned_shortest(
            self.lazy_sag.successors, source_mask, target_mask,
            self._lazy_heuristic(source_mask, target_mask), budget,
        )

    def peek_plan(
        self, source: Configuration, target: Configuration
    ) -> Tuple[bool, Optional[AdaptationPlan]]:
        """Warm-cache read: ``(hit, plan)`` without planning or validation.

        A single dict lookup — safe to call without holding any lock (the
        plan cache only ever grows between :meth:`reset_caches` calls).
        ``(True, None)`` means the pair was planned before and found
        unreachable; ``(False, None)`` means it was never planned.
        """
        key = (source, target)
        if key in self._plan_cache:
            return True, self._plan_cache[key]
        return False, None

    def plan_many(
        self, pairs: Sequence[Tuple[Configuration, Configuration]]
    ) -> List[Optional[AdaptationPlan]]:
        """Batched MAP solving: one result per request, input order kept.

        Each pair is answered as :meth:`plan` answers it, target by
        target, so the pairs of one target read the same per-set tables
        (kept per ``(set, target projection)``).  Unlike :meth:`plan`,
        an unreachable pair yields ``None`` in its slot rather than
        raising — a batch should not die on one bad request.  Endpoint
        safety is still enforced, before any pair is planned (unsafe
        endpoints raise, as they indicate a malformed request rather
        than a mere absence of a path).

        Every result is written through to the per-pair plan cache, so a
        later :meth:`plan`/:meth:`peek_plan` on any pair in the batch is a
        dict hit.
        """
        by_target: Dict[Configuration, List[int]] = {}
        for i, (source, target) in enumerate(pairs):
            self._validate_endpoints(source, target)
            by_target.setdefault(target, []).append(i)
        results: List[Optional[AdaptationPlan]] = [None] * len(pairs)
        for target, indices in by_target.items():
            for i in indices:
                results[i] = self._lookup(pairs[i][0], target, None)
        return results

    def plan_k(
        self, source: Configuration, target: Configuration, k: int
    ) -> List[AdaptationPlan]:
        """Up to *k* minimum-cost plans in non-decreasing cost order (Yen).

        Plan 2 is the paper's "second minimum adaptation path"; the §4.4
        cascade re-routes with :meth:`plan_avoiding` instead, which finds
        the cheapest path around the failed steps however far down this
        list it sits.  :meth:`iter_paths` with no
        budget, read to the end and decoded: every spur searches the built SAG
        (:attr:`SafeAdaptationGraph.successors
        <repro.core.sag.SafeAdaptationGraph.successors>`), or, when the
        planner is :attr:`oversized`, the implicit one.
        """
        self._validate_endpoints(source, target)
        return self._stream(source, target, k, self.oversized, None).plans()

    def plan_avoiding(
        self,
        source: Configuration,
        target: Configuration,
        failed: Iterable[Tuple[Configuration, str]],
    ) -> Optional[AdaptationPlan]:
        """The cheapest plan with no step in *failed* (§4.4 alternates).

        *failed* holds ``(configuration, action id)`` edges the §4.4
        cascade saw fail; the answer is ``None`` when every safe path
        from *source* to *target* takes one of them.  The MAP is
        returned unchanged when it avoids them all (a plan-cache hit
        when warm).  Otherwise one :meth:`_banned_shortest` searches the
        arcs :meth:`plan` reads — the built SAG's when it is built, the
        implicit SAG's otherwise — with each failed arc dropped from the
        arc list of the mask it leaves: an exact answer, with
        Dijkstra's tie-break over that view.  Such answers, ``None``
        included, are kept per ``(source, target, failed)`` until
        :meth:`reset_caches`.

        Raises:
            UnsafeConfigurationError: source or target violates invariants.
        """
        failed = frozenset(failed)
        try:
            best = self.plan(source, target)
        except NoSafePathError:
            return None
        if all((step.source, step.action.action_id) not in failed for step in best.steps):
            return best
        key = (source, target, failed)
        if key in self._avoiding:
            return self._avoiding[key]
        mask_of = self.universe.mask_of
        banned: Dict[int, Set[str]] = {}
        for configuration, action_id in failed:
            banned.setdefault(mask_of(configuration), set()).add(action_id)
        successors = (
            self._sag.successors if self._sag is not None else self.lazy_sag.successors
        )
        source_mask, target_mask = mask_of(source), mask_of(target)
        path, _, _ = self._banned_shortest(
            _without_arcs(successors, banned), source_mask, target_mask,
            self._lazy_heuristic(source_mask, target_mask), None,
        )
        plan = self._avoiding[key] = None if path is None else self._plan_from_mask_path(
            source, target, path.nodes, path.labels, path.cost
        )
        return plan

    def iter_paths(
        self,
        source: Configuration,
        target: Configuration,
        k: int,
        max_expansions: Optional[int] = None,
    ) -> "PathStream":
        """The *k* best paths of :meth:`plan_k`, found as they are read.

        The one path source of :func:`repro.ltl.paths.verify_paths`: a
        caller that stops reading after path *i* pays for *i* paths, not
        *k*, and decodes (:meth:`PathStream.plan`) only the paths it
        reports.  Routes as :meth:`plan_k` does; when the planner is
        :attr:`oversized`, *max_expansions* bounds the new expansions of
        this query (paths an earlier query on the pair found cost none),
        and the stream's :attr:`~PathStream.exhausted` tells a budget cut
        from the end of the path set.  At or below the cap the budget
        does not apply.
        """
        self._validate_endpoints(source, target)
        oversized = self.oversized
        return self._stream(
            source, target, k, oversized, max_expansions if oversized else None
        )

    def _stream(
        self,
        source: Configuration,
        target: Configuration,
        k: int,
        implicit: bool,
        budget: Optional[int],
    ) -> "PathStream":
        """A :class:`PathStream` over the pair's Yen state (made on first
        use); *implicit* picks the implicit SAG's arcs over the built
        SAG's."""
        key = (source, target)
        entry = self._k_best.get(key)
        if entry is None:
            entry = self._k_best[key] = (
                YenState(self.universe.mask_of(source), self.universe.mask_of(target)),
                [],
            )
        return PathStream(self, source, target, k, entry, implicit, budget)

    def _plan_from_mask_path(
        self,
        source: Configuration,
        target: Configuration,
        nodes: Tuple[int, ...],
        labels: Tuple[str, ...],
        cost: float,
    ) -> AdaptationPlan:
        """Decode a mask-level path (its *nodes*, arc *labels* and *cost*)
        back into an AdaptationPlan.

        The one decoder behind every planning entry point: eager CSR
        trees and Yen paths, and the lazy frontier searches.
        """
        configs = [source, *map(self.universe.from_mask, nodes[1:-1])]
        if len(nodes) > 1:
            configs.append(target)
        steps = tuple(
            PlanStep(index, self.actions.get(label), configs[index], configs[index + 1])
            for index, label in enumerate(labels)
        )
        return AdaptationPlan(source, target, steps, cost)

    def lazy_plan(
        self,
        source: Configuration,
        target: Configuration,
        max_expansions: Optional[int] = None,
    ) -> AdaptationPlan:
        """The MAP with no safe space and no SAG, for any universe (§7).

        :meth:`plan` with an expansion budget: the same routing and the
        same plan.  When every collaborative set the pair changes fits
        :attr:`max_components` (as on ``fleet30``), the plan is read off
        the per-set tables and expands nothing, so *max_expansions* does
        not apply (``fleet30`` ``baseline→canary`` is answered under a
        budget of 1).  It bounds only the search a set above the cap
        needs: both phases of :meth:`_banned_shortest` over
        :attr:`lazy_sag` together, which reads the compiled actions per
        mask when a factor with actions is above the cap.

        Results are written through to the shared plan cache, so a later
        :meth:`plan` or :meth:`peek_plan` on the pair is a warm dict hit
        (and vice versa).

        Raises:
            UnsafeConfigurationError: source or target violates invariants.
            NoSafePathError: target unreachable through safe
                configurations, or *max_expansions* exhausted (budget
                exhaustion is never cached as unreachable).
        """
        self._validate_endpoints(source, target)
        return self._answer(source, target, max_expansions)

    def _set_tables(self) -> SetDistanceHeuristic:
        """The per-set sub-SAGs and distance tables (made on first use,
        capped at :attr:`max_components`, dropped by :meth:`reset_caches`)."""
        if self._set_distances is None:
            self._set_distances = SetDistanceHeuristic(
                self.space, self.actions, self.max_components, self.SET_TABLE_CACHE_SIZE
            )
        return self._set_distances

    def _lazy_heuristic(self, source_mask: int, target_mask: int):
        """The per-collaborative-set distance heuristic toward *target_mask*
        (:meth:`SetDistanceHeuristic.for_query
        <repro.core.collaborative.SetDistanceHeuristic.for_query>`), under
        which every search of the planner runs, over the built SAG or the
        implicit one alike."""
        return self._set_tables().for_query(source_mask, target_mask)

    def _banned_shortest(
        self,
        successors,
        source_mask: int,
        target_mask: int,
        heuristic,
        budget: Optional[int],
        *,
        banned_nodes: AbstractSet[int] = frozenset(),
        banned_labels: AbstractSet[str] = frozenset(),
    ) -> Tuple[Optional[Path], bool, int]:
        """One exact banned-set shortest-path query.

        The one search behind :meth:`plan_avoiding` around failed steps,
        every Yen spur of :meth:`plan_k` and :meth:`lazy_plan_k`, and a
        MAP that changes a set above the cap (:meth:`_map_path`), in
        two phases over *successors* — the built SAG's or the
        :class:`~repro.core.sag.LazySAG`'s arcs.  A spur's bans are
        applied at the source: *banned_nodes* (masks) seed both phases'
        closed sets, and the arcs labelled *banned_labels* (action ids)
        are dropped from the source's own arc list, the only one a Yen
        spur bans arcs from; every other mask's arcs are read unfiltered:

        1. :func:`~repro.graphs.astar.astar_cost` — a deep-tie A* probe
           under the consistent *heuristic* — establishes the optimal
           cost ``D`` (or proves the target unreachable);
        2. :func:`~repro.graphs.astar.corridor_search` replays
           Dijkstra's ``(cost, hops, counter)`` relaxation sequence over
           the same view, confined to the corridor ``g + h <= D`` — same
           path, cost and tie-break as an unpruned banned-set Dijkstra.

        Both phases share one *budget* of node expansions.  Returns
        ``(path, exhausted, expansions_spent)`` — ``path`` is ``None``
        when the target is unreachable *or* the budget ran out, with
        ``exhausted`` telling the two apart.
        """
        if source_mask == target_mask:
            return Path(nodes=(source_mask,), edges=(), cost=0.0), False, 0
        if banned_labels:
            successors = _without_arcs(successors, {source_mask: banned_labels})
        stats: Dict[str, object] = {}
        cost = astar_cost(
            source_mask, target_mask, successors, heuristic, budget,
            banned=banned_nodes, stats=stats,
        )
        spent = int(stats["expansions"])
        if cost is None:
            return None, bool(stats["exhausted"]), spent
        remaining = None if budget is None else max(0, budget - spent)
        stats = {}
        exact = corridor_search(
            source_mask, target_mask, successors, heuristic, cost,
            remaining, banned=banned_nodes, stats=stats,
        )
        spent += int(stats["expansions"])
        if exact is None:  # only reachable with an expansion budget set
            return None, True, spent
        return exact, False, spent

    def lazy_plan_k(
        self,
        source: Configuration,
        target: Configuration,
        k: int,
        max_expansions: Optional[int] = None,
    ) -> Tuple[List[AdaptationPlan], bool]:
        """Up to *k* minimum-cost plans by frontier search — no SAG (§7).

        :meth:`plan_k` read off the :class:`~repro.core.sag.LazySAG`
        successor generator, on either side of the cap: the same Yen
        state and spur search, so the returned plans are **identical
        (paths, costs, and order) to** :meth:`plan_k` wherever both are
        defined, without ever enumerating the safe space.
        *max_expansions* bounds this query's new expansions.

        Returns ``(plans, complete)``: *complete* is ``False`` when the
        budget ran out before the enumeration could finish — the plans
        returned so far are still the true best ones, there may just be
        more.
        """
        self._validate_endpoints(source, target)
        stream = self._stream(source, target, k, True, max_expansions)
        plans = stream.plans()
        return plans, not stream.exhausted


class PathStream:
    """The *k* best paths of one pair, each found when it is read.

    Iterating yields up to *k* mask-level paths in Yen order, each a
    ``(cost, nodes, labels)`` tuple (configuration masks, source first,
    and action ids); :meth:`plan` decodes one.  Paths any earlier query
    on the pair found are read off its
    :class:`~repro.graphs.yen.YenState` and cost no expansion; the rest
    extend that state one Yen round per path.  The spurs of one stream
    share one heuristic, one budget and, on the implicit SAG, one memo
    of the masks' arcs, dropped with the stream.  :attr:`exhausted`
    turns ``True`` when the budget ran out before the next path; the
    paths yielded are still the true best ones.  On the implicit SAG
    the optimal plan (or a proven absence of any) is written through to
    the planner's plan cache, as :meth:`AdaptationPlanner.lazy_plan`
    writes its own.
    """

    def __init__(
        self,
        planner: AdaptationPlanner,
        source: Configuration,
        target: Configuration,
        k: int,
        entry: Tuple[YenState, List[AdaptationPlan]],
        implicit: bool,
        budget: Optional[int],
    ):
        self._planner = planner
        self._source = source
        self._target = target
        self._k = k
        #: the pair's Yen state, and the plans :meth:`plans` decoded from
        #: its found paths
        self._yen, self._decoded = entry
        self._implicit = implicit
        self._remaining = budget
        self._index = 0
        self._successors: Optional[Successors] = None
        self._heuristic: Optional[Callable[[int], float]] = None
        #: the budget ran out before the next path could be found
        self.exhausted = False

    def __iter__(self) -> Iterator[Tuple[float, Tuple[int, ...], Tuple[str, ...]]]:
        return self

    def __next__(self) -> Tuple[float, Tuple[int, ...], Tuple[str, ...]]:
        index = self._index
        if index >= self._k or self.exhausted:
            raise StopIteration
        yen = self._yen
        while len(yen.found) <= index:
            if yen.done:
                if index == 0 and self._implicit:
                    self._write_through(None)
                raise StopIteration
            if not yen.extend(self._spur_query, self._weight):
                self.exhausted = True
                raise StopIteration
        self._index = index + 1
        path = yen.found[index]
        if index == 0 and self._implicit:
            self._write_through(path)
        return path

    def plans(self) -> List[AdaptationPlan]:
        """The rest of the stream, decoded — each path once per pair: the
        list entry points (:meth:`AdaptationPlanner.plan_k`,
        :meth:`AdaptationPlanner.lazy_plan_k`) share the pair's decoded
        prefix."""
        decoded = self._decoded
        plans = []
        for path in self:
            index = self._index - 1
            if index == len(decoded):
                decoded.append(self.plan(path))
            plans.append(decoded[index])
        return plans

    def plan(self, path: Tuple[float, Tuple[int, ...], Tuple[str, ...]]) -> AdaptationPlan:
        """Decode one of this stream's paths into an :class:`AdaptationPlan`."""
        cost, nodes, labels = path
        return self._planner._plan_from_mask_path(
            self._source, self._target, nodes, labels, cost
        )

    def _weight(self, label: str) -> float:
        """An arc's weight: its action's cost, as the SAG's arcs carry it."""
        return self._planner.actions.get(label).cost

    def _write_through(self, path) -> None:
        """Write the pair's optimal plan (``None``: no path) through to the
        plan cache unless it holds the pair."""
        cache, key = self._planner._plan_cache, (self._source, self._target)
        if key not in cache:
            cache[key] = None if path is None else self.plan(path)

    def _spur_query(self, spur_mask, banned_nodes, banned_labels):
        """One Yen query, charged to this stream's budget: the first,
        which bans nothing, is the pair's MAP
        (:meth:`AdaptationPlanner._map_path`); every spur is
        :meth:`AdaptationPlanner._banned_shortest` over this stream's
        arcs under the spur's bans."""
        planner = self._planner
        target_mask = self._yen.target
        if not banned_nodes and not banned_labels:
            path, exhausted, spent = planner._map_path(
                spur_mask, target_mask, self._remaining
            )
        else:
            if self._successors is None:
                self._successors = (
                    _memoized(planner.lazy_sag.successors) if self._implicit
                    else planner.sag.successors
                )
                self._heuristic = planner._lazy_heuristic(self._yen.source, target_mask)
            path, exhausted, spent = planner._banned_shortest(
                self._successors, spur_mask, target_mask, self._heuristic,
                self._remaining, banned_nodes=banned_nodes, banned_labels=banned_labels,
            )
        if self._remaining is not None:
            self._remaining = max(0, self._remaining - spent)
        return path, exhausted


def _memoized(successors: Successors) -> Successors:
    """*successors* (a lazy one: its arcs come as lists) with each mask's
    arcs kept — the memo the spurs of one :class:`PathStream` share,
    dropped with it."""
    memo: Dict[int, Arcs] = {}

    def cached(mask: int) -> Arcs:
        arcs = memo.get(mask)
        if arcs is None:
            arcs = memo[mask] = successors(mask)
        return arcs

    return cached


def _without_arcs(
    successors: Successors, banned: Mapping[int, AbstractSet[str]]
) -> Successors:
    """*successors* with the arcs labelled ``banned[mask]`` dropped from
    each banned mask's list, in arc order; every other mask's arcs are
    passed through.  A filtered list is made on its first read, so a
    search cut by its budget before it expands a banned mask reads none
    of its arcs."""
    filtered: Dict[int, Arcs] = {}

    def view(mask: int) -> Arcs:
        labels = banned.get(mask)
        if labels is None:
            return successors(mask)
        arcs = filtered.get(mask)
        if arcs is None:
            arcs = filtered[mask] = [
                arc for arc in successors(mask) if arc[0] not in labels
            ]
        return arcs

    return view
