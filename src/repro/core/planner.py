"""Detection & setup phase: Minimum Adaptation Path planning (paper §4.2).

The :class:`AdaptationPlanner` performs the three setup steps on demand:

1. construct the safe-configuration set,
2. construct the Safe Adaptation Graph,
3. run Dijkstra for the Minimum Adaptation Path (MAP) — plus the extras
   the rest of the paper needs: k-best alternates (failure handling §4.4),
   lazy A* partial exploration and collaborative-set decomposition
   (scalability, §7).

A lone cold MAP query skips steps 1 and 2: it searches the SAG read off
the collaborative sets' sub-SAGs, with Dijkstra's answer (§7: "only a
small fraction of the graph is actually related to the given
adaptation").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.collaborative import (
    SetDistanceHeuristic,
    collaborative_sets,
    project_invariants,
)
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.sag import Arcs, LazySAG, SafeAdaptationGraph
from repro.core.space import SafeConfigurationSpace
from repro.errors import NoSafePathError
from repro.graphs.astar import astar_cost, corridor_search
from repro.graphs.csr import ShortestPathTree
from repro.graphs.digraph import Path
from repro.graphs.yen import extend_k_shortest


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

    The planner is **incremental**: the safe space, the SAG, and every
    computed plan are cached, and each is built only when a query needs
    it (a lone :meth:`plan` needs neither the space nor the SAG).  The
    §4.4 failure cascade — retry the step, ask for the next minimum
    adaptation path, roll back to the source — re-enters the planner
    with shifting ``(source, target)`` pairs; each answer is derived
    once, then served from the plan cache on repetition.
    """

    #: default bound on cached shortest-path trees (one per distinct source)
    SPT_CACHE_SIZE = 64

    def __init__(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        spt_cache_size: int = SPT_CACHE_SIZE,
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
        self.spt_cache_size = max(1, spt_cache_size)
        self._sag: Optional[SafeAdaptationGraph] = None
        self._lazy_sag: Optional[LazySAG] = None
        self._set_distances: Optional[SetDistanceHeuristic] = None
        self._plan_cache: Dict[
            Tuple[Configuration, Configuration], Optional[AdaptationPlan]
        ] = {}
        self._plan_k_cache: Dict[
            Tuple[Configuration, Configuration, int], Tuple[AdaptationPlan, ...]
        ] = {}
        # LRU of shortest-path trees keyed by source configuration.  One
        # tree amortizes every (source, *) query — batched plan_many
        # groups, and the §4.4 replan cascade whose source shifts along
        # the failing path while targets repeat.
        self._spt_cache: "OrderedDict[Configuration, ShortestPathTree]" = OrderedDict()

    def reset_caches(self) -> None:
        """Drop every derived cache (after mutating the action library).

        Clears the SAG (and with it the compiled CSR view), the lazy
        successor generator, the k-best and lazy searches' per-set
        distance tables,
        the per-pair plan caches, and the shortest-path-tree LRU — all of
        them are derived from the action library, so any of them could
        otherwise serve a path using an action that no longer exists.
        """
        self._sag = None
        self._lazy_sag = None
        self._set_distances = None
        self._plan_cache.clear()
        self._plan_k_cache.clear()
        self._spt_cache.clear()

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
    def _spt_for(self, source: Configuration) -> ShortestPathTree:
        """The shortest-path tree rooted at *source* (LRU-cached)."""
        cache = self._spt_cache
        tree = cache.get(source)
        if tree is not None:
            cache.move_to_end(source)
            return tree
        tree = self.sag.csr.shortest_path_tree(self.universe.mask_of(source))
        cache[source] = tree
        while len(cache) > self.spt_cache_size:
            cache.popitem(last=False)
        return tree

    def _plan_uncached(
        self,
        source: Configuration,
        target: Configuration,
        tree: ShortestPathTree,
    ) -> Optional[AdaptationPlan]:
        path = tree.path_to(self.universe.mask_of(target))
        return None if path is None else self._plan_from_mask_path(source, target, path)

    def plan(self, source: Configuration, target: Configuration) -> AdaptationPlan:
        """The Minimum Adaptation Path (§4.2 step 3).

        A pair is answered by the first of these that applies
        (:meth:`_answer`):

        1. the per-pair plan cache — a cached ``None`` records that the
           target is unreachable (distinct from an absent entry);
        2. a shortest-path tree for *source*: a cached one
           (:meth:`plan_many` leaves one per source; a target it already
           settled costs O(path length), others resume it), or a new
           one when the SAG is already built (by :meth:`plan_many`,
           :meth:`plan_k` or a read of :attr:`sag`) — on a built SAG a
           tree settles the §4.4 cascade's shifting sources faster than
           the corridor search does;
        3. the exact two-phase search of :meth:`_banned_shortest` over the
           implicit SAG (:attr:`lazy_sag`), which reads each mask's arcs
           off the collaborative factors: a lone cold query builds
           neither the SAG nor a tree, and the plan is **identical —
           path, cost and tie-break — to Dijkstra on the built SAG**.

        Raises:
            UnsafeConfigurationError: source or target violates invariants.
            NoSafePathError: target unreachable through safe configurations.
        """
        self._validate_endpoints(source, target)
        return self._answer(source, target, None)

    def _answer(
        self, source: Configuration, target: Configuration, budget: Optional[int]
    ) -> AdaptationPlan:
        """The routing shared by :meth:`plan` and :meth:`lazy_plan`: plan
        cache, then a tree for *source* (cached, or grown on a SAG that is
        already built), then the implicit-SAG search under *budget*
        (exhausting it raises, and is never cached)."""
        key = (source, target)
        if key in self._plan_cache:
            plan = self._plan_cache[key]
        elif self._sag is not None:  # every cached tree grows on it
            plan = self._plan_uncached(source, target, self._spt_for(source))
            self._plan_cache[key] = plan
        else:
            source_mask = self.universe.mask_of(source)
            target_mask = self.universe.mask_of(target)
            path, exhausted, _ = self._banned_shortest(
                self.lazy_sag.successors, source_mask, target_mask,
                self._lazy_heuristic(source_mask, target_mask), budget,
            )
            if exhausted:
                raise NoSafePathError(
                    f"no safe adaptation path from {source.label()} to "
                    f"{target.label()} within {budget} expansions"
                )
            plan = None if path is None else self._plan_from_mask_path(
                source, target, path
            )
            self._plan_cache[key] = plan
        if plan is None:
            raise NoSafePathError(
                f"no safe adaptation path from {source.label()} to {target.label()}"
            )
        return plan

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

        Requests are grouped by source and answered off one shortest-path
        tree per distinct source, so a batch of R requests over S distinct
        sources costs at most S Dijkstra runs instead of R.  Unlike :meth:`plan`,
        an unreachable pair yields ``None`` in its slot rather than
        raising — a batch should not die on one bad request.  Endpoint
        safety is still enforced (unsafe endpoints raise, as they indicate
        a malformed request rather than a mere absence of a path).

        Every result is written through to the per-pair plan cache, so a
        later :meth:`plan`/:meth:`peek_plan` on any pair in the batch is a
        dict hit.
        """
        results: List[Optional[AdaptationPlan]] = [None] * len(pairs)
        by_source: Dict[Configuration, List[int]] = {}
        for i, (source, target) in enumerate(pairs):
            self._validate_endpoints(source, target)
            key = (source, target)
            if key in self._plan_cache:
                results[i] = self._plan_cache[key]
            else:
                by_source.setdefault(source, []).append(i)
        for source, indices in by_source.items():
            tree = self._spt_for(source)
            for i in indices:
                target = pairs[i][1]
                key = (source, target)
                if key in self._plan_cache:  # duplicate pair earlier in batch
                    results[i] = self._plan_cache[key]
                    continue
                plan = self._plan_uncached(source, target, tree)
                self._plan_cache[key] = plan
                results[i] = plan
        return results

    def plan_k(
        self, source: Configuration, target: Configuration, k: int
    ) -> List[AdaptationPlan]:
        """Up to *k* minimum-cost plans in non-decreasing cost order (Yen).

        Plan 2 is the paper's "second minimum adaptation path" used when a
        step fails and the manager re-routes.  The same Yen loop and
        spur search as :meth:`lazy_plan_k`, with no budget; every spur
        searches the built SAG (:attr:`SafeAdaptationGraph.successors
        <repro.core.sag.SafeAdaptationGraph.successors>`), or, when the
        planner is :attr:`oversized`, the implicit one behind a memo
        that lives for this one query.  Cached per ``(source, target,
        k)`` for the same reason as :meth:`plan`.
        """
        self._validate_endpoints(source, target)
        key = (source, target, k)
        cached = self._plan_k_cache.get(key)
        if cached is None:
            successors: Successors = (
                _memoized(self.lazy_sag.successors) if self.oversized
                else self.sag.successors
            )
            paths, _ = self._k_shortest(successors, source, target, k, None)
            cached = tuple(
                self._plan_from_mask_path(source, target, path) for path in paths
            )
            self._plan_k_cache[key] = cached
        return list(cached)

    def _plan_from_mask_path(
        self, source: Configuration, target: Configuration, path: Path
    ) -> AdaptationPlan:
        """Decode a mask-level search result back into an AdaptationPlan.

        The one decoder behind every planning entry point: eager CSR
        trees and Yen paths, and the lazy frontier searches.
        """
        configs = [source, *map(self.universe.from_mask, path.nodes[1:-1])]
        if len(path.nodes) > 1:
            configs.append(target)
        steps = tuple(
            PlanStep(index, self.actions.get(edge.label), configs[index], configs[index + 1])
            for index, edge in enumerate(path.edges)
        )
        return AdaptationPlan(source, target, steps, path.cost)

    def lazy_plan(
        self,
        source: Configuration,
        target: Configuration,
        max_expansions: Optional[int] = None,
    ) -> AdaptationPlan:
        """The exact MAP by frontier search — no safe space, no SAG (§7).

        :meth:`plan` with an expansion budget: the same routing (plan
        cache, cached tree, then :meth:`_banned_shortest` over
        :attr:`lazy_sag`), for universes too large to enumerate.  The
        implicit SAG reads each mask's arcs off the collaborative factors
        when every factor with actions fits :attr:`max_components` (as on
        ``fleet30``), and tests the compiled actions per mask otherwise;
        either way the plan is **identical — path, cost, and tie-break —
        to the eager CSR path** wherever both are defined, and the safe
        space is never enumerated.  *max_expansions* bounds both phases
        of the search together.

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

    def _lazy_heuristic(self, source_mask: int, target_mask: int):
        """The per-collaborative-set distance heuristic toward *target_mask*
        (:class:`~repro.core.collaborative.SetDistanceHeuristic`; its
        tables are built on first use and live until :meth:`reset_caches`).
        Every search of the planner but :meth:`plan` runs under it, over
        the built SAG or the implicit one alike."""
        if self._set_distances is None:
            self._set_distances = SetDistanceHeuristic(
                self.space, self.actions, LAZY_PLAN_COMPONENTS, self.spt_cache_size
            )
        return self._set_distances.for_query(source_mask, target_mask)

    def _banned_shortest(
        self,
        successors,
        source_mask: int,
        target_mask: int,
        heuristic,
        budget: Optional[int],
    ) -> Tuple[Optional[Path], bool, int]:
        """One exact banned-set shortest-path query.

        The one search behind :meth:`lazy_plan` and every Yen spur of
        :meth:`plan_k` and :meth:`lazy_plan_k`, in two phases over
        *successors* — the built SAG's or the
        :class:`~repro.core.sag.LazySAG`'s arcs, banned ones filtered
        out for a spur:

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
        stats: Dict[str, object] = {}
        cost = astar_cost(
            source_mask, target_mask, successors, heuristic, budget, stats=stats
        )
        spent = int(stats["expansions"])
        if cost is None:
            return None, bool(stats["exhausted"]), spent
        remaining = None if budget is None else max(0, budget - spent)
        stats = {}
        exact = corridor_search(
            source_mask, target_mask, successors, heuristic, cost,
            remaining, stats=stats,
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

        Yen's loopless enumeration run entirely over the
        :class:`~repro.core.sag.LazySAG` successor generator: the loop
        and the spur search are :meth:`plan_k`'s own
        (:func:`repro.graphs.yen.extend_k_shortest` over
        :meth:`_banned_shortest`), so the returned plans are **identical
        (paths, costs, and order) to** :meth:`plan_k` wherever both are
        defined, without ever enumerating the safe space.  One heuristic,
        one memo of the masks' arcs and one *max_expansions* budget
        serve every spur; the memo is dropped when the query returns.

        Returns ``(plans, complete)``: *complete* is ``False`` when the
        shared *max_expansions* budget ran out before the enumeration
        could finish — the plans returned so far are still the true
        best ones, there may just be more.  Used by
        :func:`repro.ltl.paths.verify_paths` for budget-bounded
        tri-state verdicts above the enumeration cap.
        """
        self._validate_endpoints(source, target)
        if k <= 0:
            return [], True
        paths, complete = self._k_shortest(
            _memoized(self.lazy_sag.successors), source, target, k, max_expansions
        )
        if not paths:
            if complete:
                self._plan_cache.setdefault((source, target), None)
            return [], complete
        plans = [
            self._plan_from_mask_path(source, target, path) for path in paths
        ]
        # write the optimal plan through to the shared pair cache (it is
        # exact regardless of whether the enumeration finished)
        self._plan_cache.setdefault((source, target), plans[0])
        return plans, complete

    def _k_shortest(
        self,
        successors: Successors,
        source: Configuration,
        target: Configuration,
        k: int,
        budget: Optional[int],
    ) -> Tuple[List[Path], bool]:
        """Yen over the arcs of *successors*, each spur's bans filtered out.

        Returns ``(paths, complete)`` as :meth:`lazy_plan_k` does; the
        paths are mask-level.  *budget* bounds every spur together.
        """
        if k <= 0:
            return [], True
        source_mask = self.universe.mask_of(source)
        target_mask = self.universe.mask_of(target)
        heuristic = self._lazy_heuristic(source_mask, target_mask)
        remaining = budget

        def spur_query(spur_mask, banned_nodes, banned_arcs):
            nonlocal remaining
            path, exhausted, spent = self._banned_shortest(
                _filtered(successors, banned_nodes, banned_arcs),
                spur_mask, target_mask, heuristic, remaining,
            )
            if remaining is not None:
                remaining = max(0, remaining - spent)
            return path, exhausted

        first, exhausted = spur_query(source_mask, frozenset(), frozenset())
        if first is None:
            return [], not exhausted
        return extend_k_shortest(first, target_mask, k, spur_query)

    def plan_collaborative(
        self, source: Configuration, target: Configuration
    ) -> AdaptationPlan:
        """Plan per collaborative set and concatenate (§7 decomposition).

        Each collaborative set is planned in its own sub-universe with the
        invariants and actions that fall inside it, by :meth:`lazy_plan`; the
        per-set plans are then replayed in order against the global
        configuration.  Exact when the decomposition is valid (invariants
        and actions never span sets — guaranteed by construction).
        """
        self._validate_endpoints(source, target)
        groups = collaborative_sets(
            self.universe, self.invariants, self.actions,
            conflicts=self.conflicts,
        )
        current = source
        steps: List[PlanStep] = []
        total = 0.0
        for group in groups:
            group_source = Configuration(source.members & group)
            group_target = Configuration(target.members & group)
            if group_source == group_target:
                continue
            sub_universe = ComponentUniverse(
                [self.universe.component(name)
                 for name in self.universe.order if name in group]
            )
            sub_planner = AdaptationPlanner(
                sub_universe,
                project_invariants(self.invariants, group),
                self.actions.restricted_to(group),
            )
            sub_plan = sub_planner.lazy_plan(group_source, group_target)
            for step in sub_plan.steps:
                next_config = step.action.apply(current)
                steps.append(
                    PlanStep(
                        index=len(steps),
                        action=step.action,
                        source=current,
                        target=next_config,
                    )
                )
                current = next_config
                total += step.action.cost
        if current != target:
            raise NoSafePathError(
                "collaborative planning could not reach the target "
                f"(stopped at {current.label()})"
            )
        return AdaptationPlan(source=source, target=target, steps=tuple(steps), total_cost=total)


def _memoized(successors: Successors) -> Successors:
    """*successors* (a lazy one: its arcs come as lists) with each mask's
    arcs kept — the memo one k-best query shares across its spurs,
    dropped with it."""
    memo: Dict[int, Arcs] = {}

    def cached(mask: int) -> Arcs:
        arcs = memo.get(mask)
        if arcs is None:
            arcs = memo[mask] = successors(mask)
        return arcs

    return cached


def _filtered(successors: Successors, banned_nodes, banned_arcs) -> Successors:
    """*successors* without arcs into *banned_nodes* (masks) or in
    *banned_arcs* (``(source_mask, action_id)`` pairs: an action id
    identifies at most one arc out of a mask) — the bans a Yen spur
    passes.  Filtering keeps the arc order."""
    if not banned_nodes and not banned_arcs:
        return successors
    banned_labels: Dict[int, Set[str]] = {}
    for mask, label in banned_arcs:
        banned_labels.setdefault(mask, set()).add(label)

    def view(mask: int) -> Arcs:
        labels = banned_labels.get(mask)
        if labels is None:
            return [arc for arc in successors(mask) if arc[2] not in banned_nodes]
        return [
            arc for arc in successors(mask)
            if arc[2] not in banned_nodes and arc[0] not in labels
        ]

    return view
