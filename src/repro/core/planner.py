"""Detection & setup phase: Minimum Adaptation Path planning (paper §4.2).

The :class:`AdaptationPlanner` performs the three setup steps on demand:

1. construct the safe-configuration set,
2. construct the Safe Adaptation Graph,
3. run Dijkstra for the Minimum Adaptation Path (MAP) — plus the extras
   the rest of the paper needs: k-best alternates (failure handling §4.4),
   lazy A* partial exploration and collaborative-set decomposition
   (scalability, §7).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.collaborative import collaborative_sets, project_invariants
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.sag import LazySAG, SafeAdaptationGraph
from repro.core.space import SafeConfigurationSpace
from repro.errors import NoSafePathError
from repro.graphs import lazy_astar
from repro.graphs.csr import ShortestPathTree, k_shortest_paths_csr
from repro.graphs.dijkstra import Path
from repro.graphs.yen import extend_k_shortest


#: above this many components the eager 2^n enumeration is off the table
#: by default — the service and CLI route requests to :meth:`lazy_plan`
#: (the lint pipeline applies the same cap to its safe-space checks)
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
    computed plan are cached.  The §4.4 failure cascade — retry the step,
    ask for the next minimum adaptation path, roll back to the source —
    re-enters the planner with shifting ``(source, target)`` pairs; each
    answer is derived once from the shared SAG and the mask-level safety
    memo, then served from the plan cache on repetition.
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
        self.spt_cache_size = max(1, spt_cache_size)
        self._sag: Optional[SafeAdaptationGraph] = None
        self._lazy_sag: Optional[LazySAG] = None
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
        successor generator, the per-pair plan caches, and the
        shortest-path-tree LRU — all of them are derived from the action
        library, so any of them could otherwise serve a path using an
        action that no longer exists.
        """
        self._sag = None
        self._lazy_sag = None
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
        """The implicit-SAG successor generator (built on first use)."""
        if self._lazy_sag is None:
            self._lazy_sag = LazySAG(self.space, self.actions)
        return self._lazy_sag

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
        tree: Optional[ShortestPathTree] = None,
    ) -> Optional[AdaptationPlan]:
        if tree is None:
            tree = self._spt_for(source)
        path = tree.path_to(self.universe.mask_of(target))
        return None if path is None else self._plan_from_mask_path(source, target, path)

    def plan(self, source: Configuration, target: Configuration) -> AdaptationPlan:
        """The Minimum Adaptation Path (Dijkstra over the compiled SAG).

        The search runs on the CSR view's resumable shortest-path tree
        for *source*, settled only as far as *target*; every further
        query sharing that source — other targets in a batch, the §4.4
        cascade re-entering while retrying/rolling back — resumes the
        same search, and a target it already settled costs
        O(path length).  Results are additionally
        cached per ``(source, target)``; a cached ``None`` records that
        the target is unreachable (distinct from an absent entry).

        Raises:
            UnsafeConfigurationError: source or target violates invariants.
            NoSafePathError: target unreachable through safe configurations.
        """
        self._validate_endpoints(source, target)
        key = (source, target)
        if key in self._plan_cache:
            plan = self._plan_cache[key]
        else:
            plan = self._plan_uncached(source, target)
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
        step fails and the manager re-routes.  Runs Yen over the CSR view
        (banned-set spur queries, no per-spur graph copies); cached per
        ``(source, target, k)`` for the same reason as :meth:`plan`.
        """
        self._validate_endpoints(source, target)
        key = (source, target, k)
        cached = self._plan_k_cache.get(key)
        if cached is None:
            mask_of = self.universe.mask_of
            paths = k_shortest_paths_csr(
                self.sag.csr, mask_of(source), mask_of(target), k
            )
            cached = tuple(
                self._plan_from_mask_path(source, target, path) for path in paths
            )
            self._plan_k_cache[key] = cached
        return list(cached)

    def _plan_from_mask_path(
        self,
        source: Configuration,
        target: Configuration,
        path: Path,
        decode: Optional[Callable[[Any], Configuration]] = None,
    ) -> AdaptationPlan:
        """Decode a mask-level search result back into an AdaptationPlan.

        The one decoder behind every planning entry point: eager CSR
        trees and Yen paths, lazy frontier searches, and — with
        ``decode`` the identity — the set-based A* fallback whose nodes
        already are configurations.
        """
        decode = self.universe.from_mask if decode is None else decode
        configs = [source, *map(decode, path.nodes[1:-1])]
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

        Point-query counterpart of :meth:`plan` for universes too large
        to enumerate: it explores the *implicit* SAG through
        :class:`~repro.core.sag.LazySAG` and returns a plan **identical
        — path, cost, and tie-break — to the eager CSR path** wherever
        both are defined, without ever materializing the safe space.
        Two phases over the shared successor generator:

        1. an A* probe with the admissible mask-distance heuristic
           ``ceil(|Δ| / max_flip) · min_cost`` establishes the optimal
           cost ``D`` (or proves the target unreachable) while the
           heuristic funnels expansion toward the target;
        2. a zero-heuristic replay with ``cost_bound=D`` re-runs the
           relaxation sequence exactly as the eager solver would —
           same successor order, same ``(cost, hops, counter)``
           tie-breaking — with the bound trimming the frontier beyond
           the goal (see :func:`repro.graphs.astar.lazy_astar` for why
           the bound cannot perturb the result).

        Phase 2 never re-pays phase 1's safety checks: both phases pull
        adjacency from the same per-mask cache.  Results are written
        through to the shared plan cache, so a later :meth:`plan` or
        :meth:`peek_plan` on the pair is a warm dict hit (and vice
        versa: a pair already planned eagerly returns here without any
        search).

        Raises:
            UnsafeConfigurationError: source or target violates invariants.
            NoSafePathError: target unreachable through safe
                configurations, or *max_expansions* exhausted (budget
                exhaustion is never cached as unreachable).
        """
        self._validate_endpoints(source, target)
        key = (source, target)
        if key in self._plan_cache:
            cached = self._plan_cache[key]
            if cached is None:
                raise NoSafePathError(
                    f"no safe adaptation path from {source.label()} "
                    f"to {target.label()}"
                )
            return cached
        universe = self.universe
        lazy = self.lazy_sag
        source_mask = universe.mask_of(source)
        target_mask = universe.mask_of(target)
        heuristic = self._mask_heuristic(target_mask)
        probe = lazy_astar(
            source_mask, target_mask, lazy.successors, heuristic, max_expansions
        )
        if probe is None:
            if max_expansions is not None:
                raise NoSafePathError(
                    f"no safe adaptation path from {source.label()} to "
                    f"{target.label()} within {max_expansions} expansions"
                )
            self._plan_cache[key] = None
            raise NoSafePathError(
                f"no safe adaptation path from {source.label()} "
                f"to {target.label()}"
            )
        exact = lazy_astar(
            source_mask,
            target_mask,
            lazy.successors,
            lambda mask: 0.0,
            max_expansions,
            cost_bound=probe.cost,
        )
        if exact is None:  # only reachable with an expansion budget set
            raise NoSafePathError(
                f"no safe adaptation path from {source.label()} to "
                f"{target.label()} within {max_expansions} expansions"
            )
        plan = self._plan_from_mask_path(source, target, exact)
        self._plan_cache[key] = plan
        return plan

    def _mask_heuristic(self, target_mask: int):
        """The admissible mask-distance heuristic toward *target_mask*:
        ``ceil(|Δ| / max_flip) · min_cost`` over the maskable actions."""
        maskable = [
            action
            for action, masked in zip(
                self.actions, self.actions.compiled_for(self.universe)
            )
            if masked is not None
        ]
        if maskable:
            max_flip = max(len(action.touched) for action in maskable)
            min_cost = min(action.cost for action in maskable)
        else:
            max_flip, min_cost = 1, 0.0

        def heuristic(mask: int) -> float:
            delta = (mask ^ target_mask).bit_count()
            if delta == 0:
                return 0.0
            return math.ceil(delta / max_flip) * min_cost

        return heuristic

    def _lazy_banned_shortest(
        self,
        source_mask: int,
        target_mask: int,
        banned_nodes,
        banned_arcs,
        heuristic,
        budget: Optional[int],
    ) -> Tuple[Optional[Path], bool, int]:
        """One exact banned-set shortest-path query on the implicit SAG.

        The two-phase :meth:`lazy_plan` technique under banned sets: an
        A* probe establishes the optimal cost ``D`` (or proves the
        target unreachable), then a zero-heuristic replay bounded by
        ``D`` reproduces the eager banned-set Dijkstra's relaxation
        sequence and tie-breaking exactly.  Returns
        ``(path, exhausted, expansions_spent)`` — ``path`` is ``None``
        when the target is unreachable *or* the budget ran out, with
        ``exhausted`` telling the two apart.
        """
        if source_mask == target_mask:
            return Path(nodes=(source_mask,), edges=(), cost=0.0), False, 0
        successors = self.lazy_sag.banned_view(banned_nodes, banned_arcs)
        stats: Dict[str, object] = {}
        probe = lazy_astar(
            source_mask, target_mask, successors, heuristic, budget, stats=stats
        )
        spent = int(stats.get("expansions", 0))
        if probe is None:
            return None, bool(stats.get("exhausted", False)), spent
        remaining = None if budget is None else max(0, budget - spent)
        stats = {}
        exact = lazy_astar(
            source_mask,
            target_mask,
            successors,
            lambda mask: 0.0,
            remaining,
            cost_bound=probe.cost,
            stats=stats,
        )
        spent += int(stats.get("expansions", 0))
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
        :class:`~repro.core.sag.LazySAG` successor generator: the
        candidate loop is :func:`repro.graphs.csr.k_shortest_paths_csr`'s
        own (:func:`repro.graphs.yen.extend_k_shortest`), and every
        spur query is the two-phase exact search of :meth:`lazy_plan` —
        so the returned plans are **identical (paths, costs, and order)
        to** :meth:`plan_k` wherever both are defined, without ever
        enumerating the safe space.

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
        source_mask = self.universe.mask_of(source)
        target_mask = self.universe.mask_of(target)
        heuristic = self._mask_heuristic(target_mask)
        remaining = max_expansions

        def spur_query(spur_mask, banned_nodes, banned_arcs):
            nonlocal remaining
            path, exhausted, spent = self._lazy_banned_shortest(
                spur_mask, target_mask, banned_nodes, banned_arcs,
                heuristic, remaining,
            )
            if remaining is not None:
                remaining = max(0, remaining - spent)
            return path, exhausted

        first, exhausted = spur_query(source_mask, frozenset(), frozenset())
        if first is None:
            if not exhausted:
                self._plan_cache.setdefault((source, target), None)
            return [], not exhausted
        found, complete = extend_k_shortest(first, target_mask, k, spur_query)
        plans = [
            self._plan_from_mask_path(source, target, path) for path in found
        ]
        # write the optimal plan through to the shared pair cache (it is
        # exact regardless of whether the enumeration finished)
        self._plan_cache.setdefault((source, target), plans[0])
        return plans, complete

    def plan_lazy(
        self,
        source: Configuration,
        target: Configuration,
        max_expansions: Optional[int] = None,
    ) -> AdaptationPlan:
        """MAP by A* partial exploration — never materializes the SAG (§7).

        Expands safe configurations on demand from the action library; the
        admissible heuristic is ``ceil(|Δ| / max_flip) * min_cost`` where Δ
        is the symmetric difference to the target, ``max_flip`` the largest
        number of components any single action changes, and ``min_cost``
        the cheapest action cost.  When every action is maskable the search
        runs over integer masks on the shared :attr:`lazy_sag` successor
        generator — node identity, successor order and heap tie-breaking
        are bijective with the frozenset search, so the plan is identical.
        """
        self._validate_endpoints(source, target)
        actions = tuple(self.actions)
        if not actions:
            if source == target:
                return AdaptationPlan(source, target, (), 0.0)
            raise NoSafePathError("no adaptive actions available")
        path: Optional[Path]
        decode: Callable[[Any], Configuration]
        if all(m is not None for m in self.actions.compiled_for(self.universe)):
            target_mask = self.universe.mask_of(target)
            path = lazy_astar(
                self.universe.mask_of(source), target_mask,
                self.lazy_sag.successors, self._mask_heuristic(target_mask),
                max_expansions,
            )
            decode = self.universe.from_mask
        else:
            # Some action touches components outside the universe: such an
            # action can route through configurations that have no bit
            # encoding, so the search stays on the frozenset representation.
            max_flip = max(len(a.touched) for a in actions)
            min_cost = min(a.cost for a in actions)

            def heuristic(config: Configuration) -> float:
                delta = len(config.symmetric_difference(target))
                if delta == 0:
                    return 0.0
                return math.ceil(delta / max_flip) * min_cost

            def successors(config: Configuration):
                for action in actions:
                    if action.is_applicable(config):
                        result = action.apply(config)
                        if self.space.is_safe(result):
                            yield action.action_id, action.cost, result

            path = lazy_astar(source, target, successors, heuristic, max_expansions)
            decode = lambda config: config  # noqa: E731 - nodes are configurations
        if path is None:
            raise NoSafePathError(
                f"no safe adaptation path from {source.label()} to {target.label()}"
            )
        return self._plan_from_mask_path(source, target, path, decode)

    def plan_collaborative(
        self, source: Configuration, target: Configuration
    ) -> AdaptationPlan:
        """Plan per collaborative set and concatenate (§7 decomposition).

        Each collaborative set is planned in its own sub-universe with the
        invariants and actions that fall inside it, using lazy A*; the
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
            sub_plan = sub_planner.plan_lazy(group_source, group_target)
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
