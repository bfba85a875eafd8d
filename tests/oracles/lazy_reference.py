"""Reference two-phase lazy search (slow oracle).

The exact frontier search the product ran before the corridor replay:

1. an A* probe ordered by ``(f, hops, counter)`` under the weak mask
   bound ``ceil(|Δ| / max_flip) · min_cost`` establishes the optimal
   cost ``D``;
2. a zero-heuristic replay bounded by ``g <= D`` — a uniform-cost sweep
   over every configuration cheaper than the optimum — reproduces the
   eager solver's relaxation sequence and tie-break.

The probe and the replay of :meth:`ReferenceLazyPlanner.lazy_plan` each
get the full expansion budget.  Its plans break ties as Dijkstra's do;
the product's MAP follows the contract of DESIGN.md §11 instead, so the
differential suite pins only costs to :meth:`~ReferenceLazyPlanner.lazy_plan`,
and starts :meth:`~ReferenceLazyPlanner.lazy_plan_k` from the contract's
MAP.  :class:`ReferenceLazyPlanner` wraps an
:class:`~repro.core.planner.AdaptationPlanner` and borrows only its
endpoint validation, successor generator (``lazy_sag``), decoder and
plan cache; the search itself is kept verbatim.  The differential suite
in ``tests/core/test_lazy_oracle.py`` pins
:meth:`AdaptationPlanner.lazy_plan` and :meth:`AdaptationPlanner.lazy_plan_k`
to it: same costs, the same k-best lists (paths, costs, order) from the
same first path, and the same completeness flag wherever budgets are
unset.

:func:`_filtered` is the banned view the product's Yen spurs searched
before their bans were applied at the source (banned masks seeding the
closed sets, banned arcs dropped from the spur node's own list): the
oracle's spurs still run over it, and
``tests/core/test_plan_k_oracle.py`` pins the product's bans to it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.core.model import Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner, Successors
from repro.core.sag import Arcs
from repro.errors import NoSafePathError
from repro.graphs.astar import HeuristicFn, L, N, SuccessorFn
from repro.graphs.digraph import Edge, Path
from tests.oracles.graph_reference import extend_k_shortest


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


def reference_lazy_astar(
    source: N,
    target: N,
    successors: SuccessorFn,
    heuristic: HeuristicFn,
    max_expansions: Optional[int] = None,
    *,
    cost_bound: Optional[float] = None,
    stats: Optional[Dict[str, object]] = None,
) -> Optional[Path[N, L]]:
    """A* over an *implicit* graph defined by a successor function.

    Args:
        source: start node.
        target: goal node.
        successors: yields ``(label, weight, next_node)`` triples; called
            only for nodes the search actually expands.
        heuristic: admissible estimate of remaining cost to *target*.
        max_expansions: optional safety valve; when exceeded the search
            gives up and returns ``None``.
        stats: optional dict updated in place with run accounting:
            ``"expansions"`` (nodes expanded) and ``"exhausted"`` (the
            search gave up on *max_expansions* rather than proving the
            target unreachable).  Callers running many budgeted searches
            against one shared budget — the lazy Yen enumeration in
            :meth:`~repro.core.planner.AdaptationPlanner.lazy_plan_k` —
            need both to deduct spend and to tell "no path" from "ran
            out", which the ``None`` return alone cannot.
        cost_bound: optional known upper bound on the optimal cost.
            Relaxations whose tentative cost exceeds it (beyond a small
            relative float slack) are dropped.  This cannot change the
            result when the bound is correct: a node reached only above
            the bound would settle strictly after the target in the
            unbounded run, so neither its heap entry nor its tentative
            ``(g, hops)`` state can influence any relaxation that happens
            before the target settles — the search prefix, and with it
            the returned path, its cost, *and* its tie-breaking, are
            identical.  The bound only trims the frontier fan-out beyond
            the goal ellipse (used by the exact lazy replay in
            :meth:`~repro.core.planner.AdaptationPlanner.lazy_plan`).

    Returns:
        An optimal :class:`Path`, or ``None`` if *target* is unreachable
        (or the expansion budget ran out).
    """
    bound: Optional[float] = None
    if cost_bound is not None:
        # relative slack absorbs summation-order float drift in the
        # externally computed bound without ever rejecting an equal cost
        bound = cost_bound + 1e-9 * (1.0 + abs(cost_bound))
    g_score: Dict[N, float] = {source: 0.0}
    hops: Dict[N, int] = {source: 0}
    came_from: Dict[N, Edge[N, L]] = {}
    settled: set = set()
    counter = 0
    heap: List[Tuple[float, int, int, N]] = [(heuristic(source), 0, counter, source)]
    expansions = 0

    def account(exhausted: bool) -> None:
        if stats is not None:
            stats["expansions"] = expansions
            stats["exhausted"] = exhausted

    while heap:
        _, nhops, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            account(False)
            return _rebuild(source, target, came_from, g_score[target])
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            account(True)
            return None
        for label, weight, nxt in successors(node):
            if weight < 0:
                raise ValueError(f"negative edge weight {weight} from {node!r}")
            if nxt in settled:
                continue
            tentative = g_score[node] + weight
            if bound is not None and tentative > bound:
                continue
            best = g_score.get(nxt)
            if best is None or tentative < best or (
                tentative == best and nhops + 1 < hops[nxt]
            ):
                g_score[nxt] = tentative
                hops[nxt] = nhops + 1
                came_from[nxt] = Edge(node, nxt, label, weight)
                counter += 1
                heapq.heappush(
                    heap, (tentative + heuristic(nxt), nhops + 1, counter, nxt)
                )
    account(False)
    return None


def _rebuild(
    source: N, target: N, came_from: Dict[N, Edge[N, L]], cost: float
) -> Path[N, L]:
    if source == target:
        return Path(nodes=(source,), edges=(), cost=0.0)
    edges: List[Edge[N, L]] = []
    node = target
    while node != source:
        edge = came_from[node]
        edges.append(edge)
        node = edge.source
    edges.reverse()
    nodes = (source,) + tuple(edge.target for edge in edges)
    return Path(nodes=nodes, edges=tuple(edges), cost=cost)


class ReferenceLazyPlanner:
    """The former two-phase search over a planner's implicit SAG."""

    def __init__(self, planner: AdaptationPlanner):
        self._planner = planner
        self.universe = planner.universe
        self.actions = planner.actions
        self.lazy_sag = planner.lazy_sag
        self._plan_cache: Dict = {}

    def _validate_endpoints(self, source: Configuration, target: Configuration) -> None:
        self._planner._validate_endpoints(source, target)

    def _plan_from_mask_path(self, source, target, path) -> AdaptationPlan:
        return self._planner._plan_from_mask_path(
            source, target, path.nodes, path.labels, path.cost
        )

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
           the goal (see :func:`reference_lazy_astar` for why the
           bound cannot perturb the result).

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
        probe = reference_lazy_astar(
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
        exact = reference_lazy_astar(
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
        successors = _filtered(self.lazy_sag.successors, banned_nodes, banned_arcs)
        stats: Dict[str, object] = {}
        probe = reference_lazy_astar(
            source_mask, target_mask, successors, heuristic, budget, stats=stats
        )
        spent = int(stats.get("expansions", 0))
        if probe is None:
            return None, bool(stats.get("exhausted", False)), spent
        remaining = None if budget is None else max(0, budget - spent)
        stats = {}
        exact = reference_lazy_astar(
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
        first: Optional[Path] = None,
    ) -> Tuple[List[AdaptationPlan], bool]:
        """Up to *k* minimum-cost plans by frontier search — no SAG (§7).

        Yen's loopless enumeration run entirely over the
        :class:`~repro.core.sag.LazySAG` successor generator: the
        candidate loop is the eager CSR Yen's
        own (:func:`tests.oracles.graph_reference.extend_k_shortest`), and every
        spur query is the two-phase exact search of :meth:`lazy_plan` —
        so the returned plans are **identical (paths, costs, and order)
        to** :meth:`plan_k` wherever both are defined, without ever
        enumerating the safe space.

        Returns ``(plans, complete)``: *complete* is ``False`` when the
        shared *max_expansions* budget ran out before the enumeration
        could finish — the plans returned so far are still the true
        best ones, there may just be more.  Used by
        :func:`repro.ltl.paths.verify_paths` for budget-bounded
        tri-state verdicts above the enumeration cap.  Yen's loop starts
        from *first*, a shortest path, when given (it costs no
        expansion), else from the first spur query's answer.
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

        exhausted = False
        if first is None:
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
