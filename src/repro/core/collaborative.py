"""Collaborative-set decomposition (paper §7).

"To handle the complexity, we can divide the adaptive components of a
system into multiple collaborative sets where component collaborations
occur only within each set.  The component adaptation of each set can be
handled independently, thereby reducing the complexity."

Two components collaborate iff some invariant mentions both or some
adaptive action touches both.  Collaborative sets are the connected
components of that relation, computed with a union-find structure.

The same independence factors everything built over the safe space.
:class:`SafeFactorization` owns it: the safe space is the product of the
sets' safe projections, each enumerated on its own.  The SAG is the
product of per-set sub-SAGs (:func:`sag_factors` feeds
:meth:`SafeAdaptationGraph.build <repro.core.sag.SafeAdaptationGraph.build>`,
and :class:`FactoredSAG` reads a vertex's arcs off them without building
the product),
:class:`SetDistanceHeuristic` turns the sub-SAGs into exact per-set
distance tables, off which the planner reads every MAP and which its
banned searches use as their heuristic, and lint's per-set analysis
reads the same projections.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.actions import ActionLibrary
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.graphs.csr import CSRGraph, csr_dijkstra

if TYPE_CHECKING:
    from repro.core.space import SafeConfigurationSpace

#: one arc of a collaborative set's sub-SAG, as compiled from an action:
#: ``(care, required, cost, label)`` — the action applies where
#: ``mask & care == required`` and moves ``mask`` to ``mask ^ care``
SetArc = Tuple[int, int, float, int]
#: one arc out of a projection in a set's sub-SAG: ``(target projection
#: index, cost, label)``
ProjectionArc = Tuple[int, float, int]
#: collaborative sets, sorted by smallest member, and per set its
#: :data:`SetArc` list in library order
ActionSets = Tuple[Tuple[FrozenSet[str], ...], Tuple[Tuple[SetArc, ...], ...]]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def groups(self) -> List[FrozenSet[Hashable]]:
        by_root: Dict[Hashable, List[Hashable]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return [frozenset(members) for members in by_root.values()]


def collaborative_sets(
    universe: ComponentUniverse,
    invariants: InvariantSet,
    actions: ActionLibrary,
    conflicts: Iterable[Tuple[str, str]] = (),
) -> Tuple[FrozenSet[str], ...]:
    """Partition the universe into collaborative sets.

    Returns the sets sorted by their smallest member (deterministic).
    Components mentioned by no invariant and no action form singleton sets.
    Declared ``[conflicts]`` action pairs must serialize, so the touched
    components of both actions in a pair are forced into one set.
    """
    names = universe.names
    uf = UnionFind(names)
    for invariant in invariants:
        atoms = sorted(invariant.atoms() & names)
        for other in atoms[1:]:
            uf.union(atoms[0], other)
    for action in actions:
        touched = sorted(action.touched & names)
        for other in touched[1:]:
            uf.union(touched[0], other)
    for first, second in conflicts:
        joint: List[str] = []
        for action_id in (first, second):
            if action_id in actions:
                touched = actions.get(action_id).touched & names
                joint.extend(sorted(touched))
        for other in joint[1:]:
            uf.union(joint[0], other)
    groups = uf.groups()
    groups.sort(key=lambda group: min(group))
    return tuple(groups)


def project_invariants(
    invariants: InvariantSet, component_set: FrozenSet[str]
) -> InvariantSet:
    """Invariants whose atoms fall entirely inside *component_set*.

    With a valid collaborative decomposition every invariant lands in
    exactly one set, so projecting onto all sets loses nothing.
    """
    return InvariantSet(
        inv for inv in invariants if inv.atoms() <= component_set
    )


class SafeFactorization:
    """The safe space as a product of per-set factors (paper §7).

    No invariant spans two *invariant-connected* sets of components
    (:func:`collaborative_sets` with no actions), so a mask is safe iff
    its projection onto every such set is safe under the invariants
    whose in-universe atoms lie in that set.  Each set's safe
    projections are enumerated on their own, once, on first use
    (:meth:`~repro.core.space.SafeConfigurationSpace.extensions` over
    the set's components, every other bit undecided), and stay in the
    universe's own bit encoding with every bit outside the set clear.
    Invariants with no atom in the universe are constants: every set
    carries them, so a false one empties every factor.

    A space holds one (:meth:`SafeConfigurationSpace.projections
    <repro.core.space.SafeConfigurationSpace.projections>`) and passes
    its enumerator in on each call: the factorization keeps no
    reference back, so an evicted space is freed by reference counting
    rather than waiting for the cycle collector.
    """

    def __init__(self, universe: ComponentUniverse, invariants: InvariantSet):
        self._universe = universe
        group_of = {
            name: group
            for group in collaborative_sets(universe, invariants, ActionLibrary())
            for name in group
        }
        # sets by their first component, most significant first: for sets
        # that occupy contiguous runs of the universe order, the product
        # comes out ascending
        members: Dict[FrozenSet[str], List[str]] = {}
        for name in universe.order:
            members.setdefault(group_of[name], []).append(name)
        self._sets = list(members)
        self._order = [tuple(names) for names in members.values()]
        self._set_of = {
            name: index for index, names in enumerate(self._order) for name in names
        }
        self._projections: Dict[int, Tuple[int, ...]] = {}
        #: the last :meth:`action_sets` answer, keyed by the library's
        #: compiled masks (a new tuple whenever the library grows)
        self._action_sets: Optional[Tuple[tuple, ActionSets]] = None

    def projections(
        self,
        component_set: Iterable[str],
        extensions: Callable[[Tuple[str, ...]], List[int]],
    ) -> Tuple[int, ...]:
        """The safe projections of *component_set*, ascending.

        *component_set* must be a union of invariant-connected sets (any
        collaborative set is, with or without ``[conflicts]``); its safe
        projections are the product of those sets' own.  Over the whole
        universe this is the safe space.  *extensions* is the space's
        :meth:`~repro.core.space.SafeConfigurationSpace.extensions`.

        Raises:
            ValueError: *component_set* splits an invariant-connected set.
        """
        members = frozenset(component_set)
        indices = sorted({self._set_of[name] for name in members})
        if not indices:
            # no set to vary: the empty mask, unless a constant is false
            return tuple(extensions(()))
        masks = [0]
        for index in indices:
            if not self._sets[index] <= members:
                raise ValueError(
                    f"{sorted(members)} splits the invariant-connected set "
                    f"{sorted(self._sets[index])}"
                )
            projections = self._projections.get(index)
            if projections is None:
                projections = self._projections[index] = tuple(
                    extensions(self._order[index])
                )
            masks = [mask | projection for mask in masks for projection in projections]
        masks.sort()
        return tuple(masks)


    def action_sets(self, actions: ActionLibrary) -> ActionSets:
        """The collaborative sets of *actions* and each one's :func:`set_arcs`.

        The sets are :func:`collaborative_sets` ``(universe, invariants,
        actions)``, found by joining the invariant-connected sets along
        the actions rather than by a second pass over the invariants.
        The answer is kept for the last library, so the SAG build and
        the lazy heuristic of one planner share it.
        """
        universe = self._universe
        compiled = actions.compiled_for(universe)
        cached = self._action_sets
        if cached is not None and cached[0] is compiled:
            return cached[1]
        set_of = self._set_of
        uf = UnionFind(range(len(self._sets)))
        for action in actions:
            touched = [set_of[name] for name in action.touched if name in set_of]
            for other in touched[1:]:
                uf.union(touched[0], other)
        groups = [
            frozenset().union(*(self._sets[index] for index in indices))
            for indices in uf.groups()
        ]
        groups.sort(key=min)
        answer = (
            tuple(groups),
            tuple(map(tuple, set_arcs(universe, groups, actions))),
        )
        self._action_sets = (compiled, answer)
        return answer


def set_arcs(
    universe: ComponentUniverse,
    groups: Sequence[FrozenSet[str]],
    actions: ActionLibrary,
) -> List[List[SetArc]]:
    """Per collaborative set, the arcs of its actions in library order.

    *groups* must be collaborative sets of *actions* (every action
    touches one set only); actions touching components outside the
    universe can never connect two configurations and are skipped.
    Labels index ``actions`` in iteration order.
    """
    group_of_bit: Dict[int, int] = {}
    for index, group in enumerate(groups):
        for name in group:
            group_of_bit[universe.bit_of(name)] = index
    arcs: List[List[SetArc]] = [[] for _ in groups]
    for label, (masked, action) in enumerate(zip(actions.compiled_for(universe), actions)):
        if masked is None:
            continue
        # the bits an action clears are required and the bits it sets
        # forbidden, so applying it is one XOR with ``care``; all of them
        # lie in one set, named here by the lowest
        care = masked.required | masked.forbidden
        arcs[group_of_bit[care & -care]].append((care, masked.required, action.cost, label))
    return arcs


def projection_arcs(
    projections: Sequence[int], arcs: Sequence[SetArc]
) -> List[List[ProjectionArc]]:
    """A set's sub-SAG: per projection, its ``(target index, cost, label)`` arcs.

    *projections* are the set's safe projections and *arcs* its actions'
    arcs; each projection's arcs keep the order of *arcs* and lead to a
    safe projection.
    """
    index_of = {node: index for index, node in enumerate(projections)}
    get_target = index_of.get
    rows: List[List[ProjectionArc]] = []
    for node in projections:
        row = []
        for care, required, cost, label in arcs:
            if node & care == required:
                target = get_target(node ^ care)
                if target is not None:
                    row.append((target, cost, label))
        rows.append(row)
    return rows


def _action_factors(
    space: "SafeConfigurationSpace", actions: ActionLibrary
) -> Tuple[List[Tuple[FrozenSet[str], Sequence[SetArc]]], FrozenSet[str]]:
    """The factors with actions, in SAG arc order, and the idle components.

    A factor is a collaborative set, or several whose actions interleave
    in library order, so that concatenating one projection's arcs per
    factor, in factor order, lists a vertex's arcs in action-library
    order; factors are ordered by their first action.  The sets without
    any action are returned apart, joined into one component set.
    """
    groups, arcs_of = space.factorization.action_sets(actions)

    def first_label(item: Tuple[FrozenSet[str], Sequence[SetArc]]) -> float:
        _, arcs = item
        return arcs[0][3] if arcs else math.inf

    merged: List[Tuple[FrozenSet[str], Sequence[SetArc]]] = []
    idle: List[FrozenSet[str]] = []
    for group, arcs in sorted(zip(groups, arcs_of), key=first_label):
        if not arcs:
            idle.append(group)
        elif merged and arcs[0][3] < merged[-1][1][-1][3]:
            # this set's actions interleave with the previous factor's
            first, first_arcs = merged.pop()
            merged.append(
                (first | group, sorted((*first_arcs, *arcs), key=lambda arc: arc[3]))
            )
        else:
            merged.append((group, arcs))
    return merged, frozenset(name for group in idle for name in group)


def sag_factors(
    space: "SafeConfigurationSpace", actions: ActionLibrary
) -> List[Tuple[Tuple[int, ...], List[List[ProjectionArc]]]]:
    """The SAG as a product of sub-SAGs: ``(projections, arcs)`` per factor.

    The factors with actions come first, in the order that keeps a
    vertex's arcs in action-library order (:func:`_action_factors`); the
    sets without any action form one last factor.  *arcs* is
    :func:`projection_arcs` over the factor's safe projections.
    """
    merged, idle = _action_factors(space, actions)
    if idle:
        merged.append((idle, []))
    factors: List[Tuple[Tuple[int, ...], List[List[ProjectionArc]]]] = []
    for group, arcs in merged:
        projections = space.projections(group)
        factors.append((projections, projection_arcs(projections, arcs)))
    return factors


class FactoredSAG:
    """The SAG's arcs read off its factors, one mask at a time (§7).

    A vertex's arcs are, factor by factor, the sub-SAG arcs of its
    projection onto that factor (:func:`sag_factors`), so
    :meth:`successors` looks the mask's projection up in every factor
    and moves that projection alone: the ``(action_id, cost,
    next_mask)`` arcs :attr:`SafeAdaptationGraph.successors
    <repro.core.sag.SafeAdaptationGraph.successors>` reads off the
    built SAG, in the same order, with no product enumerated and
    nothing kept per mask.  Each factor with actions is enumerated once,
    when the view is made; the sets without actions never are (they
    contribute no arc).  :meth:`fitting` makes one only when every such
    factor fits a component cap.
    """

    def __init__(
        self,
        space: "SafeConfigurationSpace",
        actions: ActionLibrary,
        factors: Sequence[Tuple[FrozenSet[str], Sequence[SetArc]]],
    ):
        universe = space.universe
        ids = actions.ids()
        #: per factor: its bit mask, and per safe projection its arcs as
        #: ``(action_id, cost, flip)`` (the next mask is ``mask ^ flip``)
        self._factors: List[Tuple[int, Dict[int, Tuple[Tuple[str, float, int], ...]]]] = []
        for group, arcs in factors:
            projections = space.projections(group)
            rows = {
                projection: tuple(
                    (ids[label], cost, projection ^ projections[target])
                    for target, cost, label in row
                )
                for projection, row in zip(
                    projections, projection_arcs(projections, arcs)
                )
            }
            self._factors.append((universe.mask_of_names(group), rows))
        #: masks expanded so far, one per :meth:`successors` call
        self.expanded_nodes = 0

    @classmethod
    def fitting(
        cls, space: "SafeConfigurationSpace", actions: ActionLibrary, cap: int
    ) -> Optional["FactoredSAG"]:
        """The view, or ``None`` when a factor with actions has more than
        *cap* components (its projections are not affordable)."""
        factors, _ = _action_factors(space, actions)
        if any(len(group) > cap for group, _ in factors):
            return None
        return cls(space, actions, factors)

    def successors(self, mask: int) -> List[Tuple[str, float, int]]:
        """Outgoing arcs of the safe *mask*, in SAG edge order."""
        self.expanded_nodes += 1
        return [
            (action_id, cost, mask ^ flip)
            for factor_mask, rows in self._factors
            for action_id, cost, flip in rows[mask & factor_mask]
        ]


class MapWalk(NamedTuple):
    """A plan read off the per-set tables: its cost, masks and action ids
    (the fields of a :class:`~repro.graphs.digraph.Path` a planner reads)."""

    cost: float
    nodes: Tuple[int, ...]
    labels: Tuple[str, ...]


class SetDistanceHeuristic:
    """Exact per-set ``(cost, hops)`` tables: the MAP walk and the searches'
    heuristic (§7).

    No invariant and no maskable action spans two collaborative sets, so
    the implicit SAG is the product of the sets' sub-SAGs — a step moves
    one set's projection along an arc of that set's sub-SAG and leaves
    every other projection alone.  A path's cost and its hop count are
    therefore sums over the sets, and so are the least ``(cost, hops)``
    from a mask to a target: per set, from the mask's projection to the
    target's projection.  A set the query **changes** (source and target
    projections differ) of at most *cap* components gets that pair
    exactly, from a table.  The set's sub-SAG is built once, on first
    use, and each distinct target projection then costs one reverse
    lexicographic Dijkstra over it; tables sit in an LRU of *cache_size*
    entries keyed by ``(set, target projection)``, so targets that agree
    on a set share its table.

    :meth:`walk` reads the MAP off the tables with no search, and
    :meth:`for_query` turns them into the consistent heuristic of the
    banned searches.  The sub-SAG is built in place, in the planner's
    own bit encoding: its nodes are the set's safe projections
    (:meth:`SafeConfigurationSpace.projections
    <repro.core.space.SafeConfigurationSpace.projections>`, shared with
    the eager build) and its arcs :func:`projection_arcs` — no second
    universe or mask translation.  The sets ignore ``[conflicts]``: the
    finer partition gives the same exact sums.
    """

    def __init__(
        self,
        space: SafeConfigurationSpace,
        actions: ActionLibrary,
        cap: int,
        cache_size: int,
    ):
        universe = space.universe
        self._space = space
        self._cap = cap
        self._cache_size = max(1, cache_size)
        groups, arcs_of = space.factorization.action_sets(actions)
        self._labels = actions.ids()
        #: per set: (mask, members, arcs, the mask bound's max_flip and
        #: min_cost)
        self._sets = tuple(
            (
                universe.mask_of_names(group),
                group,
                arcs,
                max((care.bit_count() for care, _, _, _ in arcs), default=1),
                min((cost for _, _, cost, _ in arcs), default=math.inf),
            )
            for group, arcs in zip(groups, arcs_of)
        )
        #: per set: its projections, their indices, its forward rows
        #: (:func:`projection_arcs`) and the reversed sub-SAG
        self._sub_sags: Dict[int, Tuple[
            Tuple[int, ...], Dict[int, int], List[List[ProjectionArc]], CSRGraph
        ]] = {}
        #: per (set, target projection): least cost and its fewest hops to
        #: the target, per projection index
        self._tables: "OrderedDict[Tuple[int, int], Tuple[List[float], List[int]]]" = (
            OrderedDict()
        )

    def walk(self, source_mask: int, target_mask: int) -> Tuple[bool, Optional[MapWalk]]:
        """The MAP from *source_mask* to *target_mask*, read off the tables.

        The MAP contract (DESIGN.md §11): least cost, then fewest hops,
        then at each step the lowest action-library index.  Each step
        looks at the changed sets' forward rows for their current
        projections only: an arc is tight when it keeps the least cost
        (within a ``1e-9`` relative slack) and takes one hop off the
        fewest, and the tight arc with the lowest index is taken.  Hops
        strictly fall, so zero-cost arcs cannot loop, and the walk stops
        at the target.  A set the query leaves alone never moves: moving
        it adds a hop, and a cost that is not negative.

        Returns ``(exact, walk)``: ``(False, None)`` when a changed set
        is above the cap (no table is affordable; the caller searches),
        else the walk, or ``None`` when some changed set's table has no
        path from the source's projection — exactly when the target is
        unreachable.
        """
        moving: List[list] = []
        for index, (set_mask, group, _, _, _) in enumerate(self._sets):
            projection = target_mask & set_mask
            here = source_mask & set_mask
            if here == projection:
                continue
            if len(group) > self._cap:
                return False, None
            nodes, index_of, rows, _ = self._sub_sag(index)
            dist, hops = self._table(index, projection)
            position = index_of[here]
            if dist[position] == math.inf:
                return True, None
            moving.append([position, nodes, rows, dist, hops])
        mask, cost = source_mask, 0.0
        path = [mask]
        labels: List[str] = []
        for _ in range(sum(entry[4][entry[0]] for entry in moving)):
            best: Optional[tuple] = None
            for entry in moving:
                position, _, rows, dist, hops = entry
                remaining = hops[position] - 1
                if remaining < 0:
                    continue
                least = dist[position]
                bound = least + 1e-9 * (1.0 + least)
                # rows keep library order: a set's first tight arc is its
                # lowest-index one
                for nxt, weight, label in rows[position]:
                    if hops[nxt] == remaining and weight + dist[nxt] <= bound:
                        if best is None or label < best[0]:
                            best = (label, weight, nxt, entry)
                        break
            assert best is not None  # the table's own arc is always tight
            label, weight, nxt, entry = best
            nodes = entry[1]
            mask ^= nodes[entry[0]] ^ nodes[nxt]
            entry[0] = nxt
            cost += weight
            path.append(mask)
            labels.append(self._labels[label])
        return True, MapWalk(cost, tuple(path), tuple(labels))

    def for_query(self, source_mask: int, target_mask: int) -> Callable[[int], float]:
        """``h(mask)``: a consistent heuristic toward the safe *target_mask*.

        One term per set: a set the query changes (*source_mask* only
        selects these) that fits the cap contributes its exact distance
        from its table; every other set the mask bound
        ``ceil(|Δ_set| / max_flip_set) · min_cost_set`` over its own
        actions — all that is affordable above the cap, and all that is
        needed for a set the query leaves alone: zero wherever the set
        sits at its target projection, and an optimal path only leaves
        it there on a detour the bound already charges for.  A
        projection that cannot reach the target's projection contributes
        ``inf`` (the searches prune it).  Every term is consistent on its
        own set's arcs and constant across the other sets' arcs, so the
        sum is consistent and ``h(target) == 0``; bans only lengthen
        true distances, so it stays admissible in every banned search.
        It memoizes per mask, so one query — a probe, its replay and
        every Yen spur — pays the per-set sum once per configuration.
        """
        exact: List[Tuple[int, Dict[int, int], List[float]]] = []
        bounded: List[Tuple[int, int, int, float]] = []
        for index, (set_mask, group, _, max_flip, min_cost) in enumerate(self._sets):
            projection = target_mask & set_mask
            if len(group) <= self._cap and source_mask & set_mask != projection:
                dist, _ = self._table(index, projection)
                exact.append((set_mask, self._sub_sag(index)[1], dist))
            else:
                bounded.append((set_mask, projection, max_flip, min_cost))
        memo: Dict[int, float] = {}

        def heuristic(mask: int) -> float:
            value = memo.get(mask)
            if value is None:
                value = 0.0
                for set_mask, index_of, dist in exact:
                    value += dist[index_of[mask & set_mask]]
                for set_mask, projection, max_flip, min_cost in bounded:
                    delta = ((mask & set_mask) ^ projection).bit_count()
                    if delta:
                        value += math.ceil(delta / max_flip) * min_cost
                memo[mask] = value
            return value

        return heuristic

    def _table(self, index: int, projection: int) -> Tuple[List[float], List[int]]:
        """Least cost, and fewest hops at that cost, from every projection
        of set *index* to *projection*."""
        key = (index, projection)
        tables = self._tables
        table = tables.get(key)
        if table is not None:
            tables.move_to_end(key)
            return table
        _, index_of, _, graph = self._sub_sag(index)
        dist, hops, _ = csr_dijkstra(graph, index_of[projection])
        table = tables[key] = (dist, hops)
        while len(tables) > self._cache_size:
            tables.popitem(last=False)
        return table

    def _sub_sag(
        self, index: int
    ) -> Tuple[Tuple[int, ...], Dict[int, int], List[List[ProjectionArc]], CSRGraph]:
        """Set *index*'s sub-SAG: its projections, their indices, its
        forward rows, and the same arcs reversed as a CSR graph (built
        once)."""
        sub_sag = self._sub_sags.get(index)
        if sub_sag is not None:
            return sub_sag
        _, group, arcs, _, _ = self._sets[index]
        nodes = self._space.projections(group)
        rows = projection_arcs(nodes, arcs)
        incoming: List[List[ProjectionArc]] = [[] for _ in nodes]
        for source, row in enumerate(rows):
            for target, cost, label in row:
                incoming[target].append((source, cost, label))
        offsets = [0]
        targets: List[int] = []
        weights: List[float] = []
        label_ids: List[int] = []
        for arcs_in in incoming:
            for source, cost, label in arcs_in:
                targets.append(source)
                weights.append(cost)
                label_ids.append(label)
            offsets.append(len(targets))
        index_of = {node: i for i, node in enumerate(nodes)}
        graph = CSRGraph(nodes, index_of, offsets, targets, weights, label_ids, self._labels)
        sub_sag = self._sub_sags[index] = (nodes, index_of, rows, graph)
        return sub_sag
