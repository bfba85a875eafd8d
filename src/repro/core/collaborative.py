"""Collaborative-set decomposition (paper §7).

"To handle the complexity, we can divide the adaptive components of a
system into multiple collaborative sets where component collaborations
occur only within each set.  The component adaptation of each set can be
handled independently, thereby reducing the complexity."

Two components collaborate iff some invariant mentions both or some
adaptive action touches both.  Collaborative sets are the connected
components of that relation, computed with a union-find structure.

The same independence makes the implicit SAG a product of per-set
sub-SAGs, which :class:`SetDistanceHeuristic` turns into the lazy
planner's exact distance-to-target heuristic.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Tuple

from repro.core.actions import ActionLibrary
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.core.space import SafeConfigurationSpace
from repro.graphs.csr import CSRGraph, csr_dijkstra


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


class SetDistanceHeuristic:
    """The lazy planner's heuristic: exact distance, one set at a time (§7).

    No invariant and no maskable action spans two collaborative sets, so
    the implicit SAG is the product of the sets' sub-SAGs — a step moves
    one set's projection along an arc of that set's sub-SAG and leaves
    every other projection alone.  The distance from a mask to a target
    is therefore the sum, over the sets, of the distance from the mask's
    projection to the target's projection.  :meth:`for_query` returns a
    function of the mask built from one term per set:

    * a set the query **changes** (source and target projections differ)
      of at most *cap* components contributes its **exact** distance,
      read from a table.  The set's sub-SAG is built once, on first use,
      and each distinct target projection then costs one reverse
      Dijkstra over it; tables sit in an LRU of *cache_size* entries
      keyed by ``(set, target projection)``, so targets that agree on a
      set share its table;
    * every other set contributes the mask bound
      ``ceil(|Δ_set| / max_flip_set) · min_cost_set`` over its own
      actions.  For a set above the cap that is all that is affordable;
      for a set the query leaves alone it is all that is needed — it is
      zero wherever the set sits at its target projection, and an
      optimal path only leaves it there on a detour the bound already
      charges for — so a near query builds one or two tables, not one
      per set.

    A projection that cannot reach the target's projection contributes
    ``inf`` (the searches prune it).  Every term is consistent on its own
    set's arcs and constant across the other sets' arcs, so the sum is
    consistent and ``h(target) == 0``; Yen's bans only lengthen true
    distances, so it stays admissible in every spur.

    The sub-SAG is enumerated in place, in the planner's own bit
    encoding: :meth:`~repro.core.space.SafeConfigurationSpace.restricted_masks`
    varies only the set's components over a safe anchor, where the other
    sets' invariants hold — exactly the sub-universe's safe set under the
    projected invariants, with no second universe or mask translation.
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
        groups = collaborative_sets(universe, space.invariants, actions)
        group_of_bit: Dict[int, int] = {}
        members: List[List[str]] = [[] for _ in groups]
        for index, group in enumerate(groups):
            for name in group:
                group_of_bit[universe.bit_of(name)] = index
        for name in universe.order:
            members[group_of_bit[universe.bit_of(name)]].append(name)
        arcs: List[List[Tuple[int, int, float, int]]] = [[] for _ in groups]
        for label, (masked, action) in enumerate(
            zip(actions.compiled_for(universe), actions)
        ):
            if masked is None:
                continue
            # the bits an action clears are required and the bits it sets
            # forbidden, so applying it is one XOR with ``care``; all of
            # them lie in one set, named here by the lowest
            care = masked.required | masked.forbidden
            if care:
                arcs[group_of_bit[care & -care]].append(
                    (care, masked.required, action.cost, label)
                )
        self._labels = actions.ids()
        #: per set: (mask, member names in universe order, arc specs,
        #: the mask bound's max_flip and min_cost)
        self._sets = tuple(
            (
                universe.mask_of_names(names),
                tuple(names),
                tuple(set_arcs),
                max((care.bit_count() for care, _, _, _ in set_arcs), default=1),
                min((cost for _, _, cost, _ in set_arcs), default=math.inf),
            )
            for names, set_arcs in zip(members, arcs)
        )
        self._graphs: Dict[int, CSRGraph] = {}
        self._tables: "OrderedDict[Tuple[int, int], Dict[int, float]]" = OrderedDict()

    def for_query(self, source_mask: int, target_mask: int) -> Callable[[int], float]:
        """``h(mask)``: the distance from *mask* to the safe *target_mask*.

        *source_mask* only selects which sets get exact tables (the ones
        the query changes); the function is a consistent heuristic
        toward *target_mask* from every mask.  It memoizes per mask, so
        one planning query — a probe, its replay and every Yen spur —
        pays the per-set sum once per distinct configuration.
        """
        exact: List[Tuple[int, Dict[int, float]]] = []
        bounded: List[Tuple[int, int, int, float]] = []
        for index, (set_mask, names, _, max_flip, min_cost) in enumerate(self._sets):
            projection = target_mask & set_mask
            if len(names) <= self._cap and source_mask & set_mask != projection:
                exact.append((set_mask, self._table(index, projection, target_mask)))
            else:
                bounded.append((set_mask, projection, max_flip, min_cost))
        memo: Dict[int, float] = {}

        def heuristic(mask: int) -> float:
            value = memo.get(mask)
            if value is None:
                value = 0.0
                for set_mask, table in exact:
                    value += table[mask & set_mask]
                for set_mask, projection, max_flip, min_cost in bounded:
                    delta = ((mask & set_mask) ^ projection).bit_count()
                    if delta:
                        value += math.ceil(delta / max_flip) * min_cost
                memo[mask] = value
            return value

        return heuristic

    def _table(self, index: int, projection: int, anchor: int) -> Dict[int, float]:
        """Distance from every projection of set *index* to *projection*."""
        key = (index, projection)
        tables = self._tables
        table = tables.get(key)
        if table is not None:
            tables.move_to_end(key)
            return table
        graph = self._graphs.get(index)
        if graph is None:
            graph = self._graphs[index] = self._reversed_sub_sag(index, anchor)
        dist, _, _ = csr_dijkstra(graph, graph.index_of[projection])
        table = dict(zip(graph.nodes, dist))
        tables[key] = table
        while len(tables) > self._cache_size:
            tables.popitem(last=False)
        return table

    def _reversed_sub_sag(self, index: int, anchor: int) -> CSRGraph:
        """Set *index*'s sub-SAG with every arc reversed (nodes: projections).

        *anchor* is any safe mask; only its bits outside the set are used.
        """
        set_mask, names, arcs, _, _ = self._sets[index]
        nodes = tuple(
            mask & set_mask
            for mask in self._space.restricted_masks(anchor & ~set_mask, names)
        )
        index_of = {node: i for i, node in enumerate(nodes)}
        incoming: List[List[Tuple[int, float, int]]] = [[] for _ in nodes]
        for source, node in enumerate(nodes):
            for care, required, cost, label in arcs:
                if node & care == required:
                    target = index_of.get(node ^ care)
                    if target is not None:
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
        return CSRGraph(nodes, index_of, offsets, targets, weights, label_ids, self._labels)
