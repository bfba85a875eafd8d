"""The Safe Adaptation Graph (paper §3.1, §4.2 step 2).

"We can construct a safe adaptation graph (SAG), where vertices are all
safe configurations and arcs are all possible adaptation steps connecting
safe configurations."  An arc (config1, config2) exists iff both endpoints
are safe and some adaptive action maps config1 to config2; the arc weight
is that action's cost.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, product, repeat
from operator import add
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.collaborative import FactoredSAG, sag_factors
from repro.core.model import ComponentUniverse, Configuration
from repro.core.space import SafeConfigurationSpace
from repro.errors import UnknownComponentError
from repro.graphs import CSRGraph, Digraph


class LazySAG:
    """Frontier successor generator over the *implicit* SAG (§7).

    Expands ``(config, action)`` neighbors incrementally: for a safe
    mask, :meth:`successors` yields the ``(action_id, cost, next_mask)``
    arcs that :meth:`SafeAdaptationGraph.build` would insert for that
    vertex — same arcs, same action-library order — without ever
    enumerating the safe space or materializing the graph.  A search
    driven by this generator therefore relaxes edges in exactly the
    sequence the eager CSR solver does, which is what makes
    :meth:`AdaptationPlanner.lazy_plan
    <repro.core.planner.AdaptationPlanner.lazy_plan>`'s tie-breaking
    provably identical to the eager path.

    :meth:`successors` tests every compiled action against the mask,
    safety-checks the results, and caches the adjacency per mask, so the
    A* probe, the exact replay and every Yen spur pay the checks once per
    frontier node (the k-best searches above the cap read it).
    :attr:`point_successors` serves lone point queries
    (:meth:`AdaptationPlanner.plan
    <repro.core.planner.AdaptationPlanner.plan>` and ``lazy_plan``):
    given a *cap* (and then an eager :class:`SafeConfigurationSpace`)
    whose factors with actions all fit it, it is a
    :class:`~repro.core.collaborative.FactoredSAG`'s, which looks each
    factor's projection up in its sub-SAG and keeps nothing per mask
    (memory stays that of the factors, however many queries run); with
    a factor above the cap, or no cap, it is :meth:`successors`.  Both
    yield the same arcs in the same order.

    Actions touching components outside the universe are skipped up
    front, exactly as the eager build skips them (their result always
    leaves the universe, so they can never connect two vertices).

    *space* may be an eager :class:`SafeConfigurationSpace` or a
    :class:`~repro.core.space.LazySafeSpace` — anything with a
    ``universe`` and the memoized ``is_safe_mask`` /
    ``are_safe_masks`` query pair.
    """

    def __init__(self, space, actions: ActionLibrary, cap: Optional[int] = None):
        self._space = space
        self._actions = actions
        self._cap = cap
        self.universe = space.universe
        self._arc_specs = tuple(
            (action.action_id, action.cost, masked)
            for masked, action in zip(actions.compiled_for(self.universe), actions)
            if masked is not None
        )
        self._adjacency: Dict[int, Tuple[Tuple[str, float, int], ...]] = {}
        self._factored: Optional[FactoredSAG] = None
        self._point_successors: Optional[Callable[[int], Any]] = None

    @property
    def point_successors(self) -> Callable[[int], Any]:
        """The successor function of a lone query (chosen on first use):
        the factored view's when every factor with actions fits the cap,
        else :meth:`successors`."""
        if self._point_successors is None:
            if self._cap is not None:
                self._factored = FactoredSAG.fitting(self._space, self._actions, self._cap)
            self._point_successors = (
                self.successors if self._factored is None else self._factored.successors
            )
        return self._point_successors

    @property
    def expanded_nodes(self) -> int:
        """Masks expanded so far: the distinct masks whose adjacency
        :meth:`successors` cached, plus every expansion of the factored
        view (which keeps nothing per mask)."""
        factored = 0 if self._factored is None else self._factored.expanded_nodes
        return len(self._adjacency) + factored

    def successors(self, mask: int) -> Tuple[Tuple[str, float, int], ...]:
        """Outgoing arcs of *mask*, in SAG edge-insertion order (cached).

        Applicability is resolved per action, then the surviving result
        masks are safety-checked in **one batched**
        :meth:`~repro.core.space.SafeConfigurationSpace.are_safe_masks`
        call — same verdicts, same arc order, one memo/closure dispatch
        per expansion instead of one per candidate arc.
        """
        cached = self._adjacency.get(mask)
        if cached is None:
            candidates = []
            for action_id, cost, masked in self._arc_specs:
                required = masked.required
                if (mask & required) == required and not (mask & masked.forbidden):
                    result = (mask & ~masked.clear) | masked.set_bits
                    candidates.append((action_id, cost, result))
            verdicts = self._space.are_safe_masks(
                [candidate[2] for candidate in candidates]
            )
            cached = tuple(
                candidate
                for candidate, safe in zip(candidates, verdicts)
                if safe
            )
            self._adjacency[mask] = cached
        return cached

    def banned_view(self, banned_nodes, banned_arcs):
        """A successor function skipping banned masks and banned arcs.

        *banned_nodes* is a set of masks, *banned_arcs* a set of
        ``(source_mask, action_id)`` pairs — the bans Yen's spur queries
        pass (an action id identifies at most one arc out of a given
        mask).  Filtering preserves the underlying arc order, so a
        search driven by the view relaxes the surviving edges in the
        same sequence as over the built SAG's
        :meth:`SafeAdaptationGraph.banned_view`; the per-mask adjacency
        cache is shared with unfiltered traversals.
        """
        return _filtered(self.successors, banned_nodes, banned_arcs)


def _filtered(successors, banned_nodes, banned_arcs):
    """*successors* without arcs into *banned_nodes* or in *banned_arcs*."""
    if not banned_nodes and not banned_arcs:
        return successors
    banned_labels: Dict[int, Set[str]] = {}
    for mask, label in banned_arcs:
        banned_labels.setdefault(mask, set()).add(label)

    def view(mask: int):
        labels = banned_labels.get(mask)
        if labels is None:
            return [arc for arc in successors(mask) if arc[2] not in banned_nodes]
        return [
            arc for arc in successors(mask)
            if arc[2] not in banned_nodes and arc[0] not in labels
        ]

    return view


class SafeAdaptationGraph:
    """SAG over safe configurations with adaptive-action labelled arcs.

    Held as a mask-node :class:`~repro.graphs.csr.CSRGraph`: nodes are
    the vertices' presence masks, each arc's label is its action id and
    its weight the action's cost.  Every query below is answered from the
    arrays; :class:`Configuration` objects are decoded only for what a
    query returns, and a :class:`Digraph` only when :attr:`graph` is read.
    """

    def __init__(self, csr: CSRGraph, actions: ActionLibrary, universe: ComponentUniverse):
        self._csr = csr
        self._actions = actions
        self._universe = universe
        self._graph: Optional[Digraph] = None
        self._successors: Optional[Callable[[int], Iterator[Tuple[str, float, int]]]] = None

    @classmethod
    def build(
        cls, space: SafeConfigurationSpace, actions: ActionLibrary
    ) -> "SafeAdaptationGraph":
        """Materialize the SAG straight into CSR arrays, one factor at a time.

        No invariant and no action spans two collaborative sets, so the
        SAG is the product of the sets' sub-SAGs (§7): a vertex's arcs
        are, per set, the sub-SAG arcs of its projection onto that set,
        each moving that projection alone.
        :func:`~repro.core.collaborative.sag_factors` tests each action
        against its own set's safe projections only (|projections| ·
        |set actions| tests, not |vertices| · |actions|), and orders the
        factors so that joining their arc lists keeps action-library
        order.  The product numbers the vertices in mixed radix, last
        factor fastest: an arc of a factor with stride ``s`` from
        projection ``i`` to ``j`` leads ``(j - i) · s`` vertices on.
        When the factors' bits interleave, that order is not ascending
        by mask, and the vertices are emitted re-sorted.  Nodes are
        ``space.enumerate_masks()``, and every array is the one the
        vertex × action loop it replaced writes
        (``tests/oracles/sag_reference.py``).  Actions touching
        components outside the universe can never connect two vertices
        (their result always leaves the universe), so they are skipped.
        """
        masks = space.enumerate_masks()
        factors = sag_factors(space, actions)
        # per factor and projection: its arcs' labels, weights, steps and
        # count
        labels: List[List[List[int]]] = []
        weights: List[List[List[float]]] = []
        steps: List[List[List[int]]] = []
        degrees: List[List[int]] = []
        for index, (projections, rows) in enumerate(factors):
            stride = math.prod(len(later) for later, _ in factors[index + 1:])
            labels.append([[label for _, _, label in row] for row in rows])
            weights.append([[cost for _, cost, _ in row] for row in rows])
            steps.append([
                [(target - source) * stride for target, _, _ in row]
                for source, row in enumerate(rows)
            ])
            degrees.append(list(map(len, rows)))
        # per vertex in factor order (projections share no bit, so a sum
        # is their union)
        vertex_masks = list(map(sum, product(*(projections for projections, _ in factors))))
        vertex_degrees = list(map(sum, product(*degrees)))
        node_ids = list(range(len(masks)))
        order = position = node_ids
        if vertex_masks != list(masks):
            # the factors' bits interleave: emit in ascending mask order
            order = sorted(node_ids, key=vertex_masks.__getitem__)
            vertex_degrees = [vertex_degrees[vertex] for vertex in order]
            position = [0] * len(masks)
            for node, vertex in zip(node_ids, order):
                position[vertex] = node

        def flat(rows: List[List[List[Any]]]) -> Iterator[Any]:
            """Per-factor rows joined vertex by vertex, in node order."""
            vertices: Iterable[Tuple[List[Any], ...]] = product(*rows)
            if order is not node_ids:
                in_factor_order = list(vertices)
                vertices = [in_factor_order[vertex] for vertex in order]
            return chain.from_iterable(chain.from_iterable(vertices))

        # an arc's target is its source vertex plus its step, read back
        # as a node id (so every target shares index_of's int objects)
        targets = map(
            add, chain.from_iterable(map(repeat, order, vertex_degrees)), flat(steps)
        )
        csr = CSRGraph(
            masks,
            dict(zip(masks, node_ids)),
            [0, *accumulate(vertex_degrees)],
            list(map(position.__getitem__, targets)),
            list(flat(weights)),
            list(flat(labels)),
            tuple(action.action_id for action in actions),
        )
        return cls(csr, actions, space.universe)

    # -- search view -----------------------------------------------------------
    def banned_view(self, banned_nodes, banned_arcs):
        """The SAG's arcs as a successor function, minus the banned ones.

        The eager counterpart of :meth:`LazySAG.banned_view`, with the
        same ban sets (masks, and ``(source_mask, action_id)`` pairs);
        the planner's k-best spurs search the built SAG through it.  A
        vertex's ``(action_id, cost, next_mask)`` arcs are read straight
        off the CSR arrays, in edge order — the arcs
        :meth:`LazySAG.successors` yields for that mask, in the same
        order, since both walk the compiled actions in library order and
        keep the results that are safe.  So a search relaxes the same
        edges in the same sequence over either view.
        """
        successors = self._successors
        if successors is None:
            successors = self._successors = self._arc_reader()
        return _filtered(successors, banned_nodes, banned_arcs)

    def _arc_reader(self) -> Callable[[int], Iterator[Tuple[str, float, int]]]:
        csr = self._csr
        index_of = csr.index_of
        offsets = csr.offsets
        weights = csr.weights
        # per-edge label and target mask, so one vertex's arcs are three
        # slices zipped together (no per-arc tuple is kept)
        labels = [csr.labels[label] for label in csr.label_ids]
        nodes = csr.nodes
        next_masks = [nodes[target] for target in csr.targets]

        def successors(mask: int) -> Iterator[Tuple[str, float, int]]:
            index = index_of[mask]
            start = offsets[index]
            stop = offsets[index + 1]
            return zip(labels[start:stop], weights[start:stop], next_masks[start:stop])

        return successors

    # -- structure -------------------------------------------------------------
    @property
    def csr(self) -> CSRGraph:
        """The mask-node CSR arrays every planner query runs on."""
        return self._csr

    @property
    def graph(self) -> Digraph:
        """The SAG as a :class:`Digraph` over configurations (built on first read)."""
        if self._graph is None:
            graph: Digraph = Digraph()
            for config in self._configs():
                graph.add_node(config)
            for source, label, target in self.edge_list():
                graph.add_edge(source, target, label, self._actions.get(label).cost)
            self._graph = graph
        return self._graph

    @property
    def actions(self) -> ActionLibrary:
        return self._actions

    @property
    def node_count(self) -> int:
        return self._csr.node_count

    @property
    def edge_count(self) -> int:
        return self._csr.edge_count

    def _configs(self) -> Tuple[Configuration, ...]:
        """Vertex configurations in node order."""
        return tuple(map(self._universe.from_mask, self._csr.nodes))

    def _out_arcs(self, config: Configuration) -> Iterator[Tuple[str, Configuration]]:
        """``(action id, target)`` per arc leaving *config*, in edge order."""
        csr = self._csr
        try:
            index = csr.index_of.get(self._universe.mask_of(config))
        except UnknownComponentError:
            return
        if index is not None:
            for edge_id in range(csr.offsets[index], csr.offsets[index + 1]):
                target = csr.nodes[csr.targets[edge_id]]
                yield csr.edge_label(edge_id), self._universe.from_mask(target)

    def __contains__(self, config: Configuration) -> bool:
        try:
            return self._universe.mask_of(config) in self._csr.index_of
        except UnknownComponentError:
            return False

    def steps_from(self, config: Configuration) -> Tuple[Tuple[AdaptiveAction, Configuration], ...]:
        """Outgoing adaptation steps: (action, resulting configuration)."""
        return tuple(
            (self._actions.get(label), target) for label, target in self._out_arcs(config)
        )

    def has_step(self, source: Configuration, target: Configuration) -> bool:
        return bool(self.step_actions(source, target))

    def step_actions(self, source: Configuration, target: Configuration) -> Tuple[str, ...]:
        """Ids of every action realizing the arc source→target (parallel arcs)."""
        return tuple(label for label, to in self._out_arcs(source) if to == target)

    def edge_list(self) -> List[Tuple[Configuration, str, Configuration]]:
        """All arcs as (source, action id, target), deterministic order."""
        return [
            (source, label, target)
            for source in self._configs()
            for label, target in self._out_arcs(source)
        ]

    def to_dot(
        self,
        universe=None,
        highlight_path: Optional[Iterable[Tuple[Configuration, str, Configuration]]] = None,
        title: str = "Safe Adaptation Graph",
    ) -> str:
        """Render the SAG in Graphviz DOT — a regeneration of Figure 4.

        Args:
            universe: optional :class:`ComponentUniverse` for bit-vector
                node labels (member-list labels otherwise).
            highlight_path: arcs to emphasize (e.g. the MAP's
                ``(source, action id, target)`` triples).
            title: graph label.
        """
        def node_label(config: Configuration) -> str:
            if universe is not None:
                return f"{universe.to_bits(config)}\\n{config.label()}"
            return config.label()

        def node_id(config: Configuration) -> str:
            if universe is not None:
                return f"n{universe.to_bits(config)}"
            return "n" + "_".join(sorted(config.members))

        highlighted = {
            (source, action_id, target)
            for source, action_id, target in highlight_path or ()
        }
        lines = [
            "digraph SAG {",
            f'  label="{title}";',
            "  rankdir=LR;",
            '  node [shape=box, style=rounded, fontname="Helvetica"];',
        ]
        for config in sorted(self._configs(), key=lambda c: sorted(c.members)):
            lines.append(f'  {node_id(config)} [label="{node_label(config)}"];')
        for source, label, target in self.edge_list():
            action = self._actions.get(label)
            style = ""
            if (source, label, target) in highlighted:
                style = ", color=red, penwidth=2.5, fontcolor=red"
            lines.append(
                f"  {node_id(source)} -> {node_id(target)} "
                f'[label="{label} ({action.cost:g})"{style}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SafeAdaptationGraph(nodes={self.node_count}, edges={self.edge_count})"
