"""The Safe Adaptation Graph (paper §3.1, §4.2 step 2).

"We can construct a safe adaptation graph (SAG), where vertices are all
safe configurations and arcs are all possible adaptation steps connecting
safe configurations."  An arc (config1, config2) exists iff both endpoints
are safe and some adaptive action maps config1 to config2; the arc weight
is that action's cost.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, chain, product, repeat
from operator import add
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction, MaskedAction
from repro.core.collaborative import FactoredSAG, sag_factors
from repro.core.model import ComponentUniverse, Configuration
from repro.core.space import SafeConfigurationSpace
from repro.errors import UnknownComponentError
from repro.graphs import CSRGraph, Digraph

#: one vertex's outgoing arcs, ``(action_id, cost, next_mask)`` each
Arcs = Iterable[Tuple[str, float, int]]


class LazySAG:
    """Successor generator over the *implicit* SAG (§7).

    For a safe mask, :attr:`successors` yields the ``(action_id, cost,
    next_mask)`` arcs that :meth:`SafeAdaptationGraph.build` would insert
    for that vertex — same arcs, same action-library order — without
    ever enumerating the safe space or materializing the graph.  A search
    driven by it therefore relaxes edges in exactly the sequence the
    eager CSR solver does, which is what makes the planner's banned
    searches break ties as they would over the built SAG.

    :attr:`successors` is one arc function, chosen when the generator is
    made and never cached per mask:

    * given a *cap* under which every factor with actions fits, the
      :class:`~repro.core.collaborative.FactoredSAG`'s, which looks each
      factor's projection up in its sub-SAG (memory stays that of the
      factors, however many queries run);
    * otherwise the compiled per-mask test: every compiled action is
      tested against the mask and the results are safety-checked
      through the space's bool memo.

    Both yield the same arcs in the same order.  A search that revisits
    masks (Yen's spurs) memoizes them itself, for that one query.

    Actions touching components outside the universe are skipped up
    front, exactly as the eager build skips them (their result always
    leaves the universe, so they can never connect two vertices).
    """

    def __init__(
        self, space: SafeConfigurationSpace, actions: ActionLibrary, cap: Optional[int] = None
    ):
        self._space = space
        self.universe = space.universe
        self._factored = None if cap is None else FactoredSAG.fitting(space, actions, cap)
        self._expansions = 0
        self._arc_specs: Tuple[Tuple[str, float, MaskedAction], ...] = ()
        self.successors: Callable[[int], Arcs] = self._compiled_successors
        if self._factored is not None:
            self.successors = self._factored.successors
        else:
            self._arc_specs = tuple(
                (action.action_id, action.cost, masked)
                for masked, action in zip(actions.compiled_for(self.universe), actions)
                if masked is not None
            )

    @property
    def expanded_nodes(self) -> int:
        """Calls of :attr:`successors` so far."""
        factored = self._factored
        return self._expansions if factored is None else factored.expanded_nodes

    def _compiled_successors(self, mask: int) -> List[Tuple[str, float, int]]:
        """Outgoing arcs of *mask*, in SAG edge-insertion order.

        Applicability is resolved per action, then the surviving result
        masks are safety-checked in **one batched**
        :meth:`~repro.core.space.SafeConfigurationSpace.are_safe_masks`
        call — same verdicts, same arc order, one memo/closure dispatch
        per expansion instead of one per candidate arc.
        """
        self._expansions += 1
        candidates = []
        for action_id, cost, masked in self._arc_specs:
            required = masked.required
            if (mask & required) == required and not (mask & masked.forbidden):
                result = (mask & ~masked.clear) | masked.set_bits
                candidates.append((action_id, cost, result))
        verdicts = self._space.are_safe_masks([candidate[2] for candidate in candidates])
        return [candidate for candidate, safe in zip(candidates, verdicts) if safe]


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
    @cached_property
    def successors(self) -> Callable[[int], Iterator[Tuple[str, float, int]]]:
        """The SAG's arcs as a successor function (made on first read).

        A vertex's ``(action_id, cost, next_mask)`` arcs are read straight
        off the CSR arrays, in edge order — the arcs
        :attr:`LazySAG.successors` yields for that mask, in the same
        order, since both walk the compiled actions in library order and
        keep the results that are safe.  So a search relaxes the same
        edges in the same sequence over either; the planner's k-best
        spurs below the cap search the built SAG through it.
        """
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
