"""The Safe Adaptation Graph (paper §3.1, §4.2 step 2).

"We can construct a safe adaptation graph (SAG), where vertices are all
safe configurations and arcs are all possible adaptation steps connecting
safe configurations."  An arc (config1, config2) exists iff both endpoints
are safe and some adaptive action maps config1 to config2; the arc weight
is that action's cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction
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

    Actions touching components outside the universe are skipped up
    front, exactly as the eager build skips them (their result always
    leaves the universe, so they can never connect two vertices).

    Per-mask adjacency is cached: the A* probe and the exact replay in
    ``lazy_plan`` pay the applicability/safety checks once per frontier
    node, and repeated point queries against the same spec stay warm.
    *space* may be an eager :class:`SafeConfigurationSpace` or a
    :class:`~repro.core.space.LazySafeSpace` — anything with a
    ``universe`` and the memoized ``is_safe_mask`` /
    ``are_safe_masks`` query pair.
    """

    def __init__(self, space, actions: ActionLibrary):
        self._space = space
        self._actions = actions
        self.universe = space.universe
        self._arc_specs = tuple(
            (action.action_id, action.cost, masked)
            for masked, action in zip(actions.compiled_for(self.universe), actions)
            if masked is not None
        )
        self._adjacency: Dict[int, Tuple[Tuple[str, float, int], ...]] = {}

    @property
    def expanded_nodes(self) -> int:
        """Distinct masks whose adjacency has been generated so far."""
        return len(self._adjacency)

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
        ``(source_mask, action_id)`` pairs — the lazy mirror of the
        banned node/edge-id sets Yen's spur queries pass to
        :func:`repro.graphs.csr.k_shortest_paths_csr` (an action id
        identifies at most one arc out of a given mask, so the pair bans
        exactly what banning the CSR edge ids with that label does).
        Filtering preserves the underlying arc order, so a search driven
        by the view relaxes the surviving edges in the same sequence the
        eager banned-set Dijkstra does; the per-mask adjacency cache is
        shared with unfiltered traversals.
        """
        if not banned_nodes and not banned_arcs:
            return self.successors
        successors = self.successors

        def view(mask: int):
            for action_id, cost, result in successors(mask):
                if result in banned_nodes or (mask, action_id) in banned_arcs:
                    continue
                yield action_id, cost, result

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

    @classmethod
    def build(
        cls,
        space: SafeConfigurationSpace,
        actions: ActionLibrary,
        restrict_to: Optional[Iterable[Configuration]] = None,
    ) -> "SafeAdaptationGraph":
        """Materialize the SAG straight into CSR arrays.

        One pass over ``(vertex mask x maskable action)``: applicability,
        application and the target lookup are each a couple of int ops on
        precompiled masks.  Nodes keep vertex order (ascending masks for
        the full safe set) and each vertex's arcs keep action-library
        order.  Actions touching components outside the universe can
        never connect two vertices (their result always leaves the
        universe), so they are skipped.

        Args:
            space: the safe-configuration space (provides the vertices).
            actions: the available adaptive actions (provide the arcs).
            restrict_to: optional vertex subset of the universe's
                configurations; defaults to the full safe set
                ``space.enumerate_masks()``.

        Raises:
            UnknownComponentError: a *restrict_to* vertex names a
                component outside the universe (it has no mask).
        """
        universe = space.universe
        if restrict_to is None:
            masks = space.enumerate_masks()
        else:
            masks = tuple(dict.fromkeys(map(universe.mask_of, restrict_to)))
        index_of = {mask: i for i, mask in enumerate(masks)}
        # an action applies iff the mask holds every required bit and no
        # forbidden one (one AND, one compare); the bits it clears are
        # required and the bits it sets forbidden, so applying is one XOR
        arc_specs = [
            (index, masked.required | masked.forbidden, masked.required,
             masked.clear | masked.set_bits, action.cost)
            for index, (masked, action) in enumerate(
                zip(actions.compiled_for(universe), actions)
            )
            if masked is not None
        ]
        offsets = [0]
        targets: List[int] = []
        weights: List[float] = []
        label_ids: List[int] = []
        get_target = index_of.get
        for mask in masks:
            for index, care, required, flip, cost in arc_specs:
                if mask & care == required:
                    target = get_target(mask ^ flip)
                    if target is not None:
                        targets.append(target)
                        weights.append(cost)
                        label_ids.append(index)
            offsets.append(len(targets))
        labels = tuple(action.action_id for action in actions)
        csr = CSRGraph(masks, index_of, offsets, targets, weights, label_ids, labels)
        return cls(csr, actions, universe)

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
