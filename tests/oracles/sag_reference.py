"""Reference Safe Adaptation Graph builders (slow oracles).

Two builds the product used before the SAG was composed from per-set
factors (:meth:`repro.core.sag.SafeAdaptationGraph.build`):

* :class:`ReferenceSAG` — the Digraph-based build: every vertex is a
  :class:`Configuration` and every arc a :class:`~repro.graphs.Edge`.
  ``tests/core/test_sag_oracle.py`` pins the product to
  it: vertex order, per-source arc order, labels, weights, and the
  rendered queries;
* :func:`vertex_action_build` — the one-pass ``(vertex mask x maskable
  action)`` loop that wrote the CSR arrays directly (|S|·|A| tests).
  ``tests/core/test_factored_build.py`` pins the product's arrays to it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.model import Configuration
from repro.core.sag import SafeAdaptationGraph
from repro.core.space import SafeConfigurationSpace
from repro.graphs import CSRGraph, Digraph
from tests.oracles.graph_reference import edge_labels, has_edge, out_edges


def vertex_action_build(
    space: SafeConfigurationSpace,
    actions: ActionLibrary,
    masks: Optional[Sequence[int]] = None,
) -> SafeAdaptationGraph:
    """The SAG written into CSR arrays by one vertex × action pass.

    *masks* are the vertices (default ``space.enumerate_masks()``); a
    test passes the backtracking oracle's to keep the whole pipeline
    independent of the product build.
    """
    universe = space.universe
    if masks is None:
        masks = space.enumerate_masks()
    masks = tuple(masks)
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
    return SafeAdaptationGraph(csr, actions, universe)


class ReferenceSAG:
    """The Digraph-based SAG: one Edge object per arc, Configuration nodes."""

    def __init__(self, graph: Digraph, actions: ActionLibrary):
        self._graph = graph
        self._actions = actions

    @classmethod
    def build(
        cls,
        space: SafeConfigurationSpace,
        actions: ActionLibrary,
    ) -> "ReferenceSAG":
        """Materialize the SAG.

        Args:
            space: the safe-configuration space (provides the vertices,
                ``space.enumerate()``).
            actions: the available adaptive actions (provide the arcs).
        """
        vertices: Tuple[Configuration, ...] = space.enumerate()
        graph: Digraph = Digraph()
        for config in vertices:
            graph.add_node(config)
        universe = space.universe
        vertex_masks = [universe.mask_of(config) for config in vertices]
        # Bitmask fast path: the O(|V|·|A|) loop runs on precompiled
        # integer masks — applicability, application, and the target
        # lookup are each a couple of int ops.  Actions touching
        # components outside the universe can never connect two vertices
        # (their result always leaves the universe), so they are skipped,
        # exactly as the set-based build would skip them.
        config_by_mask = dict(zip(vertex_masks, vertices))
        masked_actions = [
            (masked, action)
            for masked, action in zip(actions.compiled_for(universe), actions)
            if masked is not None
        ]
        add_edge = graph.add_edge
        get_target = config_by_mask.get
        for config, mask in zip(vertices, vertex_masks):
            for masked, action in masked_actions:
                required = masked.required
                if (mask & required) == required and not (mask & masked.forbidden):
                    target = get_target((mask & ~masked.clear) | masked.set_bits)
                    if target is not None:
                        add_edge(config, target, action.action_id, action.cost)
        return cls(graph, actions)

    # -- structure -------------------------------------------------------------
    @property
    def graph(self) -> Digraph:
        return self._graph

    @property
    def actions(self) -> ActionLibrary:
        return self._actions

    @property
    def node_count(self) -> int:
        return self._graph.node_count

    @property
    def edge_count(self) -> int:
        return self._graph.edge_count

    def __contains__(self, config: Configuration) -> bool:
        return config in self._graph

    def steps_from(self, config: Configuration) -> Tuple[Tuple[AdaptiveAction, Configuration], ...]:
        """Outgoing adaptation steps: (action, resulting configuration)."""
        return tuple(
            (self._actions.get(edge.label), edge.target)
            for edge in out_edges(self._graph, config)
        )

    def has_step(self, source: Configuration, target: Configuration) -> bool:
        return has_edge(self._graph, source, target)

    def step_actions(self, source: Configuration, target: Configuration) -> Tuple[str, ...]:
        """Ids of every action realizing the arc source→target (parallel arcs)."""
        return edge_labels(self._graph, source, target)

    def edge_list(self) -> List[Tuple[Configuration, str, Configuration]]:
        """All arcs as (source, action id, target), deterministic order."""
        return [
            (edge.source, edge.label, edge.target) for edge in self._graph.edges()
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

        highlighted = set()
        for src, action_id, dst in highlight_path or ():
            highlighted.add((src, action_id, dst))
        lines = [
            "digraph SAG {",
            f'  label="{title}";',
            "  rankdir=LR;",
            '  node [shape=box, style=rounded, fontname="Helvetica"];',
        ]
        for config in sorted(self._graph.nodes(), key=lambda c: sorted(c.members)):
            lines.append(f'  {node_id(config)} [label="{node_label(config)}"];')
        for edge in self._graph.edges():
            action = self._actions.get(edge.label)
            style = ""
            if (edge.source, edge.label, edge.target) in highlighted:
                style = ", color=red, penwidth=2.5, fontcolor=red"
            lines.append(
                f"  {node_id(edge.source)} -> {node_id(edge.target)} "
                f'[label="{edge.label} ({action.cost:g})"{style}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ReferenceSAG(nodes={self.node_count}, edges={self.edge_count})"
