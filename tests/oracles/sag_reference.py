"""Reference Safe Adaptation Graph builder (slow oracle).

The Digraph-based build the product used before the SAG was written
straight into CSR arrays: every vertex is a :class:`Configuration`, every
arc a :class:`~repro.graphs.Edge`, and vertices outside the universe fall
back to set-based arc construction.  The differential suite in
``tests/core/test_sag_oracle.py`` pins the array-built
:class:`repro.core.sag.SafeAdaptationGraph` to it: vertex order,
per-source arc order, labels, weights, and the rendered queries.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.model import Configuration
from repro.core.space import SafeConfigurationSpace
from repro.errors import UnknownComponentError
from repro.graphs import Digraph


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
        restrict_to: Optional[Iterable[Configuration]] = None,
    ) -> "ReferenceSAG":
        """Materialize the SAG.

        Args:
            space: the safe-configuration space (provides vertices and the
                safety test for action results).
            actions: the available adaptive actions (provide the arcs).
            restrict_to: optional vertex subset; defaults to the full safe
                set ``space.enumerate()``.
        """
        if restrict_to is None:
            vertices: Tuple[Configuration, ...] = space.enumerate()
        else:
            vertices = tuple(restrict_to)
        graph: Digraph = Digraph()
        for config in vertices:
            graph.add_node(config)
        universe = space.universe
        try:
            vertex_masks = [universe.mask_of(config) for config in vertices]
        except UnknownComponentError:
            # Vertices outside the universe (caller-supplied restrict_to)
            # have no bit encoding; keep the set-based build for them.
            cls._build_arcs_setwise(graph, vertices, actions)
            return cls(graph, actions)
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

    @staticmethod
    def _build_arcs_setwise(
        graph: Digraph,
        vertices: Tuple[Configuration, ...],
        actions: ActionLibrary,
    ) -> None:
        """Reference arc construction over frozensets (fallback path)."""
        vertex_set = set(vertices)
        for config in vertices:
            for action in actions:
                if not action.is_applicable(config):
                    continue
                result = action.apply(config)
                if result in vertex_set:
                    graph.add_edge(config, result, action.action_id, action.cost)

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
            for edge in self._graph.out_edges(config)
        )

    def has_step(self, source: Configuration, target: Configuration) -> bool:
        return self._graph.has_edge(source, target)

    def step_actions(self, source: Configuration, target: Configuration) -> Tuple[str, ...]:
        """Ids of every action realizing the arc source→target (parallel arcs)."""
        return self._graph.edge_labels(source, target)

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
