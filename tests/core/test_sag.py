"""Unit tests for the Safe Adaptation Graph (Figure 4)."""

import pytest



@pytest.fixture
def sag(planner):
    return planner.sag


class TestStructure:
    def test_nodes_are_safe_configurations(self, sag, planner):
        assert sag.node_count == 8
        for config in planner.space.enumerate():
            assert config in sag

    def test_every_edge_connects_safe_configs_via_valid_action(self, sag, planner):
        for src, action_id, dst in sag.edge_list():
            action = planner.actions.get(action_id)
            assert planner.space.is_safe(src)
            assert planner.space.is_safe(dst)
            assert action.is_applicable(src)
            assert action.apply(src) == dst

    def test_no_edge_to_unsafe_result(self, sag, planner, universe):
        # A5 (D4→D5) from {D1,D4,E1} gives {D1,D5,E1}: unsafe (E1 needs D4).
        source = universe.from_bits("0100101")
        assert "A5" not in {a.action_id for a, _ in sag.steps_from(source)}


class TestFigure4:
    """The arcs explicitly drawn in Figure 4 must all be present."""

    FIGURE4_ARCS = [
        # (source bits, action, target bits)
        ("0100101", "A2", "0101001"),
        ("0100101", "A13", "1001010"),
        ("0100101", "A14", "1010010"),
        ("0100101", "A17", "1100101"),
        ("0101001", "A9", "1001010"),
        ("0101001", "A15", "1010010"),
        ("0101001", "A17", "1101001"),
        ("1001010", "A4", "1010010"),
        ("1100101", "A2", "1101001"),
        ("1100101", "A7", "1110010"),
        ("1101001", "A1", "1101010"),
        ("1101010", "A4", "1110010"),
        ("1101010", "A16", "1001010"),
        ("1110010", "A16", "1010010"),
    ]

    def test_all_drawn_arcs_exist(self, sag, universe):
        for src_bits, action_id, dst_bits in self.FIGURE4_ARCS:
            src = universe.from_bits(src_bits)
            dst = universe.from_bits(dst_bits)
            assert action_id in sag.step_actions(src, dst), (
                src_bits, action_id, dst_bits
            )

    def test_edge_count(self, sag):
        # The SAG definition admits 16 arcs; Figure 4 draws 14 of them
        # (A6 from 1100101 and A8 from 1101001 are valid but not drawn —
        # see EXPERIMENTS.md).
        assert sag.edge_count == 16

    def test_undrawn_but_valid_arcs(self, sag, universe):
        assert "A6" in sag.step_actions(
            universe.from_bits("1100101"), universe.from_bits("1101010")
        )
        assert "A8" in sag.step_actions(
            universe.from_bits("1101001"), universe.from_bits("1110010")
        )


class TestQueries:
    def test_steps_from(self, sag, universe):
        steps = sag.steps_from(universe.from_bits("0100101"))
        ids = {action.action_id for action, _ in steps}
        assert ids == {"A2", "A13", "A14", "A17"}

    def test_has_step(self, sag, universe):
        assert sag.has_step(
            universe.from_bits("0100101"), universe.from_bits("0101001")
        )
        assert not sag.has_step(
            universe.from_bits("1010010"), universe.from_bits("0100101")
        )


class TestDotExport:
    def test_dot_structure(self, sag, universe):
        dot = sag.to_dot(universe=universe)
        assert dot.startswith("digraph SAG")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == sag.edge_count
        assert 'n0100101 [label="0100101\\n{D1,D4,E1}"];' in dot
        assert 'label="A14 (150)"' in dot

    def test_dot_without_universe_uses_member_labels(self, sag):
        dot = sag.to_dot()
        assert '{D1,D4,E1}' in dot
        assert "n0100101" not in dot

    def test_dot_highlights_map(self, sag, planner, source, target, universe):
        plan = planner.plan(source, target)
        highlight = [
            (step.source, step.action.action_id, step.target)
            for step in plan.steps
        ]
        dot = sag.to_dot(universe=universe, highlight_path=highlight)
        assert dot.count(", color=red,") == len(plan.steps)
