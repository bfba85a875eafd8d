"""Tests for dependency impact analysis."""

import pytest

from repro.core.analysis import (
    affected_components,
    blast_radii,
    blast_radius,
    impact_report,
    invariants_at_risk,
)
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse


class TestInvariantsAtRisk:
    def test_only_touching_invariants_flagged(self, invariants, actions):
        at_risk = invariants_at_risk(invariants, actions.get("A1"))  # E1→E2
        names = {inv.name for inv in at_risk}
        assert "security constraint" in names
        assert any("E1" in n or "E2" in n for n in names)
        assert "resource constraint" not in names  # only decoders

    def test_decoder_swap(self, invariants, actions):
        at_risk = invariants_at_risk(invariants, actions.get("A2"))  # D1→D2
        names = {inv.name for inv in at_risk}
        assert "resource constraint" in names
        assert "security constraint" not in names

    def test_unrelated_action_risks_nothing(self):
        invariants = InvariantSet.of("A -> B")
        from repro.core.actions import AdaptiveAction

        action = AdaptiveAction.insert("x", "Z", 1)
        assert invariants_at_risk(invariants, action) == ()


class TestAffectedClosure:
    def test_transitive_coupling(self):
        # A—B coupled by one invariant, B—C by another; touching A reaches C.
        invariants = InvariantSet.of("A -> B", "B -> C")
        from repro.core.actions import AdaptiveAction

        closure = affected_components(invariants, AdaptiveAction.remove("r", "A", 1))
        assert closure == frozenset({"A", "B", "C"})

    def test_disconnected_components_excluded(self):
        invariants = InvariantSet.of("A -> B", "X -> Y")
        from repro.core.actions import AdaptiveAction

        closure = affected_components(invariants, AdaptiveAction.remove("r", "A", 1))
        assert "X" not in closure and "Y" not in closure

    def test_video_system_is_fully_coupled(self, invariants, actions):
        # the §5 invariants couple all seven components
        closure = affected_components(invariants, actions.get("A2"))
        assert closure >= {"D1", "D2", "D3", "E1", "E2", "D4", "D5"}


class TestBlastRadius:
    def test_single_process_action_small_radius_in_toy(self):
        universe = ComponentUniverse.from_names(
            ["A", "B", "X"], {"A": "p1", "B": "p1", "X": "p2"}
        )
        invariants = InvariantSet.of("A -> B")
        from repro.core.actions import AdaptiveAction

        radius = blast_radius(universe, invariants, AdaptiveAction.remove("r", "A", 1))
        assert radius == frozenset({"p1"})

    def test_video_blast_radius_spans_all_processes(self, universe, invariants, actions):
        radius = blast_radius(universe, invariants, actions.get("A2"))
        assert radius == frozenset({"server", "handheld", "laptop"})


class TestBlastRadii:
    def test_matches_the_per_action_fixpoint_on_the_video_library(
        self, universe, invariants, actions
    ):
        assert list(blast_radii(universe, invariants, actions)) == [
            blast_radius(universe, invariants, action) for action in actions
        ]

    def test_atoms_outside_the_universe_bridge_two_groups(self):
        # GHOST is no component, yet A -> GHOST and GHOST -> B couple A
        # with B exactly as the fixpoint does
        from repro.core.actions import AdaptiveAction

        universe = ComponentUniverse.from_names(
            ["A", "B", "X"], {"A": "p1", "B": "p2", "X": "p3"}
        )
        invariants = InvariantSet.of("A -> GHOST", "GHOST -> B", "true")
        library = [
            AdaptiveAction.remove("ra", "A", 1),
            AdaptiveAction.insert("ix", "X", 1),
        ]
        radii = blast_radii(universe, invariants, library)
        assert radii == (frozenset({"p1", "p2"}), frozenset({"p3"}))
        assert list(radii) == [
            blast_radius(universe, invariants, action) for action in library
        ]


class TestReport:
    def test_report_contents(self, universe, invariants, actions):
        text = impact_report(universe, invariants, actions.get("A16"))
        assert "action A16" in text
        assert "-D4" in text
        assert "participants" in text and "laptop" in text
        assert "blast radius" in text
