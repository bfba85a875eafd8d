"""The machine-applicable fix engine (``repro lint --fix``).

For every fixable code: the fix clears its own finding, and the result
is a fixed point — running :func:`fix_text` on its own output changes
nothing.  Plus the ``[conflicts]`` plumbing the SA6xx serialization fix
relies on: manifest round-trip and planner honoring declared pairs.
"""

import json

import pytest

from repro.core.collaborative import collaborative_sets
from repro.lint import (
    apply_edits,
    fix_text,
    lint_text,
    render_json,
    render_sarif,
    unified_diff,
)
from repro.lint.fixes import Edit
from repro.manifest import dumps, loads
from repro.span import Span


def codes_of(report, code):
    return [d for d in report if d.code == code]


def assert_fix_clears(text, code):
    """The contract every fixable code honors: clear + idempotent."""
    assert codes_of(lint_text(text), code), f"{code} did not fire"
    fixed, applied = fix_text(text)
    assert applied > 0
    assert not codes_of(lint_text(fixed), code), f"{code} survived --fix"
    again, more = fix_text(fixed)
    assert more == 0
    assert again == fixed
    return fixed


class TestApplyEdits:
    def test_column_splice(self):
        text = "alpha beta gamma\n"
        out = apply_edits(text, [Edit(Span(1, 7, 1, 12), "BETA ")])
        assert out == "alpha BETA gamma\n"

    def test_whole_line_deletion(self):
        text = "one\ntwo\nthree\n"
        out = apply_edits(text, [Edit(Span(2, 1, 2, 4), "")])
        assert out == "one\nthree\n"

    def test_end_of_file_insertion(self):
        text = "one\n"
        out = apply_edits(text, [Edit(Span(2, 1, 2, 1), "\n[conflicts]\np : a b\n")])
        assert out == "one\n\n[conflicts]\np : a b\n"

    def test_edits_apply_bottom_up(self):
        text = "aa\nbb\ncc\n"
        out = apply_edits(
            text,
            [Edit(Span(1, 1, 1, 3), ""), Edit(Span(3, 1, 3, 3), "")],
        )
        assert out == "bb\n"

    def test_tied_edits_keep_input_order(self):
        eof = Span(2, 1, 2, 1)
        first = Edit(eof, "\n[conflicts]\np : a b\n")
        second = Edit(eof, "q : c d\n")
        assert apply_edits("one\n", [first, second, first]) == (
            "one\n\n[conflicts]\np : a b\nq : c d\n"
        )
        assert apply_edits("one\n", [second, first]) == (
            "one\nq : c d\n\n[conflicts]\np : a b\n"
        )


class TestFixableCodes:
    def test_sa105_duplicate_component(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nA @ p1 : twice\n", "SA105"
        )
        assert fixed.count("A @ p1") == 1

    def test_sa106_duplicate_action(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nB @ p1\n"
            "[actions]\nswap : A -> B @ 5\nswap : A -> B @ 5\n",
            "SA106",
        )
        assert fixed.count("swap :") == 1

    def test_sa107_shadowed_configuration_keeps_the_winner(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nB @ p1\n"
            "[actions]\nswap : A -> B @ 5\nunswap : B -> A @ 5\n"
            "[configurations]\nstart = A\nstart = B\n",
            "SA107",
        )
        # the scanner keeps the later definition; the fix deletes the
        # shadowed first one, so the meaning is unchanged
        assert "start = B" in fixed
        assert "start = A" not in fixed

    def test_sa108_unused_component_bit_splice(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nB @ p1\nZ @ p1\n"
            "[actions]\nswap : A -> B @ 1\nunswap : B -> A @ 1\n"
            "[configurations]\nstart = 100\ngoal = 010\n",
            "SA108",
        )
        assert "Z @ p1" not in fixed
        # the Z bit is spliced out of every full-width bit vector
        assert "start = 10" in fixed
        assert "goal = 01" in fixed

    def test_sa301_dead_action(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nD @ p1\n"
            "[invariants]\nanchor : D\n"
            "[actions]\ndead : -D @ 2\nlive : +A @ 1\n"
            "[configurations]\nstart = A, D\n",
            "SA301",
        )
        assert "dead :" not in fixed

    def test_sa302_dominated_action(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nB @ p1\n"
            "[actions]\nswap : A -> B @ 5\nswap2 : A -> B @ 8\n"
            "[configurations]\nstart = A\n",
            "SA302",
        )
        assert "swap2" not in fixed

    def test_sa601_serializes_the_racing_pair(self):
        fixed = assert_fix_clears(
            "[components]\nFW @ edge\nCA @ core\n"
            "[invariants]\nguarded : CA -> FW\n"
            "[actions]\ndrop_fw : -FW @ 5\ndrop_cache : -CA @ 5\n"
            "[configurations]\nbaseline = FW, CA\n",
            "SA601",
        )
        assert "[conflicts]" in fixed
        assert "drop_cache_drop_fw : drop_cache drop_fw" in fixed

    def test_sa602_serializes_the_overlapping_pair(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nB @ p2\nC @ p3\n"
            "[actions]\nleft : A -> B @ 1\nright : B -> C @ 1\n"
            "[configurations]\nstart = A\n",
            "SA602",
        )
        assert "[conflicts]" in fixed

    def test_sa604_serializes_the_conflicting_pair(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nB @ p1\n"
            "[actions]\ngrow : +A @ 1\nmigrate : A -> B @ 1\n"
            "[configurations]\nstart = A\n",
            "SA604",
        )
        assert "grow_migrate : grow migrate" in fixed

    def test_sa606_deletes_the_dangling_conflicts_entry(self):
        fixed = assert_fix_clears(
            "[components]\nA @ p1\nB @ p1\n"
            "[actions]\nswap : A -> B @ 1\n"
            "[conflicts]\nghost : swap nosuch\n",
            "SA606",
        )
        assert "nosuch" not in fixed

    def test_defective_fixture_reaches_a_fixed_point(self):
        text = open(
            "tests/lint/fixtures/defective.manifest", encoding="utf-8"
        ).read()
        fixed, applied = fix_text(text)
        assert applied > 0
        again, more = fix_text(fixed)
        assert more == 0
        assert again == fixed
        # every fixable code is gone from the fixed text
        report = lint_text(fixed)
        for code in (
            "SA105", "SA106", "SA107", "SA108",
            "SA301", "SA302", "SA601", "SA602", "SA604", "SA606",
        ):
            assert not codes_of(report, code), f"{code} survived --fix"


class TestRenderedFixes:
    RACY = (
        "[components]\nA @ p1\nB @ p1\n"
        "[actions]\ngrow : +A @ 1\nmigrate : A -> B @ 1\n"
        "[configurations]\nstart = A\n"
    )

    def test_json_carries_fix_edits(self):
        report = lint_text(self.RACY, path="racy.manifest")
        payload = json.loads(render_json(report))
        [racy] = [d for d in payload["diagnostics"] if d["code"] == "SA604"]
        [fix] = racy["fixes"]
        assert "serialize" in fix["description"]
        assert fix["edits"][0]["replacement"].startswith("\n[conflicts]")

    def test_sarif_carries_fixes(self):
        report = lint_text(self.RACY, path="racy.manifest")
        document = json.loads(render_sarif(report))
        [run] = document["runs"]
        [racy] = [
            r for r in run["results"] if r["ruleId"] == "SA604"
        ]
        [fix] = racy["fixes"]
        [change] = fix["artifactChanges"]
        assert change["artifactLocation"]["uri"] == "racy.manifest"
        [replacement] = change["replacements"]
        assert replacement["insertedContent"]["text"].startswith(
            "\n[conflicts]"
        )

    def test_unified_diff_names_the_file(self):
        fixed, _ = fix_text(self.RACY)
        diff = unified_diff(self.RACY, fixed, path="racy.manifest")
        assert diff.startswith("--- racy.manifest")
        assert "+[conflicts]" in diff


class TestConflictsSection:
    TEXT = (
        "[components]\nA @ p1\nB @ p1\nC @ p2\n"
        "[actions]\ngrow : +A @ 1\nshift : B -> C @ 1\n"
        "[configurations]\nstart = A, B\n"
        "[conflicts]\nreviewed : grow shift\n"
    )

    def test_round_trips_through_dumps_and_loads(self):
        manifest = loads(self.TEXT)
        assert manifest.conflicts == (("grow", "shift"),)
        again = loads(dumps(manifest))
        assert again.conflicts == manifest.conflicts

    def test_strict_load_rejects_unknown_actions(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            loads(self.TEXT.replace("grow shift", "grow nosuch"))

    def test_planner_unions_the_pair_into_one_collaborative_set(self):
        manifest = loads(self.TEXT)
        merged = collaborative_sets(
            manifest.universe,
            manifest.invariants,
            manifest.actions,
            conflicts=manifest.conflicts,
        )
        assert frozenset({"A", "B", "C"}) in merged
        free = collaborative_sets(
            manifest.universe, manifest.invariants, manifest.actions
        )
        assert frozenset({"A"}) in free
        # the planner threads the declared pairs through to §7 planning
        assert manifest.planner().conflicts == manifest.conflicts
