"""Unit tests for the adaptation-spec static analyzer (``repro.lint``)."""

import json

import pytest

from repro.lint import (
    CODES,
    LintReport,
    Severity,
    describe_code,
    lint_path,
    lint_system,
    lint_text,
    render_json,
    render_sarif,
    render_text,
)
from repro.manifest import loads, video_manifest_text
from repro.span import Span

FIXTURE = "tests/lint/fixtures/defective.manifest"
RACING = "examples/racing.manifest"

MINIMAL = """
[components]
A @ p1
B1 @ p2
B2 @ p2

[invariants]
presence : A
exclusive : one_of(B1, B2)

[actions]
swap : B1 -> B2 @ 5
unswap : B2 -> B1 @ 5

[configurations]
start = A, B1
goal = A, B2
"""


def codes_of(report, code):
    return [d for d in report if d.code == code]


class TestDiagnosticModel:
    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.NOTE
        assert Severity.from_label("warning") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.from_label("fatal")

    def test_every_code_documented(self):
        for code in CODES:
            assert describe_code(code).startswith(code)

    def test_unregistered_code_rejected(self):
        report = LintReport()
        with pytest.raises(ValueError):
            report.add("SA999", "nope", Span(1))

    def test_fails_threshold(self):
        report = LintReport()
        report.add("SA403", "radius", Span(1))
        assert not report.fails(Severity.WARNING)
        assert report.fails(Severity.NOTE)
        report.add("SA202", "unsat", Span(2))
        assert report.fails(Severity.ERROR)


class TestCleanManifest:
    def test_minimal_is_clean(self):
        report = lint_text(MINIMAL)
        assert not report.errors
        assert not report.warnings

    def test_summary_when_empty(self):
        assert LintReport().summary() == "clean: 0 diagnostics"


class TestFixtureCoverage:
    """The seeded-defect fixture fires every registered code."""

    @pytest.fixture(scope="class")
    def report(self):
        return lint_path(FIXTURE)

    def test_every_code_fires(self, report):
        # SA307 (safe-space analysis skipped) is mutually exclusive with
        # the SA301–SA306 findings in a single report by construction —
        # it fires only when those checks do NOT run.  It is covered by
        # TestEnumerationCap below.  SA504 (inconclusive under budget)
        # likewise fires only in lazy mode with an exhausted budget; it
        # is covered by TestPropertyBudget.  SA605 (interference analysis
        # restricted) fires only above the cap — see test_lint_lazy.
        # SA601/SA603 need racing pairs that *share* a safe source, which
        # the defective fixture's invariant web forbids; they fire in
        # examples/racing.manifest, so coverage is the union of both.
        racing = lint_path(RACING)
        fired = set(report.codes()) | set(racing.codes())
        assert fired == set(CODES) - {"SA307", "SA504", "SA605"}

    def test_exit_fails_on_error(self, report):
        assert report.fails(Severity.ERROR)

    def test_spans_point_into_the_file(self, report):
        text = open(FIXTURE, encoding="utf-8").read().splitlines()
        for diagnostic in report:
            assert 1 <= diagnostic.span.line <= len(text)
            assert diagnostic.path == FIXTURE

    def test_duplicate_component_span(self, report):
        (dup,) = codes_of(report, "SA105")
        assert dup.span.line == 6
        assert dup.related[0].span.line == 5

    def test_conflicting_pair_links_both_sides(self, report):
        (conflict,) = codes_of(report, "SA203")
        assert "needs_c" in conflict.message and "no_c" in conflict.message
        assert conflict.related[0].span.line < conflict.span.line

    def test_dominated_action_names_dominator(self, report):
        (dominated,) = codes_of(report, "SA302")
        assert "swap2" in dominated.message
        assert "cost 5 < 8" in dominated.message

    def test_dead_actions(self, report):
        dead = {d.message.split("'")[1] for d in codes_of(report, "SA301")}
        assert dead == {"dead", "blackout", "stall"}

    def test_unknown_names_are_listed(self, report):
        (ghost,) = codes_of(report, "SA101")
        assert "GHOST" in ghost.message
        (phantom,) = codes_of(report, "SA102")
        assert "GHOST2" in phantom.message

    def test_width_mismatch_details(self, report):
        (width,) = codes_of(report, "SA103")
        assert "width 4" in width.message and "9 component(s)" in width.message

    def test_ccs_prefix(self, report):
        (prefix,) = codes_of(report, "SA401")
        assert "seg1" in prefix.message and "seg0" in prefix.message

    def test_property_parse_error_span_offsets_into_the_formula(self):
        # [properties] parse errors carry spans like action errors do:
        # the column points at the offending token, not at column 1
        text = "[components]\nA @ p1\n\n[properties]\nbad : once(A &\n"
        report = lint_text(text)
        (broken,) = [
            d for d in codes_of(report, "SA100") if "property" in d.message
        ]
        assert broken.span.line == 5
        # "bad : " is 6 columns; the error sits inside the formula text
        assert broken.span.column > 6


class TestRecovery:
    """Defective entries are dropped; analysis continues on the rest."""

    def test_unsat_invariant_does_not_kill_downstream(self):
        report = lint_text(
            MINIMAL + "\n[invariants]\nnever : A & !A\n"
        )
        assert codes_of(report, "SA202")
        # SA3xx still ran: the safe space of the remaining invariants
        # is non-empty and connected, so no SA305.
        assert not codes_of(report, "SA305")
        assert not codes_of(report, "SA203")

    def test_empty_space_reported_once_when_unfixable(self):
        # Three-way conflict no pairwise drop can see: each pair is
        # satisfiable, the conjunction is not.
        text = """
[components]
X
Y

[invariants]
one : X | Y
two : !X
three : !Y

[actions]
flip : X -> Y @ 1
"""
        report = lint_text(text)
        assert codes_of(report, "SA203")
        assert any("skipped" in reason for reason in report.skipped)


class TestInMemorySystem:
    def test_lint_system_on_video(self):
        manifest = loads(video_manifest_text())
        report = lint_system(manifest)
        assert not report.errors
        # The paper's own library: constituent replaces A3/A5/A10-A12
        # label no safe arc on their own (they only matter composed).
        dead = {d.message.split("'")[1] for d in codes_of(report, "SA301")}
        assert dead == {"A3", "A5", "A10", "A11", "A12"}
        # The full-system composites block every process at once.
        blocking = {d.message.split("'")[1] for d in codes_of(report, "SA402")}
        assert blocking == {"A13", "A14", "A15"}

    def test_lint_system_spans_come_from_manifest(self):
        text = video_manifest_text()
        manifest = loads(text)
        report = lint_system(manifest)
        lines = text.splitlines()
        for diagnostic in report:
            assert 1 <= diagnostic.span.line <= len(lines)


class TestEnumerationCap:
    """The configurable SA3xx cap and its explicit SA307 skip note."""

    def test_default_cap_runs_sa3xx_on_video(self):
        report = lint_text(video_manifest_text())
        assert codes_of(report, "SA301")  # safe-space analysis ran
        assert not codes_of(report, "SA307")

    def test_low_cap_skips_sa3xx_with_explicit_note(self):
        report = lint_text(video_manifest_text(), max_enum_components=3)
        assert not codes_of(report, "SA301")
        (note,) = codes_of(report, "SA307")
        assert note.severity is Severity.NOTE
        assert "7 components" in note.message
        assert "3-component" in note.message
        # the legacy skip line is kept alongside the diagnostic
        assert any("SA3xx skipped" in reason for reason in report.skipped)

    def test_raised_cap_reenables_sa3xx(self):
        low = lint_text(video_manifest_text(), max_enum_components=6)
        assert codes_of(low, "SA307")
        raised = lint_text(video_manifest_text(), max_enum_components=7)
        assert not codes_of(raised, "SA307")
        assert codes_of(raised, "SA301")

    def test_lint_system_honours_cap(self):
        manifest = loads(video_manifest_text())
        report = lint_system(manifest, max_enum_components=2)
        assert codes_of(report, "SA307")
        assert not codes_of(report, "SA301")

    def test_default_cap_value(self):
        from repro.lint import MAX_ENUM_COMPONENTS

        assert MAX_ENUM_COMPONENTS == 24


class TestTemporalProperties:
    """The SA5xx stage: compiled-property checks over the path set."""

    @pytest.fixture(scope="class")
    def report(self):
        return lint_path(FIXTURE)

    def test_unsatisfiable_property(self, report):
        (unsat,) = codes_of(report, "SA501")
        assert "impossible" in unsat.message

    def test_optimal_path_violation(self, report):
        (optimal,) = codes_of(report, "SA502")
        assert "no_u" in optimal.message
        assert "'start'" in optimal.message and "'uplift'" in optimal.message
        assert "[free]" in optimal.message

    def test_alternate_path_violation_carries_counterexample(self, report):
        (alternate,) = codes_of(report, "SA503")
        assert "stay_off_b1" in alternate.message
        assert "unswap" in alternate.message  # minimized prefix
        assert "cost 9" in alternate.message

    def test_unknown_component_is_an_error(self, report):
        (ghost,) = codes_of(report, "SA505")
        assert ghost.severity is Severity.ERROR
        assert "GHOST3" in ghost.message

    def test_unsatisfiable_property_skips_path_checks(self, report):
        # 'impossible' fails on every configuration of every path; only
        # the SA501 root cause is reported, never SA502/SA503 echoes.
        for code in ("SA502", "SA503"):
            for diagnostic in codes_of(report, code):
                assert "impossible" not in diagnostic.message

    def test_path_checks_survive_the_enumeration_cap(self):
        # Lazy mode: SA501 is skipped (needs the enumerated space) but
        # the path-quantified checks still run on the frontier.
        report = lint_path(FIXTURE, max_enum_components=3)
        assert not codes_of(report, "SA501")
        assert codes_of(report, "SA502")
        assert codes_of(report, "SA503")
        assert any("SA501 skipped" in reason for reason in report.skipped)


class TestPropertyBudget:
    """SA504: lazy path checks that run out of budget are inconclusive."""

    def test_exhausted_budget_reports_sa504(self, monkeypatch):
        import repro.ltl.paths as paths

        monkeypatch.setattr(paths, "LAZY_VERIFY_EXPANSIONS", 1)
        report = lint_path(FIXTURE, max_enum_components=3)
        notes = codes_of(report, "SA504")
        assert notes and all(n.severity is Severity.NOTE for n in notes)
        assert not codes_of(report, "SA502")
        assert not codes_of(report, "SA503")


class TestRenderers:
    @pytest.fixture(scope="class")
    def report(self):
        return lint_path(FIXTURE)

    def test_text_mentions_summary(self, report):
        text = render_text(report)
        assert text.endswith(
            f"{len(report.errors)} error(s), {len(report.warnings)} "
            f"warning(s), {len(report.notes)} note(s)"
        )

    def test_json_roundtrips(self, report):
        payload = json.loads(render_json(report))
        assert payload["tool"] == "repro-lint"
        assert len(payload["diagnostics"]) == len(report)
        assert payload["summary"]["errors"] == len(report.errors)
        first = payload["diagnostics"][0]
        assert {"code", "severity", "message", "path", "span", "related"} <= set(first)

    def test_sarif_shape(self, report):
        sarif = json.loads(render_sarif(report))
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(report.codes())
        assert len(run["results"]) == len(report)
        for result in run["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert result["level"] in ("error", "warning", "note")
