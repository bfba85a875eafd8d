"""The one-pass lint report writer against the dict-tree path it replaced.

:func:`repro.lint.render.encode_report` writes a report's indented JSON
(what :func:`~repro.lint.render_json` returns) and the compact,
key-sorted ``report`` of a lint answer straight from the diagnostics;
:mod:`tests.oracles.lint_render_reference` builds the report as a dict
tree and serializes it with ``dumps_indented`` and ``json.dumps``.  On
random reports, with strings made of quotes, backslashes, newlines,
control characters, non-ASCII text and lone surrogates, both outputs
must be byte-identical, and so must every encoding of a
:class:`~repro.serve.LintResult` carrying them: :func:`to_wire`,
:func:`to_json` and the JSON of :meth:`payload`.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.jsonfmt import dumps_indented
from repro.lint import (
    CODES,
    Diagnostic,
    Edit,
    Fix,
    LintReport,
    Related,
    Severity,
    lint_text,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.render import encode_report
from repro.serve import ControlPlane, LintRequest, LintResult, to_json, to_wire
from repro.span import Span
from tests.oracles import lint_render_reference as reference

ROOT = Path(__file__).resolve().parents[2]
MANIFESTS = sorted(
    [*ROOT.glob("examples/*.manifest"), *ROOT.glob("tests/lint/fixtures/*.manifest")]
)

#: the characters an escaper can get wrong
SPECIAL = ['"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
           "é", " ", "\ud800", "\udfff", "\U0001f600"]
texts = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=8
)
paths = st.none() | st.just("") | texts
coordinates = st.integers(min_value=-3, max_value=2**40)
spans = st.builds(Span, coordinates, coordinates, coordinates, coordinates)
related = st.builds(Related, message=texts, span=spans, path=paths)
fixes = st.builds(
    Fix,
    description=texts,
    edits=st.lists(st.builds(Edit, spans, texts), max_size=2).map(tuple),
)
diagnostics = st.builds(
    Diagnostic,
    code=st.sampled_from(sorted(CODES)) | texts,
    severity=st.sampled_from(Severity),
    message=texts,
    span=spans,
    path=paths,
    related=st.lists(related, max_size=2).map(tuple),
    fixes=st.lists(fixes, max_size=2).map(tuple),
)
reports = st.builds(
    LintReport,
    diagnostics=st.lists(diagnostics, max_size=4),
    skipped=st.lists(texts, max_size=2),
)


@st.composite
def merged_reports(draw):
    """One report per source, merged (and sorted, most of the time) the
    way the control plane merges a multi-source lint."""
    merged = LintReport()
    for part in draw(st.lists(reports, min_size=1, max_size=3)):
        merged.extend(part)
    if draw(st.booleans()):
        merged.sort()
    return merged


def reference_envelope(result: LintResult, report: LintReport) -> dict:
    """The answer envelope as the dict path built it."""
    return {
        "ok": True,
        "kind": "lint",
        "result": {
            "failed": result.failed,
            "format": result.format,
            "rendered": result.rendered,
            "summary": dict(result.summary),
            "report": reference.report_payload(report),
        },
    }


def lint_result(report: LintReport, format: str, failed: bool) -> LintResult:
    text, report_json = encode_report(report)
    rendered = {
        "json": text,
        "text": render_text(report),
        "sarif": render_sarif(report),
    }[format]
    return LintResult(
        failed=failed,
        format=format,
        rendered=rendered,
        summary={
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "notes": len(report.notes),
        },
        report_json=report_json,
    )


def assert_same_answer(result: LintResult, report: LintReport) -> None:
    expected = reference_envelope(result, report)
    assert to_wire(result) == json.dumps(
        expected, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    assert to_json(result) == dumps_indented(expected, sort_keys=True)
    # equal as JSON, not always as dicts: a high surrogate followed by a
    # low one decodes from the encoded report as one astral character
    assert json.dumps(result.payload(), sort_keys=True) == json.dumps(
        expected["result"], sort_keys=True
    )


@settings(max_examples=200, deadline=None)
@given(merged_reports())
def test_both_encodings_match_the_dict_path(report):
    text, wire = encode_report(report)
    assert text == reference.render_json(report)
    assert wire == reference.report_wire(report)
    assert render_json(report) == text


@settings(max_examples=100, deadline=None)
@given(merged_reports(), st.sampled_from(("json", "text", "sarif")), st.booleans())
def test_lint_answers_match_the_dict_path(report, format, failed):
    assert_same_answer(lint_result(report, format, failed), report)


def test_related_entry_without_a_path_takes_the_diagnostics():
    span = Span(3, 1, 3, 4)
    report = LintReport([
        Diagnostic("SA105", Severity.ERROR, "dup", span, path="a.manifest",
                   related=(Related("first", span),
                            Related("other", span, path="b.manifest"))),
        Diagnostic("SA105", Severity.ERROR, "dup", span,
                   related=(Related("first", span, path=""),)),
    ])
    text, wire = encode_report(report)
    assert text == reference.render_json(report)
    paths = [
        [rel["path"] for rel in d["related"]]
        for d in json.loads(wire)["diagnostics"]
    ]
    assert paths == [["a.manifest", "b.manifest"], [None]]


def test_an_empty_report():
    text, wire = encode_report(LintReport())
    assert text == reference.render_json(LintReport())
    assert wire == (
        '{"diagnostics":[],"skipped":[],"summary":'
        '{"errors":0,"notes":0,"warnings":0},"tool":"repro-lint"}'
    )


@pytest.mark.parametrize("format", ("json", "text", "sarif"))
@pytest.mark.parametrize("manifest", MANIFESTS, ids=lambda p: p.name)
def test_dispatched_answers_match_the_dict_path(manifest, format):
    text = manifest.read_text(encoding="utf-8")
    sources = ((str(manifest.relative_to(ROOT)), text), (None, text))
    result = ControlPlane().dispatch(LintRequest(sources=sources, format=format))
    assert isinstance(result, LintResult)
    report = LintReport()
    for path, source in sources:
        report.extend(lint_text(source, path=path))
    report.sort()
    assert_same_answer(result, report)
    if format == "json":
        assert json.loads(result.rendered) == result.report
