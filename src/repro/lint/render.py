"""Output renderers for lint reports: human text, JSON, and SARIF 2.1.0.

The text form is the compiler-style ``file:line:col: CODE severity:
message`` stream.  JSON is a stable machine-readable dump for scripting;
:func:`encode_report` writes it and, in the same pass, the compact
key-sorted ``report`` a lint answer carries on the wire.
SARIF follows the minimal static-analysis profile that code-review
platforms ingest for inline annotations: one run, one rule per SA code
(metadata straight from :data:`repro.lint.diagnostics.CODES`), one result
per diagnostic with ``relatedLocations`` for the secondary spans.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Tuple

from repro.jsonfmt import dumps_indented
from repro.lint.diagnostics import CODES, Diagnostic, LintReport, Related, Severity
from repro.lint.fixes import Fix
from repro.span import Span

#: SARIF ``level`` per severity (SARIF has no "error < warning" ordering
#: of its own; ``note`` is its mildest level).
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.NOTE: "note",
}

TOOL_NAME = "repro-lint"

#: the escaper ``json.dumps`` uses (ASCII output, ``\uXXXX`` escapes)
_string = encode_basestring_ascii
_TOOL = _string(TOOL_NAME)
_SEVERITIES = {severity: _string(severity.label) for severity in Severity}
#: an empty array in both encodings
_EMPTY = ("[]", "[]")


def render_text(report: LintReport, verbose: bool = False) -> str:
    """Compiler-style text: one (or more, with related) lines per finding."""
    lines: List[str] = [diagnostic.render() for diagnostic in report]
    if verbose:
        for reason in report.skipped:
            lines.append(f"note: {reason}")
    lines.append(report.summary())
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable JSON dump (diagnostics in report order + summary counts)."""
    return encode_report(report)[0]


def encode_report(report: LintReport) -> Tuple[str, str]:
    """The report's two JSON encodings, written in one pass.

    Returns ``(text, wire)``: *text* is what :func:`render_json` returns,
    ``json.dumps(document, indent=2)`` of the document below, and *wire*
    is ``json.dumps(document, separators=(",", ":"), sort_keys=True)``,
    the ``report`` a lint answer carries on the wire::

        {"tool": "repro-lint",
         "diagnostics": [{"code", "severity", "message", "path", "span",
                          "related": [{"message", "path", "span"}],
                          "fixes": [{"description",
                                     "edits": [{"span", "replacement"}]}]}],
         "summary": {"errors", "warnings", "notes"},
         "skipped": [reason, ...]}

    where a span is ``{"line", "column", "end_line", "end_column"}`` and a
    related entry without a path takes its diagnostic's.  The schema is
    fixed, so each diagnostic is a few f-string fragments per output,
    and each string is escaped once, by ``encode_basestring_ascii``: the
    escaper ``json.dumps`` itself uses.
    """
    texts: List[str] = []
    wires: List[str] = []
    for diagnostic in report:
        path = _quote(diagnostic.path)
        span_text, span_wire = _span(diagnostic.span, "      ")
        related_text, related_wire = (
            _related(diagnostic) if diagnostic.related else _EMPTY
        )
        fixes_text, fixes_wire = (
            _fixes(diagnostic.fixes) if diagnostic.fixes else _EMPTY
        )
        code = _string(diagnostic.code)
        severity = _SEVERITIES[diagnostic.severity]
        message = _string(diagnostic.message)
        texts.append(
            f'    {{\n      "code": {code},\n      "severity": {severity},'
            f'\n      "message": {message},\n      "path": {path},'
            f'\n      "span": {span_text},\n      "related": {related_text},'
            f'\n      "fixes": {fixes_text}\n    }}'
        )
        wires.append(
            f'{{"code":{code},"fixes":{fixes_wire},"message":{message},'
            f'"path":{path},"related":{related_wire},'
            f'"severity":{severity},"span":{span_wire}}}'
        )
    skipped = [_string(reason) for reason in report.skipped]
    errors, warnings, notes = (
        len(report.errors), len(report.warnings), len(report.notes)
    )
    text = (
        f'{{\n  "tool": {_TOOL},\n  "diagnostics": {_list(texts, "  ")},'
        f'\n  "summary": {{\n    "errors": {errors},\n    "warnings": '
        f'{warnings},\n    "notes": {notes}\n  }},\n  "skipped": '
        f'{_list(["    " + reason for reason in skipped], "  ")}\n}}'
    )
    wire = (
        f'{{"diagnostics":[{",".join(wires)}],"skipped":[{",".join(skipped)}],'
        f'"summary":{{"errors":{errors},"notes":{notes},'
        f'"warnings":{warnings}}},"tool":{_TOOL}}}'
    )
    return text, wire


def _quote(path: Optional[str]) -> str:
    return "null" if path is None else _string(path)


def _list(items: List[str], pad: str) -> str:
    """An indented JSON array of already-indented *items* whose key
    (or enclosing item) sits at *pad*."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def _span(span: Span, pad: str) -> Tuple[str, str]:
    """A span whose key sits at *pad*: its indented and compact JSON."""
    line, column = span.line, span.column
    end_line, end_column = span.end_line, span.end_column
    return (
        f'{{\n{pad}  "line": {line},\n{pad}  "column": {column},\n{pad}  '
        f'"end_line": {end_line},\n{pad}  "end_column": {end_column}\n{pad}}}',
        f'{{"column":{column},"end_column":{end_column},'
        f'"end_line":{end_line},"line":{line}}}',
    )


def _related(diagnostic: Diagnostic) -> Tuple[str, str]:
    texts: List[str] = []
    wires: List[str] = []
    for rel in diagnostic.related:
        message = _string(rel.message)
        path = _quote(rel.path or diagnostic.path)
        span_text, span_wire = _span(rel.span, "          ")
        texts.append(
            f'        {{\n          "message": {message},\n          '
            f'"path": {path},\n          "span": {span_text}\n        }}'
        )
        wires.append(f'{{"message":{message},"path":{path},"span":{span_wire}}}')
    return _list(texts, "      "), "[" + ",".join(wires) + "]"


def _fixes(fixes: Tuple[Fix, ...]) -> Tuple[str, str]:
    texts: List[str] = []
    wires: List[str] = []
    for fix in fixes:
        edit_texts: List[str] = []
        edit_wires: List[str] = []
        for edit in fix.edits:
            replacement = _string(edit.replacement)
            span_text, span_wire = _span(edit.span, "              ")
            edit_texts.append(
                f'            {{\n              "span": {span_text},\n'
                f'              "replacement": {replacement}\n            }}'
            )
            edit_wires.append(
                f'{{"replacement":{replacement},"span":{span_wire}}}'
            )
        description = _string(fix.description)
        texts.append(
            f'        {{\n          "description": {description},\n'
            f'          "edits": {_list(edit_texts, "          ")}\n        }}'
        )
        wires.append(
            f'{{"description":{description},"edits":[{",".join(edit_wires)}]}}'
        )
    return _list(texts, "      "), "[" + ",".join(wires) + "]"


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 (one run; rules from the code registry)."""
    used = {d.code for d in report}
    rules = [
        {
            "id": code,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": _SARIF_LEVELS[severity]},
        }
        for code, (severity, summary) in sorted(CODES.items())
        if code in used
    ]
    results = [_sarif_result(d) for d in report]
    document = {
        "version": "2.1.0",
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return dumps_indented(document)


def _sarif_result(diagnostic: Diagnostic) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": diagnostic.code,
        "level": _SARIF_LEVELS[diagnostic.severity],
        "message": {"text": diagnostic.message},
        "locations": [
            _sarif_location(diagnostic.path, diagnostic)
        ],
    }
    if diagnostic.related:
        result["relatedLocations"] = [
            {
                **_sarif_location(rel.path or diagnostic.path, rel),
                "message": {"text": rel.message},
            }
            for rel in diagnostic.related
        ]
    if diagnostic.fixes:
        result["fixes"] = [
            _sarif_fix(diagnostic.path, fix) for fix in diagnostic.fixes
        ]
    return result


def _sarif_fix(path: Optional[str], fix: Fix) -> Dict[str, Any]:
    replacements = []
    for edit in fix.edits:
        span = edit.span
        replacement: Dict[str, Any] = {
            "deletedRegion": {
                "startLine": span.line,
                "startColumn": span.column,
                "endLine": span.end_line,
                "endColumn": span.end_column,
            }
        }
        if edit.replacement:
            replacement["insertedContent"] = {"text": edit.replacement}
        replacements.append(replacement)
    return {
        "description": {"text": fix.description},
        "artifactChanges": [
            {
                "artifactLocation": {"uri": path or "manifest"},
                "replacements": replacements,
            }
        ],
    }


def _sarif_location(
    path: Optional[str], owner: "Diagnostic | Related"
) -> Dict[str, Any]:
    span = owner.span
    location: Dict[str, Any] = {
        "physicalLocation": {
            "region": {
                "startLine": span.line,
                "startColumn": span.column,
                "endLine": span.end_line,
                "endColumn": span.end_column,
            }
        }
    }
    if path:
        location["physicalLocation"]["artifactLocation"] = {"uri": path}
    return location
