"""Output renderers for lint reports: human text, JSON, and SARIF 2.1.0.

The text form is the compiler-style ``file:line:col: CODE severity:
message`` stream.  JSON is a stable machine-readable dump for scripting.
SARIF follows the minimal static-analysis profile that code-review
platforms ingest for inline annotations: one run, one rule per SA code
(metadata straight from :data:`repro.lint.diagnostics.CODES`), one result
per diagnostic with ``relatedLocations`` for the secondary spans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.jsonfmt import dumps_indented
from repro.lint.diagnostics import CODES, Diagnostic, LintReport, Related, Severity
from repro.lint.fixes import Fix

#: SARIF ``level`` per severity (SARIF has no "error < warning" ordering
#: of its own; ``note`` is its mildest level).
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.NOTE: "note",
}

TOOL_NAME = "repro-lint"


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
    return render_payload_json(report_payload(report))


def render_payload_json(payload: Dict[str, Any]) -> str:
    """:func:`render_json` of the report whose :func:`report_payload` is
    *payload* (callers that keep the payload build it once)."""
    return dumps_indented(payload)


def report_payload(report: LintReport) -> Dict[str, Any]:
    """The document :func:`render_json` serializes (JSON-native values
    only, so it equals ``json.loads(render_json(report))``)."""
    return {
        "tool": TOOL_NAME,
        "diagnostics": [_diagnostic_json(d) for d in report],
        "summary": {
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "notes": len(report.notes),
        },
        "skipped": list(report.skipped),
    }


def _diagnostic_json(diagnostic: Diagnostic) -> Dict[str, Any]:
    return {
        "code": diagnostic.code,
        "severity": diagnostic.severity.label,
        "message": diagnostic.message,
        "path": diagnostic.path,
        "span": _span_json(diagnostic),
        "related": [
            {
                "message": rel.message,
                "path": rel.path or diagnostic.path,
                "span": _span_json(rel),
            }
            for rel in diagnostic.related
        ],
        "fixes": [_fix_json(fix) for fix in diagnostic.fixes],
    }


def _fix_json(fix: Fix) -> Dict[str, Any]:
    return {
        "description": fix.description,
        "edits": [
            {"span": _span_json(edit), "replacement": edit.replacement}
            for edit in fix.edits
        ],
    }


def _span_json(owner: "Diagnostic | Related") -> Dict[str, int]:
    span = owner.span
    return {
        "line": span.line,
        "column": span.column,
        "end_line": span.end_line,
        "end_column": span.end_column,
    }


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
