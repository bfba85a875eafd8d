"""Reference lint report encoding: a dict tree, serialized twice (oracle).

:func:`report_payload` is the document builder :mod:`repro.lint.render`
ran before the one-pass schema writer (``encode_report``): it builds the
report as a tree of dicts and lists, which :func:`render_json` wrote
with ``dumps_indented`` and the HTTP adapter encoded a second time,
inside the answer envelope, with ``json.dumps(..., separators=(",",
":"), sort_keys=True)``.  It is kept verbatim as the semantics the
writer is pinned to (``tests/lint/test_render_oracle.py``) and as the
reference column of ``benchmarks/bench_lint.py::test_lint_answer_encoding``.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.jsonfmt import dumps_indented
from repro.lint.diagnostics import Diagnostic, LintReport, Related
from repro.lint.fixes import Fix
from repro.lint.render import TOOL_NAME


def render_json(report: LintReport) -> str:
    """Stable JSON dump (diagnostics in report order + summary counts)."""
    return dumps_indented(report_payload(report))


def report_wire(report: LintReport) -> str:
    """The compact, key-sorted ``report`` of a lint answer on the wire."""
    return json.dumps(
        report_payload(report), separators=(",", ":"), sort_keys=True
    )


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
