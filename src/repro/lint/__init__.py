"""Development-time static analyzer for adaptation specs (``repro lint``).

The analyzer takes a manifest (or an in-memory :class:`~repro.manifest.
SystemManifest`) and emits structured :class:`~repro.lint.diagnostics.
Diagnostic` findings with stable ``SAxxx`` codes, source spans, and
related locations — renderable as compiler-style text, JSON, or SARIF.

Public API:

* :func:`lint_text` / :func:`lint_path` — analyze manifest source; the
  tolerant scanner keeps going past defects, so one run reports them all.
* :func:`lint_system` — analyze an in-memory ``P`` (semantic stages only;
  well-formedness is enforced by the constructors).
* :func:`lint_source` — analyze an already-scanned
  :class:`~repro.manifest.ManifestSource`.
* :func:`fix_text` / :func:`apply_fixes` — apply the machine-applicable
  :class:`~repro.lint.fixes.Fix` edits attached to diagnostics
  (``repro lint --fix``); :func:`unified_diff` renders the change.

See ``DESIGN.md`` §10 for the full code table and pipeline description.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.lint.checks import (
    MAX_ENUM_COMPONENTS,
    MAX_SAT_ATOMS,
    action_arcs,
    analyze_source,
    analyze_system,
    jointly_satisfiable,
    truth_profile,
)
from repro.lint.diagnostics import (
    CODES,
    Diagnostic,
    LintReport,
    Related,
    Severity,
    describe_code,
)
from repro.lint.fixes import (
    Edit,
    Fix,
    apply_edits,
    apply_fixes,
    fix_text,
    unified_diff,
)
from repro.lint.interference import MAX_PAIR_SOURCES, check_interference
from repro.lint.render import render_json, render_sarif, render_text
from repro.manifest import ManifestSource, SystemManifest, scan


def lint_source(
    source: ManifestSource,
    max_enum_components: "int | None" = None,
) -> LintReport:
    """Run the analyzer over an already-scanned manifest.

    *max_enum_components* overrides the SA3xx safe-space enumeration cap
    for this run (above it SA301/SA302/SA305 skip with an SA307 note
    while SA205/SA306 fall back to lazy frontier search).
    """
    return analyze_source(source, max_enum_components=max_enum_components)


def lint_text(
    text: str,
    path: "str | None" = None,
    max_enum_components: "int | None" = None,
) -> LintReport:
    """Analyze manifest source text (tolerant: reports every defect)."""
    return analyze_source(
        scan(text, path=path, strict=False),
        max_enum_components=max_enum_components,
    )


def lint_path(
    path: Union[str, Path],
    max_enum_components: "int | None" = None,
) -> LintReport:
    """Analyze a manifest file on disk."""
    return lint_text(
        Path(path).read_text(encoding="utf-8"),
        path=str(path),
        max_enum_components=max_enum_components,
    )


def lint_system(
    manifest: SystemManifest,
    max_enum_components: "int | None" = None,
) -> LintReport:
    """Analyze an in-memory system model (semantic stages SA2xx–SA4xx)."""
    return analyze_system(manifest, max_enum_components=max_enum_components)


__all__ = [
    "CODES",
    "Diagnostic",
    "Edit",
    "Fix",
    "LintReport",
    "MAX_ENUM_COMPONENTS",
    "MAX_PAIR_SOURCES",
    "MAX_SAT_ATOMS",
    "Related",
    "Severity",
    "action_arcs",
    "analyze_source",
    "analyze_system",
    "apply_edits",
    "apply_fixes",
    "check_interference",
    "describe_code",
    "fix_text",
    "jointly_satisfiable",
    "lint_path",
    "lint_source",
    "lint_system",
    "lint_text",
    "render_json",
    "render_sarif",
    "render_text",
    "truth_profile",
    "unified_diff",
]
