"""Machine-applicable fixes: span-anchored edits attached to diagnostics.

A :class:`Fix` is a described repair made of :class:`Edit` steps, each
anchored to a :class:`~repro.span.Span` in the manifest text.  The
analyzer attaches fixes to the diagnostics whose repair is mechanical
and safe — deleting a dead or dominated action, dropping an unused
component (including splicing its bit out of every bit-vector
configuration), removing duplicate declarations, and serializing a
racing action pair by appending a generated ``[conflicts]`` entry.

:func:`apply_edits` is the applier; :func:`fix_text` drives lint →
apply → re-lint to a fixed point, which is what makes ``repro lint
--fix`` idempotent: once the fixed point is reached, a second run finds
no applicable fixes and changes nothing.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.span import Span

#: bound on lint → fix → re-lint rounds in :func:`fix_text`; each round
#: strictly shrinks the set of fixable findings, so this is a backstop
MAX_FIX_PASSES = 8


@dataclass(frozen=True)
class Edit:
    """One span-anchored text edit.

    Applied by :func:`apply_edits` with three modes:

    * ``span.line`` beyond the last line — *insertion*: the replacement
      is appended as new lines at end of file;
    * empty replacement starting at column 1 — *line deletion*: physical
      lines ``span.line .. span.end_line`` are removed entirely;
    * otherwise — *splice*: columns ``[span.column, span.end_column)``
      of ``span.line`` are replaced (single-line edits).
    """

    span: Span
    replacement: str = ""


@dataclass(frozen=True)
class Fix:
    """A machine-applicable repair: what it does plus its edits."""

    description: str
    edits: Tuple[Edit, ...]


def delete_line_fix(
    description: str, span: Span, extra: Iterable[Edit] = ()
) -> Fix:
    """A fix deleting the whole physical line(s) under *span*."""
    lines = Edit(Span(span.line, 1, max(span.end_line, span.line), 1), "")
    return Fix(description, (lines,) + tuple(extra))


def append_fix(description: str, line_count: int, block: str) -> Fix:
    """A fix appending *block* after the last line of the manifest."""
    return Fix(description, (Edit(Span(line_count + 1, 1), block),))


def apply_edits(text: str, edits: Iterable[Edit]) -> str:
    """Apply *edits* to *text* (descending document order, dedup'd).

    Edits are applied bottom-up so earlier spans stay valid; a line
    already removed by a line-deletion edit absorbs any further edit
    targeting it.  Identical edits (the same span and replacement
    reported via two diagnostics) apply once.  Edits tied on a span keep
    their input order (the sort is stable), so the output never depends
    on hash order.
    """
    had_newline = text.endswith("\n")
    lines = text.split("\n")
    if had_newline:
        lines = lines[:-1]
    total = len(lines)
    ordered = sorted(
        dict.fromkeys(edits),
        key=lambda e: (e.span.line, e.span.column),
        reverse=True,
    )
    deleted: Set[int] = set()
    for edit in ordered:
        span = edit.span
        if span.line > total:
            block = edit.replacement.split("\n")
            while block and block[-1] == "":
                block.pop()
            lines.extend(block)
            continue
        if span.line in deleted:
            continue
        if edit.replacement == "" and span.column == 1:
            end = min(max(span.end_line, span.line), len(lines))
            deleted.update(range(span.line, end + 1))
            del lines[span.line - 1 : end]
            continue
        line = lines[span.line - 1]
        start = min(span.column - 1, len(line))
        if span.end_line == span.line and span.end_column >= span.column:
            stop = min(span.end_column - 1, len(line))
        else:
            stop = start
        lines[span.line - 1] = line[:start] + edit.replacement + line[stop:]
    out = "\n".join(lines)
    if had_newline and lines:
        out += "\n"
    return out


def apply_fixes(text: str, report) -> Tuple[str, int]:
    """Apply every fix attached to *report*'s diagnostics (one pass).

    Returns ``(new_text, fixes_applied)``; the count is the number of
    diagnostics that carried at least one fix.
    """
    fixes: List[Fix] = [
        fix for diagnostic in report for fix in diagnostic.fixes
    ]
    if not fixes:
        return text, 0
    edits = [edit for fix in fixes for edit in fix.edits]
    return apply_edits(text, edits), len(fixes)


def fix_text(
    text: str,
    path: Optional[str] = None,
    max_enum_components: Optional[int] = None,
) -> Tuple[str, int]:
    """Lint → fix → re-lint to a fixed point.

    Returns ``(fixed_text, total_fixes_applied)``.  Because the loop
    only stops when a lint pass yields no applicable fixes, running
    :func:`fix_text` on its own output is always a no-op — the
    idempotency guarantee behind ``repro lint --fix``.
    """
    from repro.lint import lint_text

    applied = 0
    for _ in range(MAX_FIX_PASSES):
        report = lint_text(
            text, path=path, max_enum_components=max_enum_components
        )
        new_text, count = apply_fixes(text, report)
        if count == 0 or new_text == text:
            break
        applied += count
        text = new_text
    return text, applied


def unified_diff(before: str, after: str, path: Optional[str] = None) -> str:
    """A unified diff of a fix application (what ``--diff`` prints)."""
    label = path or "<manifest>"
    return "".join(
        difflib.unified_diff(
            before.splitlines(keepends=True),
            after.splitlines(keepends=True),
            fromfile=label,
            tofile=f"{label} (fixed)",
        )
    )
