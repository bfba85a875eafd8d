"""Declarative system manifests: the analysis-phase artifact as a file.

The paper's analysis phase (§4.1) has developers prepare
``P = (S, I, T, R, A)``.  A manifest captures the declarative parts —
components with their host processes, dependency invariants, adaptive
actions with costs, named configurations, and (optionally) the critical
communication segments — in a plain-text format, so a system can be
planned, simulated, and statically analyzed without writing Python:

.. code-block:: text

    # video.manifest
    [components]
    D5 @ laptop   : DES 128-bit decoder
    D4 @ laptop   : DES 64-bit decoder
    E1 @ server   : DES 64-bit encoder

    [invariants]
    resource : one_of(D1, D2, D3)
    : E1 -> (D1 | D2) & D4          # unnamed invariant

    [actions]
    A1  : E1 -> E2 @ 10             # replace, cost 10
    A16 : -D4 @ 10                  # remove
    A17 : +D5 @ 10                  # insert
    A14 : (D1, D4, E1) -> (D3, D5, E2) @ 150

    [configurations]
    source = 0100101                # bit vector over [components] order
    target = D3, D5, E2             # or an explicit member list

    [ccs]
    packet : encode send receive decode   # one allowed atomic sequence

``loads``/``dumps`` round-trip; the CLI (``python -m repro``) consumes
manifests directly.

Parsing is two-stage so the static analyzer can see *all* defects:

* :func:`scan` tokenizes the sections into raw entries, each carrying a
  :class:`~repro.span.Span` (line/column provenance).  In strict mode it
  raises :class:`ParseError` at the first syntax problem; in tolerant
  mode (used by ``repro lint``) syntax problems are collected as
  :class:`SyntaxIssue` records and scanning continues.
* :func:`build` turns a scan into a :class:`SystemManifest`, raising
  :class:`ParseError` — now always with a line number and span — on the
  first semantic problem (unknown component, bad bit vector, ...).

:func:`loads` is ``build(scan(text))``, exactly as before.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ccs import CCSSpec
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.invariants import Invariant, InvariantSet
from repro.core.model import Component, ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlanner
from repro.errors import (
    ConfigurationError,
    ParseError,
    UnknownComponentError,
)
from repro.expr.ast import to_text
from repro.ltl.ast import PFormula, parse_property, property_to_text
from repro.span import Span

_SECTIONS = (
    "components",
    "invariants",
    "actions",
    "configurations",
    "ccs",
    "properties",
    "conflicts",
)

# Names may carry ``@`` suffixes (``D5@g0 @ laptop@g0``, as ``dumps`` writes
# replicated groups).  The name part is lazy, so a bare ``D5@laptop`` still
# reads as component D5 on process laptop.
_COMPONENT_RE = re.compile(
    r"^(?P<name>[A-Za-z_][\w.\-]*(?:@[\w.\-]+)*?)"
    r"\s*(?:@\s*(?P<process>[\w.\-]+(?:@[\w.\-]+)*))?"
    r"\s*(?::\s*(?P<description>.*))?$"
)
_ACTION_RE = re.compile(
    r"^(?P<id>[\w.\-@]+)\s*:\s*(?P<operation>.+?)\s*@\s*(?P<cost>[0-9.]+)"
    r"\s*(?:;\s*(?P<description>.*))?$"
)
_REPLACE_RE = re.compile(
    r"^(?:\((?P<removes_group>[^)]*)\)|(?P<removes_one>[\w.\-@]+))\s*->\s*"
    r"(?:\((?P<adds_group>[^)]*)\)|(?P<adds_one>[\w.\-@]+))$"
)


# -- scan-stage entries (raw text + provenance) ---------------------------------


@dataclass(frozen=True)
class ComponentEntry:
    """One ``[components]`` line as scanned."""

    name: str
    process: str
    description: str
    span: Span


@dataclass(frozen=True)
class InvariantEntry:
    """One ``[invariants]`` line as scanned (expression still text)."""

    name: str
    expr_text: str
    span: Span
    expr_span: Span


@dataclass(frozen=True)
class ActionEntry:
    """One ``[actions]`` line as scanned (operation still text)."""

    action_id: str
    operation: str
    cost_text: str
    description: str
    span: Span


@dataclass(frozen=True)
class ConfigEntry:
    """One ``[configurations]`` line as scanned (value still text)."""

    name: str
    value: str
    span: Span
    value_span: Span


@dataclass(frozen=True)
class CCSEntry:
    """One ``[ccs]`` line: a named allowed atomic-action sequence."""

    label: str
    actions: Tuple[str, ...]
    span: Span


@dataclass(frozen=True)
class ConflictEntry:
    """One ``[conflicts]`` line: a pair of actions that must serialize."""

    label: str
    actions: Tuple[str, ...]
    span: Span


@dataclass(frozen=True)
class PropertyEntry:
    """One ``[properties]`` line as scanned (formula still text)."""

    name: str
    formula_text: str
    span: Span
    formula_span: Span


@dataclass(frozen=True)
class SyntaxIssue:
    """A syntax problem recorded during tolerant scanning."""

    message: str
    span: Span


@dataclass
class ManifestSource:
    """The scan result: raw entries with spans, before semantic checks."""

    path: Optional[str] = None
    components: List[ComponentEntry] = field(default_factory=list)
    invariants: List[InvariantEntry] = field(default_factory=list)
    actions: List[ActionEntry] = field(default_factory=list)
    configurations: List[ConfigEntry] = field(default_factory=list)
    ccs: List[CCSEntry] = field(default_factory=list)
    properties: List[PropertyEntry] = field(default_factory=list)
    conflicts: List[ConflictEntry] = field(default_factory=list)
    issues: List[SyntaxIssue] = field(default_factory=list)
    sections: Dict[str, Span] = field(default_factory=dict)
    #: number of physical lines scanned (anchors end-of-file fix edits)
    line_count: int = 0

    def section_span(self, name: str) -> Span:
        """Span of a section header (line 1 when the section is absent)."""
        return self.sections.get(name, Span(1, 1))


@dataclass
class ManifestSpans:
    """Provenance side-table attached to a parsed :class:`SystemManifest`."""

    path: Optional[str] = None
    components: Dict[str, Span] = field(default_factory=dict)
    invariants: Tuple[Span, ...] = ()
    actions: Dict[str, Span] = field(default_factory=dict)
    configurations: Dict[str, Span] = field(default_factory=dict)
    properties: Dict[str, Span] = field(default_factory=dict)
    sections: Dict[str, Span] = field(default_factory=dict)


@dataclass
class SystemManifest:
    """A parsed manifest: the declarative analysis-phase model."""

    universe: ComponentUniverse
    invariants: InvariantSet
    actions: ActionLibrary
    configurations: Dict[str, Configuration] = field(default_factory=dict)
    ccs: Optional[CCSSpec] = None
    properties: Dict[str, PFormula] = field(default_factory=dict)
    #: declared racing action pairs — the planner keeps each pair inside
    #: one collaborative set and lint stops reporting the pair as a race
    conflicts: Tuple[Tuple[str, str], ...] = ()
    spans: ManifestSpans = field(default_factory=ManifestSpans)

    def planner(self) -> AdaptationPlanner:
        return AdaptationPlanner(
            self.universe, self.invariants, self.actions,
            conflicts=self.conflicts,
        )

    def property_named(self, name: str) -> PFormula:
        """Look up a ``[properties]`` entry; raises with the known names."""
        try:
            return self.properties[name]
        except KeyError:
            known = ", ".join(sorted(self.properties)) or "none defined"
            raise ConfigurationError(
                f"unknown property {name!r} (known: {known})"
            ) from None

    def resolve_configuration(self, spec: str) -> Configuration:
        """Resolve a named configuration, bit vector, or member list."""
        if spec in self.configurations:
            return self.configurations[spec]
        stripped = spec.strip()
        if re.fullmatch(r"[01]+", stripped):
            return self.universe.from_bits(stripped)
        members = [part.strip() for part in stripped.split(",") if part.strip()]
        self.universe.validate_members(members)
        return Configuration(members)


def _strip_comment(line: str) -> str:
    # '#' starts a comment unless inside nothing fancy (manifests have no
    # string literals, so a bare find is correct).
    index = line.find("#")
    return line if index < 0 else line[:index]


def _parse_operation(
    text: str, line_no: int, span: Optional[Span] = None
) -> Tuple[frozenset, frozenset]:
    text = text.strip()
    if text.startswith("+"):
        names = [part.strip() for part in text[1:].split(",")]
        return frozenset(), frozenset(filter(None, names))
    if text.startswith("-"):
        names = [part.strip() for part in text[1:].split(",")]
        return frozenset(filter(None, names)), frozenset()
    match = _REPLACE_RE.match(text)
    if match is None:
        raise ParseError(
            f"line {line_no}: cannot parse action operation {text!r}",
            span=span or Span(line_no),
        )
    removes_raw = match.group("removes_group") or match.group("removes_one")
    adds_raw = match.group("adds_group") or match.group("adds_one")
    removes = frozenset(p.strip() for p in removes_raw.split(",") if p.strip())
    adds = frozenset(p.strip() for p in adds_raw.split(",") if p.strip())
    return removes, adds


def scan(
    text: str, path: Optional[str] = None, strict: bool = True
) -> ManifestSource:
    """Stage 1: split a manifest into raw entries with source spans.

    In strict mode the first syntax problem raises :class:`ParseError`
    (with a span); in tolerant mode problems are appended to
    ``source.issues`` and scanning continues with the next line — the
    behavior ``repro lint`` needs to report *every* defect at once.
    """
    source = ManifestSource(path=path)
    source.line_count = text.count("\n") + (1 if text and not text.endswith("\n") else 0)
    section: Optional[str] = None

    def problem(message: str, span: Span) -> None:
        if strict:
            raise ParseError(message, span=span)
        source.issues.append(SyntaxIssue(message, span))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        span = Span.of_fragment(line_no, raw, line)
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                problem(f"line {line_no}: unknown section [{name}]", span)
                section = None  # skip lines until a known section opens
                continue
            section = name
            source.sections.setdefault(section, span)
            continue
        if section is None:
            problem(f"line {line_no}: content before any [section]", span)
            continue
        if section == "components":
            match = _COMPONENT_RE.match(line)
            if match is None:
                problem(f"line {line_no}: bad component {line!r}", span)
                continue
            source.components.append(
                ComponentEntry(
                    name=match.group("name"),
                    process=match.group("process") or "local",
                    description=(match.group("description") or "").strip(),
                    span=Span.of_fragment(line_no, raw, match.group("name")),
                )
            )
        elif section == "invariants":
            if ":" in line:
                name, _, expr_text = line.partition(":")
                name = name.strip()
                expr_text = expr_text.strip()
            else:
                name, expr_text = "", line
            if not expr_text:
                problem(
                    f"line {line_no}: invariant {name!r} has no expression",
                    span,
                )
                continue
            source.invariants.append(
                InvariantEntry(
                    name=name,
                    expr_text=expr_text,
                    span=span,
                    expr_span=Span.of_fragment(line_no, raw, expr_text),
                )
            )
        elif section == "actions":
            match = _ACTION_RE.match(line)
            if match is None:
                problem(f"line {line_no}: bad action {line!r}", span)
                continue
            source.actions.append(
                ActionEntry(
                    action_id=match.group("id"),
                    operation=match.group("operation"),
                    cost_text=match.group("cost"),
                    description=(match.group("description") or "").strip(),
                    span=span,
                )
            )
        elif section == "configurations":
            name, eq, value = line.partition("=")
            if not eq:
                problem(
                    f"line {line_no}: configurations need 'name = value'", span
                )
                continue
            source.configurations.append(
                ConfigEntry(
                    name=name.strip(),
                    value=value.strip(),
                    span=span,
                    value_span=Span.of_fragment(line_no, raw, value.strip()),
                )
            )
        elif section == "ccs":
            label, colon, seq_text = line.partition(":")
            if not colon:
                label, seq_text = "", line
            actions = tuple(
                part for part in re.split(r"[,\s]+", seq_text.strip()) if part
            )
            if not actions:
                problem(
                    f"line {line_no}: ccs entry needs at least one atomic action",
                    span,
                )
                continue
            source.ccs.append(
                CCSEntry(label=label.strip(), actions=actions, span=span)
            )
        elif section == "conflicts":
            label, colon, seq_text = line.partition(":")
            if not colon:
                label, seq_text = "", line
            actions = tuple(
                part for part in re.split(r"[,\s]+", seq_text.strip()) if part
            )
            if len(actions) != 2:
                problem(
                    f"line {line_no}: conflicts entries name exactly two "
                    f"actions, got {len(actions)}",
                    span,
                )
                continue
            if actions[0] == actions[1]:
                problem(
                    f"line {line_no}: conflict pair repeats action "
                    f"{actions[0]!r}",
                    span,
                )
                continue
            source.conflicts.append(
                ConflictEntry(label=label.strip(), actions=actions, span=span)
            )
        elif section == "properties":
            name, colon, formula_text = line.partition(":")
            name = name.strip()
            formula_text = formula_text.strip()
            if not colon or not name or not formula_text:
                problem(
                    f"line {line_no}: properties need 'name : formula'", span
                )
                continue
            source.properties.append(
                PropertyEntry(
                    name=name,
                    formula_text=formula_text,
                    span=span,
                    formula_span=Span.of_fragment(line_no, raw, formula_text),
                )
            )
    return source


def build(source: ManifestSource) -> SystemManifest:
    """Stage 2: semantic construction; raises :class:`ParseError` on defects.

    Every error message carries the offending line number (and the raised
    exception a :class:`Span`) — including invariant and configuration
    entries, which previously reported no location at all.
    """
    if source.issues:
        issue = source.issues[0]
        raise ParseError(issue.message, span=issue.span)
    if not source.components:
        raise ParseError(
            "manifest has no [components]", span=source.section_span("components")
        )
    spans = ManifestSpans(path=source.path, sections=dict(source.sections))
    seen: Dict[str, Span] = {}
    components: List[Component] = []
    for entry in source.components:
        if entry.name in seen:
            raise ParseError(
                f"line {entry.span.line}: duplicate component {entry.name!r} "
                f"(first declared on line {seen[entry.name].line})",
                span=entry.span,
            )
        seen[entry.name] = entry.span
        components.append(
            Component(entry.name, process=entry.process, description=entry.description)
        )
    universe = ComponentUniverse(components)
    spans.components = seen

    invariants_out: List[Invariant] = []
    invariant_spans: List[Span] = []
    for inv_entry in source.invariants:
        try:
            invariant = Invariant(inv_entry.expr_text, name=inv_entry.name)
        except ParseError as exc:
            raise ParseError(
                f"line {inv_entry.span.line}: bad invariant expression "
                f"{inv_entry.expr_text!r}: {exc}",
                span=inv_entry.expr_span,
            ) from exc
        unknown = invariant.atoms() - universe.names
        if unknown:
            raise ParseError(
                f"line {inv_entry.span.line}: invariant {invariant.name!r} "
                f"mentions unknown components {sorted(unknown)}",
                span=inv_entry.expr_span,
            )
        invariants_out.append(invariant)
        invariant_spans.append(inv_entry.span)
    invariants = InvariantSet(invariants_out)
    spans.invariants = tuple(invariant_spans)

    actions = ActionLibrary()
    for act_entry in source.actions:
        line_no = act_entry.span.line
        removes, adds = _parse_operation(act_entry.operation, line_no, act_entry.span)
        try:
            cost = float(act_entry.cost_text)
        except ValueError:
            raise ParseError(
                f"line {line_no}: action {act_entry.action_id} has a bad "
                f"cost {act_entry.cost_text!r}",
                span=act_entry.span,
            ) from None
        unknown = (removes | adds) - universe.names
        if unknown:
            raise ParseError(
                f"line {line_no}: action {act_entry.action_id} uses unknown "
                f"components {sorted(unknown)}",
                span=act_entry.span,
            )
        if act_entry.action_id in actions:
            raise ParseError(
                f"line {line_no}: duplicate action id {act_entry.action_id!r}",
                span=act_entry.span,
            )
        actions.add(
            AdaptiveAction(
                act_entry.action_id, removes, adds, cost, act_entry.description
            )
        )
        spans.actions[act_entry.action_id] = act_entry.span

    ccs: Optional[CCSSpec] = None
    if source.ccs:
        ccs = CCSSpec([entry.actions for entry in source.ccs], name="manifest")

    conflicts: List[Tuple[str, str]] = []
    for conflict_entry in source.conflicts:
        unknown = [aid for aid in conflict_entry.actions if aid not in actions]
        if unknown:
            raise ParseError(
                f"line {conflict_entry.span.line}: conflict names unknown "
                f"action(s) {sorted(unknown)}",
                span=conflict_entry.span,
            )
        first, second = sorted(conflict_entry.actions)
        if (first, second) not in conflicts:
            conflicts.append((first, second))

    manifest = SystemManifest(
        universe, invariants, actions, ccs=ccs,
        conflicts=tuple(conflicts), spans=spans,
    )
    for cfg_entry in source.configurations:
        try:
            resolved = manifest.resolve_configuration(cfg_entry.value)
        except (ConfigurationError, UnknownComponentError) as exc:
            raise ParseError(
                f"line {cfg_entry.span.line}: bad configuration "
                f"{cfg_entry.name!r}: {exc}",
                span=cfg_entry.value_span,
            ) from exc
        manifest.configurations[cfg_entry.name] = resolved
        spans.configurations[cfg_entry.name] = cfg_entry.span
    for prop_entry in source.properties:
        line_no = prop_entry.span.line
        if prop_entry.name in manifest.properties:
            raise ParseError(
                f"line {line_no}: duplicate property {prop_entry.name!r}",
                span=prop_entry.span,
            )
        try:
            formula = parse_property(prop_entry.formula_text)
        except ParseError as exc:
            span = prop_entry.formula_span
            if exc.position:
                span = Span(
                    span.line, span.column + exc.position,
                    span.line, span.end_column,
                )
            raise ParseError(
                f"line {line_no}: bad property formula "
                f"{prop_entry.formula_text!r}: {exc}",
                span=span,
            ) from exc
        unknown = formula.atoms() - universe.names
        if unknown:
            raise ParseError(
                f"line {line_no}: property {prop_entry.name!r} mentions "
                f"unknown components {sorted(unknown)}",
                span=prop_entry.formula_span,
            )
        manifest.properties[prop_entry.name] = formula
        spans.properties[prop_entry.name] = prop_entry.span
    return manifest


def loads(text: str, path: Optional[str] = None) -> SystemManifest:
    """Parse a manifest string.  Raises :class:`ParseError` on bad input."""
    return build(scan(text, path=path, strict=True))


def load_path(path) -> SystemManifest:
    """Parse a manifest file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), path=str(path))


def dumps(manifest: SystemManifest) -> str:
    """Render a manifest back to text (``loads``/``dumps`` round-trips)."""
    lines: List[str] = ["[components]"]
    for component in manifest.universe:
        entry = f"{component.name} @ {component.process}"
        if component.description:
            entry += f" : {component.description}"
        lines.append(entry)
    lines.append("")
    lines.append("[invariants]")
    for invariant in manifest.invariants:
        rendered = to_text(invariant.expr)
        name = invariant.name if invariant.name != rendered else ""
        lines.append(f"{name} : {rendered}".strip())
    lines.append("")
    lines.append("[actions]")
    for action in manifest.actions:
        entry = f"{action.action_id} : {action.operation_text()} @ {action.cost:g}"
        if action.description:
            entry += f" ; {action.description}"
        lines.append(entry)
    if manifest.configurations:
        lines.append("")
        lines.append("[configurations]")
        for name, config in manifest.configurations.items():
            lines.append(f"{name} = {manifest.universe.to_bits(config)}")
    if manifest.ccs is not None:
        lines.append("")
        lines.append("[ccs]")
        for index, sequence in enumerate(manifest.ccs.allowed):
            lines.append(f"seg{index} : {' '.join(sequence)}")
    if manifest.properties:
        lines.append("")
        lines.append("[properties]")
        for name, formula in manifest.properties.items():
            lines.append(f"{name} : {property_to_text(formula)}")
    if manifest.conflicts:
        lines.append("")
        lines.append("[conflicts]")
        for index, (first, second) in enumerate(manifest.conflicts):
            lines.append(f"pair{index} : {first} {second}")
    lines.append("")
    return "\n".join(lines)


def video_manifest_text() -> str:
    """The §5 video system as a manifest (used by docs, tests, and CLI)."""
    from repro.apps.video.system import (
        PAPER_SOURCE_BITS,
        PAPER_TARGET_BITS,
        video_actions,
        video_invariants,
        video_universe,
    )

    manifest = SystemManifest(
        video_universe(), video_invariants(), video_actions()
    )
    manifest.configurations["source"] = manifest.universe.from_bits(PAPER_SOURCE_BITS)
    manifest.configurations["target"] = manifest.universe.from_bits(PAPER_TARGET_BITS)
    return dumps(manifest)
