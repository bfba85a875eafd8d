"""The adaptation-spec analyzers behind ``repro lint`` (SA1xx–SA6xx).

The pipeline mirrors the paper's development-time analysis phase:

1. **SA1xx (well-formedness)** runs over the raw scan entries
   (:class:`repro.manifest.ManifestSource`) so *every* defect is reported,
   not just the first; defective entries are dropped and analysis
   continues on the valid remainder (linter-style recovery).
2. **SA2xx (invariant semantics)** decides per-invariant satisfiability
   and tautology by enumerating the invariant's own atoms on the compiled
   bitmask closure (:mod:`repro.expr.compile`) — exponential only in the
   invariant's fan-in, never in the universe.  Unsatisfiable invariants
   and the second half of mutually-unsatisfiable pairs are excluded from
   the downstream model so the structural checks still run.
3. **SA3xx (action/SAG analysis)** enumerates each collaborative set's
   safe projections and per-action arc sets on integer masks (same fast
   path as the planner) and composes the global verdicts exactly — the
   safe space is the product of the sets' (DESIGN.md §17): dead and
   dominated actions, zero costs, missing replace inverses, weak
   connectivity of the Safe Adaptation Graph, and reachability between
   the manifest's named configurations (Hufflen-style reconfiguration
   path checking, arXiv:1703.07036).
4. **SA6xx (interference)** checks every unordered action pair for
   concurrency hazards (:mod:`repro.lint.interference`): non-commuting
   firing orders, blocking-window overlap, lost inverses, and
   conflicting touched sets, honoring declared ``[conflicts]`` pairs —
   over the sets' safe projections when SA3xx enumerated them, over the
   named configurations (with an SA605 note) above the cap.
5. **SA5xx (temporal properties)** compiles each ``[properties]`` formula
   (:class:`~repro.ltl.compile.CompiledProperty`) and checks it over the
   safe space (satisfiability) and over every ordered pair of safe named
   configurations by path-quantified verification
   (:func:`repro.ltl.paths.verify_paths`) — eagerly below the
   enumeration cap, by budget-bounded frontier search above it.
6. **SA4xx (runtime contracts)** vets the declared CCS language shape for
   online enforceability, flags globally blocking actions, and reports
   blast radii via :mod:`repro.core.analysis`.

The AST evaluator remains the semantic source of truth: the hypothesis
suite in ``tests/lint`` pins every mask-based verdict (unsatisfiable
invariant, dead action) to brute-force AST enumeration.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.actions import ActionLibrary, AdaptiveAction, MaskedAction
from repro.core.analysis import blast_radii, invariants_at_risk
from repro.core.collaborative import UnionFind, collaborative_sets
from repro.core.invariants import Invariant, InvariantSet
from repro.core.model import Component, ComponentUniverse, Configuration
from repro.core.planner import LAZY_PLAN_COMPONENTS, AdaptationPlanner
from repro.errors import ActionError, ParseError
from repro.expr.ast import Expr
from repro.expr.compile import MaskFn, compile_expr
from repro.expr.parser import parse
from repro.lint.diagnostics import LintReport, Related, Severity
from repro.lint.fixes import Edit, delete_line_fix
from repro.lint.interference import check_interference
from repro.ltl.ast import PFormula, parse_property
from repro.manifest import (
    CCSEntry,
    ManifestSource,
    SystemManifest,
    _parse_operation,
)
from repro.span import Span

#: Enumerating a truth table is capped at this many variable bits —
#: beyond it the check is skipped (recorded in ``report.skipped``).
MAX_SAT_ATOMS = 16
#: Default cap on safe-space enumeration (SA3xx): the planner's own cap,
#: so lint and planning switch to frontier search at the same size.
#: Overridable per run (``max_enum_components=``); a skip now emits an
#: explicit SA307 note besides the ``report.skipped`` line.
MAX_ENUM_COMPONENTS = LAZY_PLAN_COMPONENTS


@dataclass
class _InvariantItem:
    invariant: Invariant
    span: Span
    #: excluded from the downstream model (unsat / conflicting pair)
    dropped: bool = False


@dataclass
class _ActionItem:
    action: AdaptiveAction
    span: Span


@dataclass
class _ConfigItem:
    name: str
    configuration: Configuration
    span: Span


@dataclass
class _PropertyItem:
    name: str
    formula: "PFormula"
    span: Span


@dataclass
class _Model:
    """What survives SA1xx: the analyzable part of the spec."""

    universe: ComponentUniverse
    invariants: List[_InvariantItem] = field(default_factory=list)
    actions: List[_ActionItem] = field(default_factory=list)
    configurations: List[_ConfigItem] = field(default_factory=list)
    ccs: List[CCSEntry] = field(default_factory=list)
    properties: List[_PropertyItem] = field(default_factory=list)
    sections: Dict[str, Span] = field(default_factory=dict)
    #: declared ``[conflicts]`` pairs (sorted, deduped) — SA6xx skips them
    conflicts: List[Tuple[str, str]] = field(default_factory=list)
    _planner: Optional[AdaptationPlanner] = field(default=None, repr=False)

    def section_span(self, name: str) -> Span:
        return self.sections.get(name, Span(1, 1))

    def kept_invariants(self) -> InvariantSet:
        return InvariantSet(
            [item.invariant for item in self.invariants if not item.dropped]
        )

    def planner(self, cap: int) -> AdaptationPlanner:
        """The spec's planner over the kept model, made on first use.

        SA3xx reads the per-set factors of its space and SA5xx plans
        with it, so one lint enumerates each set once.  Its
        :attr:`~AdaptationPlanner.oversized` routing reads *cap*, the
        run's enumeration cap.  Call only after SA2xx has dropped what
        it drops.
        """
        if self._planner is None:
            self._planner = AdaptationPlanner(
                self.universe,
                self.kept_invariants(),
                ActionLibrary(item.action for item in self.actions),
            )
            self._planner.max_components = cap
        return self._planner


# -- satisfiability primitives (exposed for the property tests) ------------------


def truth_profile(
    expr: Expr, universe: ComponentUniverse
) -> Optional[Tuple[bool, bool]]:
    """``(satisfiable, tautology)`` of *expr* over the universe.

    Enumerates only the expression's own atoms on the compiled mask
    closure: atoms outside the universe are constant-false (a component
    that can never be present), so the table over in-universe atoms is
    exact.  Returns ``None`` when the fan-in exceeds :data:`MAX_SAT_ATOMS`.
    """
    return _profile(
        compile_expr(expr, universe.atom_bits), expr.atoms() & universe.names,
        universe,
    )


def jointly_satisfiable(
    left: Expr, right: Expr, universe: ComponentUniverse
) -> Optional[bool]:
    """Whether two expressions can hold in one configuration (or ``None``)."""
    bits = universe.atom_bits
    profile = _profile(
        _both(compile_expr(left, bits), compile_expr(right, bits)),
        (left.atoms() | right.atoms()) & universe.names,
        universe,
    )
    return None if profile is None else profile[0]


def _both(first: MaskFn, second: MaskFn) -> MaskFn:
    return lambda mask: first(mask) and second(mask)


def _profile(
    fn: MaskFn, atoms: FrozenSet[str], universe: ComponentUniverse
) -> Optional[Tuple[bool, bool]]:
    """``(satisfiable, tautology)`` of the compiled *fn* over *atoms*
    (the in-universe atoms it reads), or ``None`` above
    :data:`MAX_SAT_ATOMS`."""
    names = sorted(atoms)
    if len(names) > MAX_SAT_ATOMS:
        return None
    bits = [universe.bit_of(name) for name in names]
    satisfiable = False
    tautology = True
    for combo in range(1 << len(bits)):
        mask = 0
        for index, bit in enumerate(bits):
            if combo & (1 << index):
                mask |= bit
        if fn(mask):
            satisfiable = True
        else:
            tautology = False
        if satisfiable and not tautology:
            break
    return satisfiable, tautology


def action_arcs(
    safe_masks: Sequence[int],
    safe_set: FrozenSet[int],
    masked: MaskedAction,
) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """``(applicable_count, safe arcs)`` of one action over the safe space.

    An arc is a ``(source_mask, target_mask)`` pair with both endpoints
    safe — exactly the SAG arcs this action would label.
    """
    applicable = 0
    arcs: List[Tuple[int, int]] = []
    required = masked.required
    forbidden = masked.forbidden
    clear = masked.clear
    set_bits = masked.set_bits
    for mask in safe_masks:
        if (mask & required) == required and not (mask & forbidden):
            applicable += 1
            result = (mask & ~clear) | set_bits
            if result in safe_set:
                arcs.append((mask, result))
    return applicable, tuple(arcs)


# -- stage 1: well-formedness (SA1xx) -------------------------------------------


def _collect(
    source: ManifestSource, report: LintReport
) -> Optional[_Model]:
    path = source.path
    for issue in source.issues:
        # Strict-mode messages carry a "line N:" prefix for bare
        # exceptions; the diagnostic span already says where.
        message = re.sub(r"^line \d+: ", "", issue.message)
        report.add("SA100", message, issue.span, path)

    seen: Dict[str, Span] = {}
    components: List[Component] = []
    for entry in source.components:
        if entry.name in seen:
            report.add(
                "SA105",
                f"duplicate component {entry.name!r}",
                entry.span,
                path,
                related=[Related("first declared here", seen[entry.name])],
                fixes=[
                    delete_line_fix(
                        f"delete the duplicate {entry.name!r} declaration",
                        entry.span,
                    )
                ],
            )
            continue
        seen[entry.name] = entry.span
        components.append(
            Component(entry.name, process=entry.process, description=entry.description)
        )
    if not components:
        report.add(
            "SA100",
            "manifest has no [components]",
            source.section_span("components"),
            path,
        )
        return None
    model = _Model(
        universe=ComponentUniverse(components), sections=dict(source.sections)
    )

    for inv_entry in source.invariants:
        try:
            expr = parse(inv_entry.expr_text)
        except ParseError as exc:
            span = inv_entry.expr_span
            if exc.position:
                span = Span(
                    span.line,
                    span.column + exc.position,
                    span.line,
                    span.end_column,
                )
            report.add(
                "SA100",
                f"bad invariant expression {inv_entry.expr_text!r}: "
                f"{exc.args[0] if exc.args else exc}",
                span,
                path,
            )
            continue
        invariant = Invariant(expr, name=inv_entry.name)
        unknown = sorted(invariant.atoms() - model.universe.names)
        if unknown:
            report.add(
                "SA101",
                f"invariant {invariant.name!r} mentions unknown "
                f"component(s) {', '.join(unknown)}",
                inv_entry.expr_span,
                path,
            )
            continue
        model.invariants.append(_InvariantItem(invariant, inv_entry.span))

    action_spans: Dict[str, Span] = {}
    for act_entry in source.actions:
        try:
            removes, adds = _parse_operation(
                act_entry.operation, act_entry.span.line, act_entry.span
            )
        except ParseError as exc:
            message = re.sub(r"^line \d+: ", "", exc.args[0] if exc.args else str(exc))
            report.add("SA100", message, act_entry.span, path)
            continue
        try:
            cost = float(act_entry.cost_text)
        except ValueError:
            report.add(
                "SA100",
                f"action {act_entry.action_id!r} has a bad cost "
                f"{act_entry.cost_text!r}",
                act_entry.span,
                path,
            )
            continue
        if act_entry.action_id in action_spans:
            report.add(
                "SA106",
                f"duplicate action id {act_entry.action_id!r}",
                act_entry.span,
                path,
                related=[
                    Related("first declared here", action_spans[act_entry.action_id])
                ],
                fixes=[
                    delete_line_fix(
                        f"delete the duplicate {act_entry.action_id!r} line",
                        act_entry.span,
                    )
                ],
            )
            continue
        unknown = sorted((removes | adds) - model.universe.names)
        if unknown:
            report.add(
                "SA102",
                f"action {act_entry.action_id!r} uses unknown "
                f"component(s) {', '.join(unknown)}",
                act_entry.span,
                path,
            )
            continue
        try:
            action = AdaptiveAction(
                act_entry.action_id, removes, adds, cost, act_entry.description
            )
        except ActionError as exc:
            report.add(
                "SA100", f"ill-formed action: {exc}", act_entry.span, path
            )
            continue
        action_spans[act_entry.action_id] = act_entry.span
        model.actions.append(_ActionItem(action, act_entry.span))

    config_index: Dict[str, int] = {}
    named: Dict[str, Configuration] = {}
    for cfg_entry in source.configurations:
        value = cfg_entry.value
        if value in named:
            resolved = named[value]
        elif _looks_like_bits(value):
            if len(value) != len(model.universe):
                report.add(
                    "SA103",
                    f"configuration {cfg_entry.name!r}: bit vector {value!r} "
                    f"has width {len(value)}, universe has "
                    f"{len(model.universe)} component(s)",
                    cfg_entry.value_span,
                    path,
                )
                continue
            resolved = model.universe.from_bits(value)
        else:
            members = [p.strip() for p in value.split(",") if p.strip()]
            unknown = sorted(set(members) - model.universe.names)
            if unknown:
                report.add(
                    "SA104",
                    f"configuration {cfg_entry.name!r} references unknown "
                    f"component(s) {', '.join(unknown)}",
                    cfg_entry.value_span,
                    path,
                )
                continue
            resolved = Configuration(members)
        if cfg_entry.name in config_index:
            previous = model.configurations[config_index[cfg_entry.name]]
            report.add(
                "SA107",
                f"duplicate configuration name {cfg_entry.name!r} "
                "(this later value is the one used)",
                cfg_entry.span,
                path,
                related=[Related("first defined here", previous.span)],
                fixes=[
                    delete_line_fix(
                        f"delete the shadowed first {cfg_entry.name!r} "
                        "definition",
                        previous.span,
                    )
                ],
            )
            model.configurations[config_index[cfg_entry.name]] = _ConfigItem(
                cfg_entry.name, resolved, cfg_entry.span
            )
            named[cfg_entry.name] = resolved
            continue
        config_index[cfg_entry.name] = len(model.configurations)
        model.configurations.append(
            _ConfigItem(cfg_entry.name, resolved, cfg_entry.span)
        )
        named[cfg_entry.name] = resolved

    model.ccs = list(source.ccs)

    property_spans: Dict[str, Span] = {}
    for prop_entry in source.properties:
        try:
            formula = parse_property(prop_entry.formula_text)
        except ParseError as exc:
            span = prop_entry.formula_span
            if exc.position:
                span = Span(
                    span.line,
                    span.column + exc.position,
                    span.line,
                    span.end_column,
                )
            report.add(
                "SA100",
                f"bad property formula {prop_entry.formula_text!r}: "
                f"{exc.args[0] if exc.args else exc}",
                span,
                path,
            )
            continue
        unknown = sorted(formula.atoms() - model.universe.names)
        if unknown:
            report.add(
                "SA505",
                f"property {prop_entry.name!r} mentions unknown "
                f"component(s) {', '.join(unknown)}",
                prop_entry.formula_span,
                path,
            )
            continue
        if prop_entry.name in property_spans:
            report.add(
                "SA100",
                f"duplicate property {prop_entry.name!r}",
                prop_entry.span,
                path,
                related=[
                    Related("first declared here", property_spans[prop_entry.name])
                ],
            )
            continue
        property_spans[prop_entry.name] = prop_entry.span
        model.properties.append(
            _PropertyItem(prop_entry.name, formula, prop_entry.span)
        )

    # SA606: a [conflicts] pair naming an action the library does not
    # have (strict build() raises here; the linter reports and drops).
    for conflict_entry in source.conflicts:
        unknown = sorted(
            aid for aid in conflict_entry.actions if aid not in action_spans
        )
        if unknown:
            report.add(
                "SA606",
                f"conflicts entry names unknown action(s) "
                f"{', '.join(repr(aid) for aid in unknown)}",
                conflict_entry.span,
                path,
                fixes=[
                    delete_line_fix(
                        "delete the conflicts entry naming unknown actions",
                        conflict_entry.span,
                    )
                ],
            )
            continue
        pair = (
            min(conflict_entry.actions),
            max(conflict_entry.actions),
        )
        if pair not in model.conflicts:
            model.conflicts.append(pair)

    # SA108: components no invariant constrains and no action touches can
    # never participate in (or gate) an adaptation — dead weight that
    # doubles the safe space per component.
    if model.invariants or model.actions:
        referenced: Set[str] = set()
        for item in model.invariants:
            referenced |= item.invariant.atoms()
        for act_item in model.actions:
            referenced |= act_item.action.touched
        width = len(model.universe)
        for index, name in enumerate(model.universe.order):
            if name in referenced:
                continue
            # The fix drops the declaration *and* splices the component's
            # bit out of every full-width bit-vector configuration value,
            # so the shrunk universe does not cascade into SA103 errors.
            splices = []
            for cfg_entry in source.configurations:
                value = cfg_entry.value
                if not _looks_like_bits(value) or len(value) != width:
                    continue
                vspan = cfg_entry.value_span
                splices.append(
                    Edit(
                        Span(
                            vspan.line,
                            vspan.column + index,
                            vspan.line,
                            vspan.column + index + 1,
                        ),
                        "",
                    )
                )
            report.add(
                "SA108",
                f"component {name!r} is not constrained by any invariant "
                "nor touched by any action",
                seen[name],
                path,
                fixes=[
                    delete_line_fix(
                        f"delete unused component {name!r} (and its bit in "
                        "every bit-vector configuration)",
                        seen[name],
                        extra=splices,
                    )
                ],
            )
    return model


def _looks_like_bits(value: str) -> bool:
    return bool(value) and all(ch in "01" for ch in value)


# -- stage 2: invariant semantics (SA2xx) ---------------------------------------


def _check_invariants(model: _Model, report: LintReport, path: Optional[str]) -> None:
    universe = model.universe
    # each invariant is compiled once; a pair's conjunction combines the
    # two closures instead of compiling both expressions again
    compiled: List[Tuple[_InvariantItem, MaskFn, FrozenSet[str]]] = []
    for item in model.invariants:
        fn = compile_expr(item.invariant.expr, universe.atom_bits)
        atoms = item.invariant.atoms() & universe.names
        compiled.append((item, fn, atoms))
        profile = _profile(fn, atoms, universe)
        if profile is None:
            report.skipped.append(
                f"SA201/SA202 skipped for {item.invariant.name!r}: "
                f"more than {MAX_SAT_ATOMS} atoms"
            )
            continue
        satisfiable, tautology = profile
        if not satisfiable:
            item.dropped = True
            report.add(
                "SA202",
                f"invariant {item.invariant.name!r} is unsatisfiable: no "
                "configuration can ever be safe while it is declared "
                "(excluded from further analysis)",
                item.span,
                path,
            )
        elif tautology:
            report.add(
                "SA201",
                f"invariant {item.invariant.name!r} is a tautology: it holds "
                "in every configuration and constrains nothing",
                item.span,
                path,
            )

    # Pairwise conflicts among individually-satisfiable invariants: both
    # hold somewhere, but never together — the safe space is empty even
    # though every line looks reasonable on its own.  Only overlapping
    # atom sets can conflict (disjoint expressions compose freely).
    alive = [entry for entry in compiled if not entry[0].dropped]
    for i, (first, first_fn, first_atoms) in enumerate(alive):
        if first.dropped:
            continue
        for second, second_fn, second_atoms in alive[i + 1:]:
            if second.dropped:
                continue
            if not (first.invariant.atoms() & second.invariant.atoms()):
                continue
            profile = _profile(
                _both(first_fn, second_fn), first_atoms | second_atoms, universe
            )
            if profile is not None and not profile[0]:
                second.dropped = True
                report.add(
                    "SA203",
                    f"invariants {first.invariant.name!r} and "
                    f"{second.invariant.name!r} are mutually unsatisfiable — "
                    "together they empty the safe space (the second is "
                    "excluded from further analysis)",
                    second.span,
                    path,
                    related=[Related("conflicts with this invariant", first.span)],
                )

    if model.actions:
        touched: Set[str] = set()
        for act_item in model.actions:
            touched |= act_item.action.touched
        for item in model.invariants:
            if item.dropped:
                continue
            atoms = item.invariant.atoms() & model.universe.names
            if atoms and not (atoms & touched):
                report.add(
                    "SA204",
                    f"invariant {item.invariant.name!r} mentions only "
                    "components no action touches: adaptation can never "
                    "violate (or be constrained by) it",
                    item.span,
                    path,
                )


# -- stage 3: action/SAG analysis (SA3xx) ---------------------------------------


@dataclass
class SafeFactor:
    """One collaborative set's factor of the safe space (paper §7).

    No invariant and no action spans two collaborative sets, so the safe
    space is the Cartesian product of the factors' safe projections and
    every SAG arc moves exactly one factor.  Masks stay in the universe's
    own bit encoding, with every bit outside :attr:`mask` clear.
    """

    #: the set's component bits
    mask: int
    #: safe projections, ascending
    safe_masks: Tuple[int, ...]
    safe_set: FrozenSet[int]
    #: indices into ``model.actions`` of the actions touching the set
    actions: Tuple[int, ...]


def _safe_factors(model: _Model, planner: AdaptationPlanner) -> List[SafeFactor]:
    """Each collaborative set's safe projections, enumerated on its own."""
    universe = model.universe
    space = planner.space
    groups = collaborative_sets(
        universe, space.invariants, planner.actions, model.conflicts
    )
    factor_of: Dict[str, int] = {}
    for index, group in enumerate(groups):
        for name in group:
            factor_of[name] = index
    members: List[List[int]] = [[] for _ in groups]
    for index, item in enumerate(model.actions):
        members[factor_of[next(iter(item.action.touched))]].append(index)
    factors: List[SafeFactor] = []
    for group, actions in zip(groups, members):
        safe_masks = space.projections(group)
        factors.append(
            SafeFactor(
                universe.mask_of_names(group),
                safe_masks,
                frozenset(safe_masks),
                tuple(actions),
            )
        )
    return factors


def _check_actions(
    model: _Model,
    report: LintReport,
    path: Optional[str],
    max_enum_components: Optional[int] = None,
    fixes_enabled: bool = False,
) -> Optional[List[SafeFactor]]:
    """SA3xx, one collaborative set at a time.

    Every verdict is composed exactly from the sets' own safe spaces and
    arcs (DESIGN.md §17).  Returns the factors when the safe space was
    enumerated (the SA6xx stage reuses them), ``None`` above the cap or
    on an empty safe space."""
    cap = MAX_ENUM_COMPONENTS if max_enum_components is None else max_enum_components
    universe = model.universe
    # SA303/SA304 need only the action library — they run regardless of
    # universe size, so their findings survive past the enumeration cap.
    _check_library_actions(model, report, path)
    if len(universe) > cap:
        message = (
            f"SA3xx skipped: {len(universe)} components exceed the "
            f"{cap}-component enumeration cap (SA301/SA302/SA305 only; "
            "named-configuration checks ran lazily)"
        )
        report.skipped.append(message)
        report.add(
            "SA307",
            f"full safe-space analysis (SA301/SA302/SA305) skipped: "
            f"{len(universe)} components exceed the {cap}-component "
            "enumeration cap; named-configuration safety (SA205) and "
            "reachability (SA306) were checked by lazy frontier search "
            "instead — raise the cap with --max-enum-components to run "
            "the full analysis",
            model.section_span("components"),
            path,
        )
        _check_named_pairs_lazy(model, report, path, cap)
        return None
    factors = _safe_factors(model, model.planner(cap))
    if not all(factor.safe_masks for factor in factors):
        report.add(
            "SA203",
            "the invariant conjunction admits no safe configuration at all "
            "(empty safe space); structural analysis skipped",
            model.section_span("invariants"),
            path,
        )
        report.skipped.append("SA3xx skipped: empty safe space")
        return None
    total = math.prod(len(factor.safe_masks) for factor in factors)
    bits = universe.atom_bits

    # an action's global arcs are its factor's arcs times every other
    # factor's safe projections, so each verdict below is per factor;
    # findings go out in action order (the report sort is stable)
    owner: List[SafeFactor] = [factors[0]] * len(model.actions)
    for factor in factors:
        for index in factor.actions:
            owner[index] = factor
    arcs_by_action: List[FrozenSet[Tuple[int, int]]] = []
    for item, factor in zip(model.actions, owner):
        action = item.action
        applicable, arcs = action_arcs(
            factor.safe_masks, factor.safe_set, MaskedAction(action, bits)
        )
        arcs_by_action.append(frozenset(arcs))
        if arcs:
            continue
        if applicable == 0:
            detail = "it is never applicable from any safe configuration"
        else:
            detail = (
                f"it is applicable from "
                f"{applicable * (total // len(factor.safe_masks))} safe "
                "configuration(s) but every result violates the invariants"
            )
        report.add(
            "SA301",
            f"dead action {action.action_id!r}: {detail}",
            item.span,
            path,
            fixes=(
                [
                    delete_line_fix(
                        f"delete dead action {action.action_id!r}",
                        item.span,
                    )
                ]
                if fixes_enabled
                else []
            ),
        )

    # an arc moves its action's own set, so only a same-set action can
    # realize every arc of a live one
    for index, (item, factor) in enumerate(zip(model.actions, owner)):
        arc_set = arcs_by_action[index]
        if not arc_set:
            continue  # dead actions already reported
        for other_index in factor.actions:
            other = model.actions[other_index]
            if other_index == index or other.action.cost >= item.action.cost:
                continue
            if arc_set <= arcs_by_action[other_index]:
                report.add(
                    "SA302",
                    f"action {item.action.action_id!r} is dominated: "
                    f"{other.action.action_id!r} realizes every one of its "
                    f"safe arcs at cost {other.action.cost:g} < "
                    f"{item.action.cost:g}",
                    item.span,
                    path,
                    related=[Related("dominating action", other.span)],
                    fixes=(
                        [
                            delete_line_fix(
                                f"delete dominated action "
                                f"{item.action.action_id!r}",
                                item.span,
                            )
                        ]
                        if fixes_enabled
                        else []
                    ),
                )
                break

    adjacency: List[Dict[int, Set[int]]] = []
    for factor in factors:
        successors: Dict[int, Set[int]] = {mask: set() for mask in factor.safe_masks}
        for index in factor.actions:
            for src, dst in arcs_by_action[index]:
                successors[src].add(dst)
        adjacency.append(successors)
    _check_connectivity(model, report, path, factors, adjacency)
    _check_named_pairs(model, report, path, factors, adjacency)
    return factors


def _check_library_actions(
    model: _Model, report: LintReport, path: Optional[str]
) -> None:
    """SA303/SA304: action-library-only checks (no safe space needed)."""
    for item in model.actions:
        if item.action.cost == 0:
            report.add(
                "SA303",
                f"action {item.action.action_id!r} has zero cost: "
                "minimum-path ties become ambiguous and free cycles enter "
                "the SAG",
                item.span,
                path,
            )

    # Asymmetric replaces: §4.4 rollback re-routes through the library —
    # a replace with no declared inverse leaves only synthesized undo
    # actions (which the planner cannot route through).
    deltas = {
        (item.action.removes, item.action.adds) for item in model.actions
    }
    for item in model.actions:
        action = item.action
        if not (action.removes and action.adds):
            continue
        if len(action.removes) != 1 or len(action.adds) != 1:
            continue
        if (action.adds, action.removes) not in deltas:
            report.add(
                "SA304",
                f"replace {action.action_id!r} "
                f"({action.operation_text()}) has no inverse replace in the "
                "library: once committed, planned rollback cannot route back",
                item.span,
                path,
            )


def _check_connectivity(
    model: _Model,
    report: LintReport,
    path: Optional[str],
    factors: Sequence[SafeFactor],
    adjacency: Sequence[Dict[int, Set[int]]],
) -> None:
    """SA305 on the product of the factors' sub-SAGs.

    The weak components of a Cartesian product of graphs are the
    products of the factors' weak components: a group's size is the
    product of its factors' group sizes, and its smallest mask the sum of
    their smallest projections (their bits are disjoint).
    """
    per_factor: List[List[Tuple[int, int]]] = []
    for factor, successors in zip(factors, adjacency):
        uf = UnionFind(factor.safe_masks)
        for src, targets in successors.items():
            for dst in targets:
                uf.union(src, dst)
        # [size, smallest projection] per group; masks ascend, so the
        # first member seen is the smallest
        groups: Dict[Hashable, List[int]] = {}
        for mask in factor.safe_masks:
            groups.setdefault(uf.find(mask), [0, mask])[0] += 1
        per_factor.append([(size, low) for size, low in groups.values()])
    if all(len(groups) == 1 for groups in per_factor):
        return
    ordered = sorted(
        (
            (math.prod(size for size, _ in combo), sum(low for _, low in combo))
            for combo in itertools.product(*per_factor)
        ),
        key=lambda group: (-group[0], group[1]),
    )
    sizes = ", ".join(str(size) for size, _ in ordered)
    sample = model.universe.from_mask(ordered[-1][1])
    report.add(
        "SA305",
        f"the Safe Adaptation Graph is disconnected: {len(ordered)} "
        f"component group(s) of sizes {sizes}; e.g. "
        f"{model.universe.to_bits(sample)} {sample.label()} cannot reach "
        "the rest",
        model.section_span("actions"),
        path,
    )


def _check_named_pairs(
    model: _Model,
    report: LintReport,
    path: Optional[str],
    factors: Sequence[SafeFactor],
    adjacency: Sequence[Dict[int, Set[int]]],
) -> None:
    """SA205/SA306: a named configuration is safe iff every projection
    is, and reaches another iff every projection reaches the other's."""
    universe = model.universe
    endpoints: List[Tuple[_ConfigItem, int]] = []
    for item in model.configurations:
        try:
            mask = universe.mask_of(item.configuration)
        except Exception:
            continue
        if not all(mask & factor.mask in factor.safe_set for factor in factors):
            report.add(
                "SA205",
                f"named configuration {item.name!r} violates the invariants: "
                f"{model.kept_invariants().explain(item.configuration)}",
                item.span,
                path,
            )
            continue
        endpoints.append((item, mask))

    reach_cache: Dict[Tuple[int, int], Set[int]] = {}

    def reaches(start: int, goal: int) -> bool:
        for index, (factor, successors) in enumerate(zip(factors, adjacency)):
            src = start & factor.mask
            dst = goal & factor.mask
            if src == dst:
                continue
            seen = reach_cache.get((index, src))
            if seen is None:
                seen = {src}
                frontier = [src]
                while frontier:
                    for nxt in successors[frontier.pop()]:
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
                reach_cache[(index, src)] = seen
            if dst not in seen:
                return False
        return True

    for index, (first, first_mask) in enumerate(endpoints):
        for second, second_mask in endpoints[index + 1:]:
            if first_mask == second_mask:
                continue
            forward = reaches(first_mask, second_mask)
            backward = reaches(second_mask, first_mask)
            if not forward and not backward:
                report.add(
                    "SA306",
                    f"no safe adaptation path exists between configurations "
                    f"{first.name!r} and {second.name!r} in either direction",
                    second.span,
                    path,
                    related=[Related("the other endpoint", first.span)],
                )
            elif not forward or not backward:
                src, dst = (second, first) if forward else (first, second)
                report.add(
                    "SA306",
                    f"configuration {dst.name!r} is unreachable from "
                    f"{src.name!r} (one-way: only the reverse direction has "
                    "a safe path)",
                    dst.span,
                    path,
                    related=[Related("unreachable from here", src.span)],
                    severity=Severity.NOTE,
                )


#: node budget for one lazy reachability search above the enumeration
#: cap; an exhausted search is *inconclusive* (recorded in
#: ``report.skipped``), never a finding
LAZY_REACH_EXPANSIONS = 20_000


def _check_named_pairs_lazy(
    model: _Model, report: LintReport, path: Optional[str], cap: int
) -> None:
    """SA205/SA306 for universes too large to enumerate.

    Named-configuration safety is a point query against the compiled
    invariant closure; pairwise reachability is a budget-bounded BFS
    over the implicit SAG (:attr:`LazySAG.successors
    <repro.core.sag.LazySAG.successors>` of the run's planner, which
    reads the arcs off the collaborative factors when each fits *cap*).  Verdicts are tri-state: a search that finds the other
    endpoint proves reachability, a search that exhausts the reachable
    component without finding it proves unreachability, and a search
    that runs out of budget proves nothing — the pair is recorded as
    skipped rather than misreported.
    """
    universe = model.universe
    planner = model.planner(cap)
    space = planner.space
    invariants = planner.invariants
    successors = planner.lazy_sag.successors

    endpoints: List[Tuple[_ConfigItem, int]] = []
    for item in model.configurations:
        try:
            mask = universe.mask_of(item.configuration)
        except Exception:
            continue
        if not space.is_safe_mask(mask):
            report.add(
                "SA205",
                f"named configuration {item.name!r} violates the invariants: "
                f"{invariants.explain(item.configuration)}",
                item.span,
                path,
            )
            continue
        endpoints.append((item, mask))

    # (reached set, search complete?) per start mask
    reach_cache: Dict[int, Tuple[Set[int], bool]] = {}

    def reachable(start: int) -> Tuple[Set[int], bool]:
        cached = reach_cache.get(start)
        if cached is None:
            seen = {start}
            frontier = [start]
            budget = LAZY_REACH_EXPANSIONS
            complete = True
            while frontier:
                if budget <= 0:
                    complete = False
                    break
                budget -= 1
                node = frontier.pop()
                for _action_id, _cost, nxt in successors(node):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            cached = (seen, complete)
            reach_cache[start] = cached
        return cached

    def verdict(start: int, goal: int) -> Optional[bool]:
        seen, complete = reachable(start)
        if goal in seen:
            return True
        return False if complete else None

    for index, (first, first_mask) in enumerate(endpoints):
        for second, second_mask in endpoints[index + 1:]:
            if first_mask == second_mask:
                continue
            forward = verdict(first_mask, second_mask)
            backward = verdict(second_mask, first_mask)
            if forward is True and backward is True:
                continue
            if forward is None or backward is None:
                report.skipped.append(
                    f"SA306 inconclusive for {first.name!r} <-> "
                    f"{second.name!r}: lazy reachability budget "
                    f"({LAZY_REACH_EXPANSIONS} nodes) exhausted"
                )
                continue
            if not forward and not backward:
                report.add(
                    "SA306",
                    f"no safe adaptation path exists between configurations "
                    f"{first.name!r} and {second.name!r} in either direction",
                    second.span,
                    path,
                    related=[Related("the other endpoint", first.span)],
                )
            else:
                src, dst = (second, first) if forward else (first, second)
                report.add(
                    "SA306",
                    f"configuration {dst.name!r} is unreachable from "
                    f"{src.name!r} (one-way: only the reverse direction has "
                    "a safe path)",
                    dst.span,
                    path,
                    related=[Related("unreachable from here", src.span)],
                    severity=Severity.NOTE,
                )


# -- stage 4: temporal properties (SA5xx) ---------------------------------------


def _check_properties(
    model: _Model,
    report: LintReport,
    path: Optional[str],
    max_enum_components: Optional[int] = None,
) -> None:
    """Path-quantified property checks over the ``[properties]`` section.

    Each property is compiled once (:class:`~repro.ltl.compile.CompiledProperty`)
    and then checked at two granularities:

    * **SA501** — single-state satisfiability: a property that holds on
      *no* safe configuration fails every path check at the very first
      configuration, which almost always means the formula (not the
      paths) is wrong.  Needs the enumerated safe space, so above the
      enumeration cap it is skipped (recorded in ``report.skipped``).
    * **SA502/SA503** — for every ordered pair of distinct safe named
      configurations, ``∀ k-best paths`` checking via
      :func:`repro.ltl.paths.verify_paths`: a violation on the optimal
      path is SA502, on a later alternate SA503 (with the minimized
      counterexample prefix in the message).  Above the cap the check
      runs on the lazy frontier with the default expansion budget;
      an exhausted budget yields **SA504** (a note — inconclusive is
      not a finding).

    Properties that already fired SA501 are excluded from the path
    checks: every path verdict would restate the same defect.
    """
    if not model.properties:
        return
    from repro.ltl.compile import CompiledProperty
    from repro.ltl.paths import DEFAULT_K, verify_paths

    cap = MAX_ENUM_COMPONENTS if max_enum_components is None else max_enum_components
    universe = model.universe
    bits = universe.atom_bits
    compiled = {
        item.name: CompiledProperty(item.formula, bits)
        for item in model.properties
    }

    # the planner's size predicate picks eager or lazy, here as in
    # planning and verify-paths; the run's cap is the one it reads
    planner = model.planner(cap)
    space = planner.space
    unsatisfiable: Set[str] = set()
    if planner.oversized:
        report.skipped.append(
            f"SA501 skipped: {len(universe)} components exceed the "
            f"{cap}-component enumeration cap"
        )
    else:
        safe_masks = space.enumerate_masks()
        if not safe_masks:
            report.skipped.append("SA5xx skipped: empty safe space")
            return
        for item in model.properties:
            holds_on = compiled[item.name].holds_on
            if not any(holds_on(mask) for mask in safe_masks):
                unsatisfiable.add(item.name)
                report.add(
                    "SA501",
                    f"property {item.name!r} holds on none of the "
                    f"{len(safe_masks)} safe configuration(s): every "
                    "path-quantified check fails at its first "
                    "configuration, so the formula itself is the defect",
                    item.span,
                    path,
                )

    endpoints: List[_ConfigItem] = []
    for cfg_item in model.configurations:
        try:
            mask = universe.mask_of(cfg_item.configuration)
        except Exception:
            continue
        if space.is_safe_mask(mask):
            endpoints.append(cfg_item)

    if len(endpoints) < 2:
        return
    for prop in model.properties:
        if prop.name in unsatisfiable:
            continue
        for src_item in endpoints:
            for dst_item in endpoints:
                if src_item is dst_item:
                    continue
                verdict = verify_paths(
                    planner, src_item.configuration, dst_item.configuration,
                    prop.formula, compiled=compiled[prop.name],
                )
                if verdict.holds is None:
                    report.add(
                        "SA504",
                        f"path-quantified check of property {prop.name!r} "
                        f"from {src_item.name!r} to {dst_item.name!r} is "
                        f"inconclusive: {verdict.reason} — raise the budget "
                        "or check the pair with 'repro verify-paths'",
                        prop.span,
                        path,
                    )
                    continue
                if verdict.holds:
                    continue
                counter = verdict.counterexample
                prefix = ", ".join(counter.action_ids) or "<empty>"
                related = [
                    Related("path source", src_item.span),
                    Related("path target", dst_item.span),
                ]
                if verdict.paths_checked == 1:
                    report.add(
                        "SA502",
                        f"property {prop.name!r} is violated on the optimal "
                        f"adaptation path from {src_item.name!r} to "
                        f"{dst_item.name!r}: fails at configuration "
                        f"{verdict.violation_index + 1} after step(s) "
                        f"[{prefix}]",
                        prop.span,
                        path,
                        related=related,
                    )
                else:
                    report.add(
                        "SA503",
                        f"property {prop.name!r} is violated on k-best path "
                        f"{verdict.paths_checked} (k={DEFAULT_K}) from "
                        f"{src_item.name!r} to {dst_item.name!r}: "
                        f"counterexample prefix [{prefix}] (cost "
                        f"{counter.total_cost:g}) fails at configuration "
                        f"{verdict.violation_index + 1}",
                        prop.span,
                        path,
                        related=related,
                    )


# -- stage 5: runtime contracts (SA4xx) -----------------------------------------


def _check_contracts(model: _Model, report: LintReport, path: Optional[str]) -> None:
    for index, entry in enumerate(model.ccs):
        for other in model.ccs[index + 1:]:
            if entry.actions == other.actions:
                report.add(
                    "SA401",
                    f"ccs sequence {other.label or other.actions!r} duplicates "
                    f"an earlier allowed sequence",
                    other.span,
                    path,
                    related=[Related("first allowed here", entry.span)],
                )
            elif entry.actions == other.actions[: len(entry.actions)]:
                report.add(
                    "SA401",
                    f"ccs sequence {entry.label or entry.actions!r} is a "
                    f"proper prefix of {other.label or other.actions!r}: a "
                    '"complete" verdict is never final, so online '
                    "enforcement cannot trust it",
                    entry.span,
                    path,
                    related=[Related("extended by this sequence", other.span)],
                )
            elif other.actions == entry.actions[: len(other.actions)]:
                report.add(
                    "SA401",
                    f"ccs sequence {other.label or other.actions!r} is a "
                    f"proper prefix of {entry.label or entry.actions!r}: a "
                    '"complete" verdict is never final, so online '
                    "enforcement cannot trust it",
                    other.span,
                    path,
                    related=[Related("extended by this sequence", entry.span)],
                )

    universe = model.universe
    all_processes = frozenset(universe.processes())
    invariants = model.kept_invariants()
    radii = blast_radii(universe, invariants, (item.action for item in model.actions))
    for item, radius in zip(model.actions, radii):
        action = item.action
        participants = action.participants(universe)
        if len(all_processes) > 1 and participants == all_processes:
            report.add(
                "SA402",
                f"action {action.action_id!r} touches components on every "
                f"process ({', '.join(sorted(participants))}): realizing it "
                "blocks the whole system at once, so no process stays "
                "available during the adaptation",
                item.span,
                path,
            )
        beyond = radius - participants
        if beyond:
            at_risk = invariants_at_risk(invariants, action)
            report.add(
                "SA403",
                f"action {action.action_id!r} has a blast radius beyond its "
                f"participants: processes {', '.join(sorted(beyond))} host "
                f"components coupled through {len(at_risk)} at-risk "
                "invariant(s) and must be watched during realization",
                item.span,
                path,
            )


# -- entry points ---------------------------------------------------------------


def analyze_source(
    source: ManifestSource,
    max_enum_components: Optional[int] = None,
) -> LintReport:
    """Run the full SA1xx–SA4xx pipeline over a scanned manifest.

    Args:
        max_enum_components: per-run override of the SA3xx enumeration
            cap (``None`` uses :data:`MAX_ENUM_COMPONENTS`).
    """
    report = LintReport()
    model = _collect(source, report)
    if model is not None:
        path = source.path
        cap = (
            MAX_ENUM_COMPONENTS
            if max_enum_components is None
            else max_enum_components
        )
        _check_invariants(model, report, path)
        action_info = _check_actions(
            model,
            report,
            path,
            max_enum_components=max_enum_components,
            fixes_enabled=True,
        )
        check_interference(
            model,
            report,
            path,
            action_info,
            cap_exceeded=len(model.universe) > cap,
            line_count=source.line_count,
            fixes_enabled=True,
        )
        _check_properties(
            model, report, path, max_enum_components=max_enum_components
        )
        _check_contracts(model, report, path)
    report.sort()
    return report


def analyze_system(
    manifest: SystemManifest,
    path: Optional[str] = None,
    max_enum_components: Optional[int] = None,
) -> LintReport:
    """Analyze an in-memory ``P`` (semantic stages SA2xx–SA4xx + SA108).

    Well-formedness is enforced by the constructors for in-memory models;
    spans come from ``manifest.spans`` when the manifest was parsed from
    a file, and default to line 1 otherwise.
    """
    report = LintReport()
    spans = manifest.spans
    path = path if path is not None else spans.path
    model = _Model(universe=manifest.universe, sections=dict(spans.sections))
    invariant_spans = spans.invariants or ()
    for index, invariant in enumerate(manifest.invariants):
        span = (
            invariant_spans[index]
            if index < len(invariant_spans)
            else Span(1, 1)
        )
        model.invariants.append(_InvariantItem(invariant, span))
    for action in manifest.actions:
        model.actions.append(
            _ActionItem(action, spans.actions.get(action.action_id, Span(1, 1)))
        )
    for name, configuration in manifest.configurations.items():
        model.configurations.append(
            _ConfigItem(
                name, configuration, spans.configurations.get(name, Span(1, 1))
            )
        )
    if manifest.ccs is not None:
        model.ccs = [
            CCSEntry(label=f"seg{index}", actions=sequence, span=Span(1, 1))
            for index, sequence in enumerate(manifest.ccs.allowed)
        ]
    for name, formula in manifest.properties.items():
        model.properties.append(
            _PropertyItem(name, formula, spans.properties.get(name, Span(1, 1)))
        )
    if model.invariants or model.actions:
        referenced: Set[str] = set()
        for item in model.invariants:
            referenced |= item.invariant.atoms()
        for act_item in model.actions:
            referenced |= act_item.action.touched
        for name in model.universe.order:
            if name not in referenced:
                report.add(
                    "SA108",
                    f"component {name!r} is not constrained by any invariant "
                    "nor touched by any action",
                    spans.components.get(name, Span(1, 1)),
                    path,
                )
    model.conflicts = list(manifest.conflicts)
    cap = (
        MAX_ENUM_COMPONENTS
        if max_enum_components is None
        else max_enum_components
    )
    _check_invariants(model, report, path)
    action_info = _check_actions(
        model,
        report,
        path,
        max_enum_components=max_enum_components,
    )
    check_interference(
        model,
        report,
        path,
        action_info,
        cap_exceeded=len(model.universe) > cap,
    )
    _check_properties(
        model, report, path, max_enum_components=max_enum_components
    )
    _check_contracts(model, report, path)
    report.sort()
    return report
