"""Reference global SA3xx stage and SA601/SA603 sweep (slow oracle).

The engine the product ran before it linted one collaborative set at a
time: :func:`reference_check_actions` enumerates the full safe space
(the product of every set's safe projections) and derives SA301, SA302,
SA305, SA205 and SA306 from the global arcs;
:func:`reference_check_interference` sweeps every global safe source.
Both are kept verbatim.  :func:`reference_check_actions` returns
``(safe_masks, safe_set)``, the global form
:func:`reference_check_interference` and
:func:`tests.oracles.interference_reference.reference_check_interference`
take as ``action_info``.  :func:`global_engine` installs the pair in
:mod:`repro.lint.checks`; the differential suite in
``tests/lint/test_lint_decomposed.py`` pins every rendering of the
per-set product to it, byte for byte.

SA303/SA304, the lazy named-pair check above the cap, SA602, SA604,
SA605 and the message helpers are shared with the product.  The sweep
reads the pair-source budget from :mod:`repro.lint.interference`, so one
patch of ``MAX_PAIR_SOURCES`` moves both engines.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple
from unittest import mock

import repro.lint.checks as checks
import repro.lint.interference as interference
from repro.core.actions import MaskedAction
from repro.lint.checks import (
    MAX_ENUM_COMPONENTS,
    _check_library_actions,
    _check_named_pairs_lazy,
    _ConfigItem,
    _Model,
    action_arcs,
)
from repro.lint.diagnostics import LintReport, Related, Severity
from repro.lint.fixes import delete_line_fix
from repro.lint.interference import (
    _check_blocking_overlap,
    _check_conflicting_touch,
    _report_pair_witness,
)
from tests.oracles.space_reference import backtracking_masks


@contextlib.contextmanager
def global_engine(sweep=None):
    """Lint with the global stage installed; *sweep* replaces the
    SA601/SA603 sweep (default: :func:`reference_check_interference`)."""
    with mock.patch.object(
        checks, "_check_actions", reference_check_actions
    ), mock.patch.object(
        checks, "check_interference", sweep or reference_check_interference
    ):
        yield


def reference_check_actions(
    model: _Model,
    report: LintReport,
    path: Optional[str],
    max_enum_components: Optional[int] = None,
    fixes_enabled: bool = False,
) -> Optional[Tuple[List[int], FrozenSet[int]]]:
    """SA3xx.  Returns ``(safe_masks, safe_set)`` when the safe space was
    enumerated (the SA6xx stage reuses it), ``None`` above the cap or on
    an empty safe space."""
    from repro.core.space import SafeConfigurationSpace

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
    # the whole-universe enumeration, independent of the per-set factors
    space = SafeConfigurationSpace(universe, model.kept_invariants())
    safe_masks = backtracking_masks(space)
    if not safe_masks:
        report.add(
            "SA203",
            "the invariant conjunction admits no safe configuration at all "
            "(empty safe space); structural analysis skipped",
            model.section_span("invariants"),
            path,
        )
        report.skipped.append("SA3xx skipped: empty safe space")
        return None
    safe_set = frozenset(safe_masks)
    bits = universe.atom_bits

    arcs_by_action: Dict[str, Tuple[Tuple[int, int], ...]] = {}
    for item in model.actions:
        action = item.action
        applicable, arcs = action_arcs(safe_masks, safe_set, MaskedAction(action, bits))
        arcs_by_action[action.action_id] = arcs
        if not arcs:
            if applicable == 0:
                detail = "it is never applicable from any safe configuration"
            else:
                detail = (
                    f"it is applicable from {applicable} safe "
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

    for item in model.actions:
        arcs = arcs_by_action[item.action.action_id]
        if not arcs:
            continue  # dead actions already reported
        arc_set = set(arcs)
        for other in model.actions:
            if other is item:
                continue
            if other.action.cost >= item.action.cost:
                continue
            if arc_set <= set(arcs_by_action[other.action.action_id]):
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

    _check_connectivity(model, report, path, safe_masks, arcs_by_action)
    _check_named_pairs(model, report, path, space, arcs_by_action)
    return safe_masks, safe_set


def _check_connectivity(
    model: _Model,
    report: LintReport,
    path: Optional[str],
    safe_masks: Sequence[int],
    arcs_by_action: Dict[str, Tuple[Tuple[int, int], ...]],
) -> None:
    parent: Dict[int, int] = {mask: mask for mask in safe_masks}

    def find(mask: int) -> int:
        root = mask
        while parent[root] != root:
            root = parent[root]
        while parent[mask] != root:
            parent[mask], mask = root, parent[mask]
        return root

    for arcs in arcs_by_action.values():
        for src, dst in arcs:
            parent[find(src)] = find(dst)

    groups: Dict[int, List[int]] = {}
    for mask in safe_masks:
        groups.setdefault(find(mask), []).append(mask)
    if len(groups) <= 1:
        return
    ordered = sorted(groups.values(), key=lambda g: (-len(g), min(g)))
    sizes = ", ".join(str(len(group)) for group in ordered)
    sample = model.universe.from_mask(min(ordered[-1]))
    report.add(
        "SA305",
        f"the Safe Adaptation Graph is disconnected: {len(groups)} "
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
    space,
    arcs_by_action: Dict[str, Tuple[Tuple[int, int], ...]],
) -> None:
    universe = model.universe
    adjacency: Dict[int, Set[int]] = {}
    for arcs in arcs_by_action.values():
        for src, dst in arcs:
            adjacency.setdefault(src, set()).add(dst)

    def reachable(start: int) -> Set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

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
                f"{model.kept_invariants().explain(item.configuration)}",
                item.span,
                path,
            )
            continue
        endpoints.append((item, mask))

    reach_cache: Dict[int, Set[int]] = {}
    for index, (first, first_mask) in enumerate(endpoints):
        for second, second_mask in endpoints[index + 1:]:
            if first_mask == second_mask:
                continue
            if first_mask not in reach_cache:
                reach_cache[first_mask] = reachable(first_mask)
            if second_mask not in reach_cache:
                reach_cache[second_mask] = reachable(second_mask)
            forward = second_mask in reach_cache[first_mask]
            backward = first_mask in reach_cache[second_mask]
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


def reference_check_interference(
    model,
    report: LintReport,
    path: Optional[str],
    action_info: Optional[Tuple[Sequence[int], FrozenSet[int]]],
    *,
    cap_exceeded: bool = False,
    line_count: int = 0,
    fixes_enabled: bool = False,
) -> None:
    """Run the SA6xx pair checks over the surviving model.

    *action_info* is ``(safe_masks, safe_set)`` from the eager SA3xx
    enumeration, or ``None`` when that stage did not enumerate (empty
    safe space, or *cap_exceeded* above the component cap).
    """
    items = model.actions
    if len(items) < 2:
        return
    universe = model.universe
    bits = universe.atom_bits
    declared: Set[FrozenSet[str]] = {
        frozenset(pair) for pair in getattr(model, "conflicts", ())
    }

    masked = {
        item.action.action_id: MaskedAction(item.action, bits)
        for item in items
    }

    _check_blocking_overlap(model, report, path, declared, line_count, fixes_enabled)
    _check_conflicting_touch(
        model, report, path, masked, declared, line_count, fixes_enabled
    )

    pairs = len(items) * (len(items) - 1) // 2
    sources: Sequence[int] = ()
    is_safe: Optional[Callable[[int], bool]] = None
    restricted_reason = ""
    if action_info is not None:
        safe_masks, safe_set = action_info
        if pairs * len(safe_masks) <= interference.MAX_PAIR_SOURCES:
            sources = safe_masks
            is_safe = safe_set.__contains__
        else:
            restricted_reason = (
                f"{pairs} pair(s) x {len(safe_masks)} safe configuration(s) "
                f"exceed the {interference.MAX_PAIR_SOURCES} pair-source budget"
            )
    elif cap_exceeded:
        restricted_reason = (
            f"{len(universe)} components exceed the enumeration cap"
        )
    else:
        # Empty safe space: SA203 already reported; nothing to race over.
        return

    if restricted_reason:
        from repro.core.space import SafeConfigurationSpace

        space = SafeConfigurationSpace(universe, model.kept_invariants())
        is_safe = space.is_safe_mask
        candidates: List[int] = []
        for cfg_item in model.configurations:
            try:
                mask = universe.mask_of(cfg_item.configuration)
            except Exception:
                continue
            if mask not in candidates:
                candidates.append(mask)
        # one batched safety screen over the named configurations
        named: List[int] = [
            mask
            for mask, safe in zip(candidates, space.are_safe_masks(candidates))
            if safe
        ]
        sources = named
        report.add(
            "SA605",
            f"SA601/SA603 interference analysis restricted to the "
            f"{len(named)} named safe configuration(s): "
            f"{restricted_reason} — pairs with no named witness are "
            "inconclusive, not clean",
            model.section_span("actions"),
            path,
        )
        report.skipped.append(
            f"SA601/SA603 restricted to named configurations: "
            f"{restricted_reason}"
        )

    if not sources or is_safe is None:
        return

    # Fired from a mask m where it is applicable (m & touch == required),
    # an action flips exactly its touched bits.  Only a disjoint-touch pair
    # can race, and only from a source where exactly one first step stays
    # safe and the joint result is safe again (DESIGN.md §15), so each
    # source sweeps the library once and pairs its safe first steps with
    # its exiting ones.
    steps = [
        (m.required | m.forbidden, m.required)
        for m in (masked[item.action.action_id] for item in items)
    ]
    partners = [
        {
            j
            for j, y_item in enumerate(items)
            if not touch & steps[j][0]
            and frozenset((x_item.action.action_id, y_item.action.action_id))
            not in declared
        }
        for (touch, _), x_item in zip(steps, items)
    ]
    delta_index = {
        (item.action.removes, item.action.adds): i
        for i, item in enumerate(items)
    }
    inverse = [
        delta_index.get((item.action.adds, item.action.removes))
        for item in items
    ]
    # A race is SA603 exactly when the safe-first action p has a declared
    # inverse: it restores the source after p alone, and lands on the
    # partner's unsafe first step once both commit.  Per pair keep the
    # minimum ((SA603 first, popcount, mask), p, partner); sources are
    # distinct, so the minimum does not depend on sweep order.
    best: Dict[Tuple[int, int], Tuple[Tuple[int, int, int], int, int]] = {}
    for mask in sources:
        stays: List[Tuple[int, int]] = []
        exits: List[int] = []
        for i, (touch, required) in enumerate(steps):
            if mask & touch == required:
                mid = mask ^ touch
                if is_safe(mid):
                    stays.append((i, mid))
                else:
                    exits.append(i)
        if not exits:
            continue
        weight = mask.bit_count()
        for p, mid in stays:
            rank = (inverse[p] is None, weight, mask)
            for q in exits:
                if q in partners[p] and is_safe(mid ^ steps[q][0]):
                    pair = (p, q) if p < q else (q, p)
                    held = best.get(pair)
                    if held is None or rank < held[0]:
                        best[pair] = (rank, p, q)
    for (i, j), ((_, _, mask), p, q) in sorted(best.items()):
        inv = inverse[p]
        _report_pair_witness(
            model,
            report,
            path,
            items[i],
            items[j],
            mask,
            items[p],
            items[q],
            None if inv is None else items[inv],
            mask ^ steps[p][0] ^ steps[q][0],
            line_count,
            fixes_enabled,
        )
