"""Reference SA601/SA603 race sweep (slow oracle).

The pair-major scan the product used before the source-major sweep: for
every unordered action pair it walks every candidate source, fires both
orders with :func:`_run_order`, and offers each outcome to the pair's
:class:`_Witness`.  It races every co-applicable pair in full (blocking
and divergent outcomes included) and formats a failure message for every
failed order.  The differential suite in
``tests/lint/test_interference_oracle.py`` pins
:func:`repro.lint.interference.check_interference` to
:func:`reference_check_interference`: same diagnostics, messages, spans,
related locations and fixes.

SA602, SA604, SA605 and the message helpers are shared with the product.
"""

from __future__ import annotations

from typing import (
    Callable,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.actions import MaskedAction
from repro.lint.diagnostics import LintReport, Related
from repro.lint.interference import (
    MAX_PAIR_SOURCES,
    _check_blocking_overlap,
    _check_conflicting_touch,
    _describe,
    _serialize_fixes,
)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class _Witness:
    """Best (most specific, then smallest) finding for one pair."""

    #: kind priority: the sharper diagnosis wins the pair
    PRIORITY = {"lost-inverse": 3, "divergent": 2, "order": 1}

    def __init__(self) -> None:
        self.kind: Optional[str] = None
        self.source = 0
        self.payload: Tuple = ()

    def offer(self, kind: str, source: int, payload: Tuple) -> None:
        if self.kind is not None:
            mine, theirs = self.PRIORITY[self.kind], self.PRIORITY[kind]
            if theirs < mine:
                return
            if theirs == mine and (
                (_popcount(source), source)
                >= (_popcount(self.source), self.source)
            ):
                return
        self.kind = kind
        self.source = source
        self.payload = payload


def _run_order(
    first: MaskedAction,
    second: MaskedAction,
    mask: int,
    is_safe: Callable[[int], bool],
) -> Tuple[bool, int, str]:
    """Fire *first* then *second* from *mask* (both applicable at *mask*).

    Returns ``(completed, last_mask, failure)`` where *failure* names the
    step that exited the safe space or blocked.
    """
    mid = first.apply_mask(mask)
    first_id = first.action.action_id
    second_id = second.action.action_id
    if not is_safe(mid):
        return False, mid, f"exits the safe space once {first_id!r} commits"
    if not second.is_applicable_mask(mid):
        return (
            False,
            mid,
            f"blocks: {second_id!r} is no longer applicable after "
            f"{first_id!r}",
        )
    final = second.apply_mask(mid)
    if not is_safe(final):
        return (
            False,
            final,
            f"exits the safe space once {second_id!r} also commits",
        )
    return True, final, ""


def _inverse_lost(
    inverse: Optional[MaskedAction],
    after_first: int,
    after_both: int,
    is_safe: Callable[[int], bool],
) -> bool:
    """True iff the declared inverse is viable at *after_first* but not
    once the concurrent partner commits (*after_both*)."""
    if inverse is None:
        return False

    def viable(mask: int) -> bool:
        return inverse.is_applicable_mask(mask) and is_safe(
            inverse.apply_mask(mask)
        )

    return viable(after_first) and not viable(after_both)


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
    # Declared-inverse lookup for SA603 (same key as the SA304 check).
    by_delta = {
        (item.action.removes, item.action.adds): item for item in items
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
        if pairs * len(safe_masks) <= MAX_PAIR_SOURCES:
            sources = safe_masks
            is_safe = safe_set.__contains__
        else:
            restricted_reason = (
                f"{pairs} pair(s) x {len(safe_masks)} safe configuration(s) "
                f"exceed the {MAX_PAIR_SOURCES} pair-source budget"
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

    for index, x_item in enumerate(items):
        mx = masked[x_item.action.action_id]
        inv_x = by_delta.get((x_item.action.adds, x_item.action.removes))
        for y_item in items[index + 1 :]:
            xid = x_item.action.action_id
            yid = y_item.action.action_id
            if frozenset((xid, yid)) in declared:
                continue
            my = masked[yid]
            inv_y = by_delta.get((y_item.action.adds, y_item.action.removes))
            witness = _Witness()
            for mask in sources:
                if not (
                    mx.is_applicable_mask(mask) and my.is_applicable_mask(mask)
                ):
                    continue
                ok_xy, final_xy, fail_xy = _run_order(mx, my, mask, is_safe)
                ok_yx, final_yx, fail_yx = _run_order(my, mx, mask, is_safe)
                if ok_xy and ok_yx:
                    if final_xy != final_yx:
                        witness.offer(
                            "divergent", mask, (final_xy, final_yx)
                        )
                    continue
                if not ok_xy and not ok_yx:
                    continue  # the race cannot start from here
                # Exactly one order completes: (p, q) is the safe order.
                if ok_xy:
                    p_item, q_item, final, fail = x_item, y_item, final_xy, fail_yx
                    inv_p, mp, mq = inv_x, mx, my
                else:
                    p_item, q_item, final, fail = y_item, x_item, final_yx, fail_xy
                    inv_p, mp, mq = inv_y, my, mx
                inverse = None if inv_p is None else masked[inv_p.action.action_id]
                if inverse is not None and inverse is not mq:
                    after_p = mp.apply_mask(mask)
                    if _inverse_lost(inverse, after_p, final, is_safe):
                        witness.offer(
                            "lost-inverse",
                            mask,
                            (p_item, q_item, inv_p, final),
                        )
                        continue
                witness.offer("order", mask, (p_item, q_item, final, fail))
            if witness.kind is None:
                continue
            _report_pair_witness(
                model,
                report,
                path,
                x_item,
                y_item,
                witness,
                line_count,
                fixes_enabled,
            )


def _report_pair_witness(
    model,
    report: LintReport,
    path: Optional[str],
    x_item,
    y_item,
    witness: _Witness,
    line_count: int,
    fixes_enabled: bool,
) -> None:
    universe = model.universe
    xid = x_item.action.action_id
    yid = y_item.action.action_id
    source = _describe(universe, witness.source)
    fixes = _serialize_fixes(xid, yid, line_count, fixes_enabled)
    if witness.kind == "divergent":
        final_xy, final_yx = witness.payload
        report.add(
            "SA601",
            f"actions {xid!r} and {yid!r} do not commute: from safe "
            f"configuration {source} the order {xid!r}, {yid!r} ends at "
            f"{_describe(universe, final_xy)} but {yid!r}, {xid!r} ends "
            f"at {_describe(universe, final_yx)} — concurrent managers "
            "must serialize the pair",
            x_item.span,
            path,
            related=[Related("races with this action", y_item.span)],
            fixes=fixes,
        )
    elif witness.kind == "order":
        p_item, q_item, final, fail = witness.payload
        pid = p_item.action.action_id
        qid = q_item.action.action_id
        report.add(
            "SA601",
            f"actions {xid!r} and {yid!r} race: from safe configuration "
            f"{source} the order {pid!r}, {qid!r} commits safely to "
            f"{_describe(universe, final)}, but the order {qid!r}, "
            f"{pid!r} {fail} — concurrent managers must serialize the "
            "pair",
            x_item.span,
            path,
            related=[Related("races with this action", y_item.span)],
            fixes=fixes,
        )
    else:  # lost-inverse
        p_item, q_item, inv_item, final = witness.payload
        pid = p_item.action.action_id
        qid = q_item.action.action_id
        inv_id = inv_item.action.action_id
        report.add(
            "SA603",
            f"lost-inverse race between {xid!r} and {yid!r}: from safe "
            f"configuration {source}, right after {pid!r} commits its "
            f"declared inverse {inv_id!r} still restores safety, but "
            f"once concurrent {qid!r} also commits "
            f"({_describe(universe, final)}) the inverse is no longer "
            "viable — planned rollback would strand the system",
            x_item.span,
            path,
            related=[
                Related("races with this action", q_item.span),
                Related("the stranded inverse", inv_item.span),
            ],
            fixes=fixes,
        )

