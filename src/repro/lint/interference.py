"""SA6xx: interference between concurrent adaptive actions.

The paper's management protocol serializes adaptive actions under one
manager, but a distributed deployment runs one manager per collaborative
set — two actions whose sets are disjoint *may* commit concurrently.
This stage asks, per unordered action pair, whether that concurrency is
observable:

* **SA601 (non-commutative pair)** — a safe configuration exists where
  both actions are applicable but the two firing orders are not
  interchangeable: one order commits safely while the other exits the
  safe space after its first step.  No other disagreement is possible:
  two actions touching a common component disable each other, so
  neither order completes, and two with disjoint touch sets reach the
  same configuration with each staying applicable after the other.
  The witness is minimized (fewest components, then lowest mask) so the
  message shows the smallest racing scenario.
* **SA602 (blocking-window overlap)** — the pair's participant sets
  intersect and jointly cover every process: if their §6 blocking
  windows overlap, no process anywhere stays available.  Purely a
  library/process check, so it survives the enumeration cap.
* **SA603 (lost-inverse race)** — in the order that commits safely, the
  first action's declared inverse restores safety right after it
  commits, but stops being viable once the concurrent partner also
  commits: §4.4 rollback would strand the system.  Reported instead of
  SA601 for the pair (it is the sharper diagnosis).
* **SA604 (conflicting-touch race)** — one action switches on a
  component the other switches off, so the two composed transformers
  differ *algebraically*: commit order changes the outcome from every
  configuration.  Such pairs can never share a safe source (the shared
  component would need to be present and absent at once), which is
  exactly why the check needs no state enumeration.
* **SA605 (note)** — above the enumeration cap (or past the pair-source
  budget) the stateful checks fall back to the manifest's named safe
  configurations via lazy point queries; pairs with no named witness
  are inconclusive, and the restriction is recorded once.

Below the cap the stateful checks sweep each collaborative set's own
safe projections and actions, and complete every witness with the other
sets' lightest safe projections (DESIGN.md §17).

Pairs declared in the manifest's ``[conflicts]`` section are skipped by
every check: declaring the pair serializes it (the planner unions both
touched sets into one collaborative set), which is also the machine
fix attached to each SA601/SA602/SA603/SA604 finding.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.core.actions import MaskedAction
from repro.lint.diagnostics import LintReport, Related
from repro.lint.fixes import Fix, append_fix

if TYPE_CHECKING:
    from repro.lint.checks import SafeFactor

#: bound on (action pairs) x (candidate sources) combinations explored by
#: the stateful checks; past it the stage degrades to named-configuration
#: sources and notes the restriction via SA605
MAX_PAIR_SOURCES = 2_000_000


def check_interference(
    model,
    report: LintReport,
    path: Optional[str],
    action_info: Optional[Sequence[SafeFactor]],
    *,
    cap_exceeded: bool = False,
    line_count: int = 0,
    fixes_enabled: bool = False,
) -> None:
    """Run the SA6xx pair checks over the surviving model.

    *action_info* is the list of per-collaborative-set
    :class:`~repro.lint.checks.SafeFactor` from the eager SA3xx
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

    # Fired from a mask m where it is applicable (m & touch == required),
    # an action flips exactly its touched bits.
    steps = [
        (m.required | m.forbidden, m.required)
        for m in (masked[item.action.action_id] for item in items)
    ]
    delta_index = {
        (item.action.removes, item.action.adds): i
        for i, item in enumerate(items)
    }
    inverse = [
        delta_index.get((item.action.adds, item.action.removes))
        for item in items
    ]
    # Only a disjoint-touch pair can race, and only from a source where
    # exactly one first step stays safe and the joint result is safe again
    # (DESIGN.md §15), so each source sweeps the actions once and pairs
    # its safe first steps with its exiting ones.  A race is SA603 exactly
    # when the safe-first action p has a declared inverse: it restores
    # the source after p alone, and lands on the partner's unsafe first
    # step once both commit.  Per pair keep the minimum ((SA603 first,
    # popcount, mask), p, partner); sources are distinct, so the minimum
    # does not depend on sweep order.
    best: Dict[Tuple[int, int], Tuple[Tuple[bool, int, int], int, int]] = {}

    def sweep(
        sources: Iterable[int],
        is_safe: Callable[[int], bool],
        members: Sequence[int],
        rest: int,
    ) -> None:
        """Race the actions *members* from *sources*; a witness source
        is reported as ``source | rest``."""
        partners = {
            i: {
                j
                for j in members
                if not steps[i][0] & steps[j][0]
                and frozenset((items[i].action.action_id, items[j].action.action_id))
                not in declared
            }
            for i in members
        }
        for mask in sources:
            stays: List[Tuple[int, int]] = []
            exits: List[int] = []
            for i in members:
                touch, required = steps[i]
                if mask & touch == required:
                    mid = mask ^ touch
                    if is_safe(mid):
                        stays.append((i, mid))
                    else:
                        exits.append(i)
            if not exits:
                continue
            source = mask | rest
            weight = source.bit_count()
            for p, mid in stays:
                rank = (inverse[p] is None, weight, source)
                for q in exits:
                    if q in partners[p] and is_safe(mid ^ steps[q][0]):
                        pair = (p, q) if p < q else (q, p)
                        held = best.get(pair)
                        if held is None or rank < held[0]:
                            best[pair] = (rank, p, q)

    pairs = len(items) * (len(items) - 1) // 2
    restricted_reason = ""
    if action_info is not None:
        total = math.prod(len(factor.safe_masks) for factor in action_info)
        if pairs * total <= MAX_PAIR_SOURCES:
            # A racing pair shares a collaborative set (the second
            # action of a race exits the safe space in its own set, which
            # the first cannot repair from another), and whether it races
            # from a source depends only on that set's projection.  The
            # other sets add their popcounts and masks to the witness
            # rank, so the minimum source is the set's minimum OR each
            # other set's lightest (popcount, then mask) safe projection.
            lightest = [
                min(factor.safe_masks, key=lambda mask: (mask.bit_count(), mask))
                for factor in action_info
            ]
            floor = 0
            for mask in lightest:
                floor |= mask
            for factor, light in zip(action_info, lightest):
                sweep(
                    factor.safe_masks,
                    factor.safe_set.__contains__,
                    factor.actions,
                    floor ^ light,
                )
        else:
            restricted_reason = (
                f"{pairs} pair(s) x {total} safe configuration(s) "
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
        from repro.core.space import LazySafeSpace

        space = LazySafeSpace(universe, model.kept_invariants())
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
        sweep(named, space.is_safe_mask, range(len(items)), 0)

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


def _describe(universe, mask: int) -> str:
    return f"{mask:0{len(universe)}b} {universe.from_mask(mask).label()}"


def _serialize_fixes(
    first_id: str,
    second_id: str,
    line_count: int,
    fixes_enabled: bool,
) -> Tuple[Fix, ...]:
    """The machine fix: append a ``[conflicts]`` entry for the pair."""
    if not fixes_enabled or line_count <= 0:
        return ()
    low, high = sorted((first_id, second_id))
    block = f"\n[conflicts]\n{low}_{high} : {low} {high}\n"
    return (
        append_fix(
            f"serialize {low!r} and {high!r} via a [conflicts] entry",
            line_count,
            block,
        ),
    )


def _report_pair_witness(
    model,
    report: LintReport,
    path: Optional[str],
    x_item,
    y_item,
    source: int,
    p_item,
    q_item,
    inv_item,
    final: int,
    line_count: int,
    fixes_enabled: bool,
) -> None:
    """Report the pair's witness: from *source*, *p_item* then *q_item*
    commits safely to *final*, while *q_item* first exits the safe space;
    *inv_item* is *p_item*'s declared inverse, stranded at *final*."""
    universe = model.universe
    xid = x_item.action.action_id
    yid = y_item.action.action_id
    pid = p_item.action.action_id
    qid = q_item.action.action_id
    where = _describe(universe, source)
    fixes = _serialize_fixes(xid, yid, line_count, fixes_enabled)
    if inv_item is None:
        report.add(
            "SA601",
            f"actions {xid!r} and {yid!r} race: from safe configuration "
            f"{where} the order {pid!r}, {qid!r} commits safely to "
            f"{_describe(universe, final)}, but the order {qid!r}, "
            f"{pid!r} exits the safe space once {qid!r} commits — "
            "concurrent managers must serialize the pair",
            x_item.span,
            path,
            related=[Related("races with this action", y_item.span)],
            fixes=fixes,
        )
    else:
        inv_id = inv_item.action.action_id
        report.add(
            "SA603",
            f"lost-inverse race between {xid!r} and {yid!r}: from safe "
            f"configuration {where}, right after {pid!r} commits its "
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


def _check_blocking_overlap(
    model,
    report: LintReport,
    path: Optional[str],
    declared: Set[FrozenSet[str]],
    line_count: int,
    fixes_enabled: bool,
) -> None:
    """SA602: pairs whose blocking windows jointly freeze every process.

    Actions that alone block every process are SA402's finding; here the
    hazard needs *both* windows open at once, so single-handed blockers
    are excluded.  Library/process-only: survives the enumeration cap.
    """
    universe = model.universe
    all_processes = frozenset(universe.processes())
    if len(all_processes) < 2:
        return
    participants = [
        (item, item.action.participants(universe)) for item in model.actions
    ]
    for index, (x_item, px) in enumerate(participants):
        if px == all_processes:
            continue
        for y_item, py in participants[index + 1 :]:
            if py == all_processes:
                continue
            if not (px & py) or (px | py) != all_processes:
                continue
            xid = x_item.action.action_id
            yid = y_item.action.action_id
            if frozenset((xid, yid)) in declared:
                continue
            shared = ", ".join(sorted(px & py))
            report.add(
                "SA602",
                f"blocking-window overlap between {xid!r} and {yid!r}: "
                f"their participant sets intersect (shared: {shared}) and "
                f"together cover every process "
                f"({', '.join(sorted(all_processes))}) — if their blocking "
                "windows overlap, no process anywhere stays available",
                x_item.span,
                path,
                related=[Related("overlapping blocker", y_item.span)],
                fixes=_serialize_fixes(xid, yid, line_count, fixes_enabled),
            )


def _check_conflicting_touch(
    model,
    report: LintReport,
    path: Optional[str],
    masked: Dict[str, MaskedAction],
    declared: Set[FrozenSet[str]],
    line_count: int,
    fixes_enabled: bool,
) -> None:
    """SA604: algebraically non-commuting pairs (set/clear collision).

    Firing x then y composes to ``clear (cx|cy), set (sx&~cy)|sy``; the
    reverse order sets ``(sy&~cx)|sx``.  When one action switches on a
    bit the other switches off, those differ for *every* start mask —
    no enumeration needed, so the check is cap-proof.  Mutual inverses
    are excluded: their conflict is definitional, and the pair already
    has SA304/rollback semantics.
    """
    universe = model.universe
    items = [(item, masked[item.action.action_id]) for item in model.actions]
    for index, (x_item, mx) in enumerate(items):
        x = x_item.action
        for y_item, my in items[index + 1 :]:
            collide = (mx.set_bits & my.clear) | (my.set_bits & mx.clear)
            if not collide:
                continue
            y = y_item.action
            if x.removes == y.adds and x.adds == y.removes:
                continue
            if frozenset((x.action_id, y.action_id)) in declared:
                continue
            set_xy = (mx.set_bits & ~my.clear) | my.set_bits
            set_yx = (my.set_bits & ~mx.clear) | mx.set_bits
            if set_xy == set_yx:
                continue
            disputed = sorted(
                name
                for name in universe.order
                if universe.bit_of(name) & collide
            )
            report.add(
                "SA604",
                f"conflicting-touch race between {x.action_id!r} and "
                f"{y.action_id!r}: commit order decides whether "
                f"{', '.join(disputed)} end(s) up present — the composed "
                "outcomes differ from every configuration, independent "
                "of state",
                x_item.span,
                path,
                related=[Related("conflicting action", y_item.span)],
                fixes=_serialize_fixes(
                    x.action_id, y.action_id, line_count, fixes_enabled
                ),
            )
