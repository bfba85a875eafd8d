"""Dependency impact analysis (paper §1).

"These dependency relationships enable analysis techniques to determine
which components are affected during a given adaptation, and consequently
the set of safe states in which dynamic adaptations can take place."

Given an invariant set and an adaptive action, this module computes:

* the invariants *at risk* — those mentioning any touched component, the
  only ones whose truth can change across the step;
* the *affected closure* — components reachable from the touched set
  through shared invariants (transitively): everything whose correct
  functionality the adaptation could influence;
* the *blast radius* — the processes hosting the affected closure, i.e.
  which parts of the distributed system an operator should watch.

The planner's correctness does not depend on this module (it re-checks
whole configurations); the analysis exists for tooling, reviews, and the
scoping optimizations of §7.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Set, Tuple

from repro.core.actions import AdaptiveAction
from repro.core.collaborative import UnionFind
from repro.core.invariants import Invariant, InvariantSet
from repro.core.model import ComponentUniverse


def invariants_at_risk(
    invariants: InvariantSet, action: AdaptiveAction
) -> Tuple[Invariant, ...]:
    """Invariants whose truth value can change across *action*.

    Exactly those mentioning a touched component — all other invariants
    evaluate identically before and after the delta.
    """
    touched = action.touched
    return tuple(inv for inv in invariants if inv.atoms() & touched)


def affected_components(
    invariants: InvariantSet, action: AdaptiveAction
) -> FrozenSet[str]:
    """The transitive closure of components coupled to the action.

    Start from the touched set; repeatedly add every component that shares
    an invariant with the current set.  The result bounds which components'
    *correct functionality* (paper §3.1) the adaptation can influence.
    """
    affected = set(action.touched)
    changed = True
    while changed:
        changed = False
        for invariant in invariants:
            atoms = invariant.atoms()
            if atoms & affected and not atoms <= affected:
                affected |= atoms
                changed = True
    return frozenset(affected)


def blast_radius(
    universe: ComponentUniverse,
    invariants: InvariantSet,
    action: AdaptiveAction,
) -> FrozenSet[str]:
    """Processes hosting the affected closure (restricted to the universe)."""
    names = affected_components(invariants, action) & universe.names
    return universe.processes_of(names)


def blast_radii(
    universe: ComponentUniverse,
    invariants: InvariantSet,
    actions: Iterable[AdaptiveAction],
) -> Tuple[FrozenSet[str], ...]:
    """:func:`blast_radius` of every action, from one union-find.

    The affected closure of an action is the union of the invariant
    coupling groups (components joined by shared invariants, atoms outside
    the universe included, since they too can bridge two groups) that
    contain its touched components, so one pass over the invariants
    serves the whole library instead of a fixpoint per action.
    """
    uf = UnionFind()
    for invariant in invariants:
        atoms = sorted(invariant.atoms())
        for atom in atoms:
            uf.union(atoms[0], atom)
    groups: Dict[Hashable, FrozenSet[Hashable]] = {}
    for group in uf.groups():
        for name in group:
            groups[name] = group
    names = universe.names
    radii: List[FrozenSet[str]] = []
    for action in actions:
        closure: Set[Hashable] = set()
        for name in action.touched:
            closure.update(groups.get(name, (name,)))
        radii.append(universe.processes_of(names.intersection(closure)))
    return tuple(radii)


def impact_report(
    universe: ComponentUniverse,
    invariants: InvariantSet,
    action: AdaptiveAction,
) -> str:
    """Human-readable impact summary for one action (tooling/reviews)."""
    at_risk = invariants_at_risk(invariants, action)
    closure = sorted(affected_components(invariants, action) & universe.names)
    processes = sorted(blast_radius(universe, invariants, action))
    participants = sorted(action.participants(universe))
    lines = [
        f"action {action.action_id}: {action.operation_text()}",
        f"  participants (perform in-actions): {', '.join(participants)}",
        f"  invariants at risk: "
        + (", ".join(inv.name for inv in at_risk) or "(none)"),
        f"  affected closure: {', '.join(closure)}",
        f"  blast radius (processes to watch): {', '.join(processes)}",
    ]
    return "\n".join(lines)
