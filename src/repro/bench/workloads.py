"""Workload generators for benchmarks and property tests.

Two families:

* :func:`replicated_video_system` — *n* independent copies of the paper's
  video model (suffix ``@g<i>``).  Safe-configuration count grows as
  ``8^n`` and the monolithic SAG explodes exactly as §7 warns, while the
  collaborative decomposition and lazy A* planners scale linearly — the
  scalability experiment (exp C3 in DESIGN.md).
* :func:`random_system` — seeded random universes/invariants/actions for
  property-based testing of the planner (plans, when they exist, must be
  valid regardless of the instance).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.video.system import (
    PAPER_SOURCE_BITS,
    PAPER_TARGET_BITS,
    video_actions,
    video_invariants,
    video_universe,
)
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.invariants import DependencyInvariant, Invariant, InvariantSet
from repro.core.model import Component, ComponentUniverse, Configuration
from repro.expr import Atom, Expr, exactly_one
from repro.expr.ast import And, Implies, Not, Or, Xor


@dataclass
class RandomSystem:
    """A generated planning instance."""

    universe: ComponentUniverse
    invariants: InvariantSet
    actions: ActionLibrary
    source: Configuration
    target: Configuration


def replicated_video_system(n_groups: int) -> RandomSystem:
    """*n* independent copies of the §5 video model.

    Components, invariants, and actions of group *i* carry the suffix
    ``@g<i>`` and never interact across groups, so
    :func:`repro.core.collaborative.collaborative_sets` recovers exactly
    the groups.
    """
    if n_groups <= 0:
        raise ValueError("n_groups must be positive")
    base_universe = video_universe()
    base_actions = video_actions()
    components: List[Component] = []
    invariants: List[Invariant] = []
    actions: List[AdaptiveAction] = []
    source_members: List[str] = []
    target_members: List[str] = []
    source_config = base_universe.from_bits(PAPER_SOURCE_BITS)
    target_config = base_universe.from_bits(PAPER_TARGET_BITS)
    for group in range(n_groups):
        suffix = f"@g{group}"
        for component in base_universe:
            components.append(
                Component(
                    component.name + suffix,
                    process=component.process + suffix,
                    description=component.description,
                )
            )
        invariants.append(
            Invariant(
                exactly_one(*(f"D{i}{suffix}" for i in (1, 2, 3))),
                name=f"resource{suffix}",
            )
        )
        invariants.append(
            Invariant(
                exactly_one(f"E1{suffix}", f"E2{suffix}"), name=f"security{suffix}"
            )
        )
        invariants.append(
            DependencyInvariant(
                Implies(
                    Atom(f"E1{suffix}"),
                    And((Or((Atom(f"D1{suffix}"), Atom(f"D2{suffix}"))), Atom(f"D4{suffix}"))),
                )
            )
        )
        invariants.append(
            DependencyInvariant(
                Implies(
                    Atom(f"E2{suffix}"),
                    And((Or((Atom(f"D3{suffix}"), Atom(f"D2{suffix}"))), Atom(f"D5{suffix}"))),
                )
            )
        )
        for action in base_actions:
            actions.append(
                AdaptiveAction(
                    action.action_id + suffix,
                    frozenset(name + suffix for name in action.removes),
                    frozenset(name + suffix for name in action.adds),
                    action.cost,
                    action.description + suffix,
                )
            )
        source_members.extend(name + suffix for name in source_config.members)
        target_members.extend(name + suffix for name in target_config.members)
    return RandomSystem(
        universe=ComponentUniverse(components),
        invariants=InvariantSet(invariants),
        actions=ActionLibrary(actions),
        source=Configuration(source_members),
        target=Configuration(target_members),
    )


def enumeration_stress_system(
    n_components: int,
    n_constraints: Optional[int] = None,
    arity: int = 5,
    seed: int = 7,
) -> RandomSystem:
    """A universe adversarial for the three-valued backtracking pruner.

    Every invariant is an :class:`Xor` whose final atom sits in the last
    few components of the universe order: under three-valued evaluation
    an xor stays *undetermined* until its last atom is decided, so the
    enumerator must traverse the full prefix tree before any branch can
    be pruned — per-node invariant work is high, the safe set collapses
    only at the bottom (each xor halves it, so output stays small).
    Enumeration cost therefore grows with ``2^n`` while the result stays
    a few thousand masks — the worst case the scalability benchmark
    records.

    ``source``/``target`` are the all-absent/all-present placeholder
    configurations — enumeration benchmarks do not plan over this
    system.
    """
    if n_components < 8:
        raise ValueError("stress universes need at least 8 components")
    rng = random.Random(seed)
    n = n_components
    if n_constraints is None:
        n_constraints = n // 2
    names = [f"X{i:02d}" for i in range(n)]
    universe = ComponentUniverse.from_names(
        names, {name: f"p{i % 4}" for i, name in enumerate(names)}
    )
    tail = max(2, n // 5)
    invariants: List[Invariant] = []
    for index in range(n_constraints):
        last = names[n - 1 - (index % tail)]
        body = rng.sample(names[: n - tail], arity - 1)
        invariants.append(
            Invariant(
                Xor(tuple(Atom(name) for name in (*body, last))),
                name=f"xor{index}",
            )
        )
    actions = ActionLibrary(
        [
            AdaptiveAction.insert(f"I{i}", name, float(1 + i % 5))
            for i, name in enumerate(names)
        ]
        + [
            AdaptiveAction.remove(f"D{i}", name, float(1 + i % 5))
            for i, name in enumerate(names)
        ]
    )
    return RandomSystem(
        universe=universe,
        invariants=InvariantSet(invariants),
        actions=actions,
        source=Configuration([]),
        target=Configuration(names),
    )


def _random_expr(rng: random.Random, names: List[str], depth: int = 2) -> Expr:
    if depth <= 0 or rng.random() < 0.4:
        return Atom(rng.choice(names))
    kind = rng.choice(("and", "or", "not", "implies"))
    if kind == "not":
        return Not(_random_expr(rng, names, depth - 1))
    left = _random_expr(rng, names, depth - 1)
    right = _random_expr(rng, names, depth - 1)
    if kind == "and":
        return And((left, right))
    if kind == "or":
        return Or((left, right))
    return Implies(left, right)


def random_system(
    seed: int,
    n_components: int = 6,
    n_invariants: int = 3,
    n_actions: int = 10,
    n_processes: int = 3,
) -> RandomSystem:
    """Seeded random planning instance (for property tests).

    The source and target configurations are drawn from the safe set when
    one exists (falling back to arbitrary subsets otherwise, which lets
    tests exercise the unsafe-endpoint error paths too).
    """
    rng = random.Random(seed)
    names = [f"C{i}" for i in range(n_components)]
    processes = {name: f"p{rng.randrange(n_processes)}" for name in names}
    universe = ComponentUniverse.from_names(names, processes)
    invariants = InvariantSet(
        [Invariant(_random_expr(rng, names), name=f"inv{i}") for i in range(n_invariants)]
    )
    actions: List[AdaptiveAction] = []
    for index in range(n_actions):
        kind = rng.choice(("insert", "remove", "replace"))
        cost = float(rng.randrange(1, 30))
        if kind == "insert":
            actions.append(AdaptiveAction.insert(f"R{index}", rng.choice(names), cost))
        elif kind == "remove":
            actions.append(AdaptiveAction.remove(f"R{index}", rng.choice(names), cost))
        else:
            old, new = rng.sample(names, 2)
            actions.append(AdaptiveAction.replace(f"R{index}", old, new, cost))
    safe: List[Configuration] = []
    for config in universe.all_configurations():
        if invariants.all_hold(config):
            safe.append(config)
        if len(safe) >= 64:
            break
    if len(safe) >= 2:
        source, target = rng.sample(safe, 2)
    elif safe:
        source = target = safe[0]
    else:
        source = Configuration(rng.sample(names, max(1, n_components // 2)))
        target = Configuration(rng.sample(names, max(1, n_components // 2)))
    return RandomSystem(universe, invariants, ActionLibrary(actions), source, target)
