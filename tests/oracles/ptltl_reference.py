"""Reference ptLTL evaluator walking the formula AST (slow oracle).

:class:`PTLTLMonitor` is the incremental recursive-update construction
over :mod:`repro.ltl.ast`: every step evaluates each subformula in
post-order into an id-keyed dict, reading the children's values for this
step and its own (or its operand's) value from the previous step.
:func:`step` is the one dispatch on node type.  It is the semantic
source of truth the compiled core is pinned to:

* ``tests/ltl/test_compile.py`` — ``CompiledProperty`` equals it on
  random formulas and event streams;
* ``tests/test_ltl.py`` — it equals the naive full-history semantics,
  and drives :class:`~repro.ltl.TemporalObserver` directly;
* ``tests/oracles/safe_state_reference.py`` — the AST-driven safe-state
  monitor built on it.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional

from repro.ltl.ast import (
    Historically,
    Once,
    PAnd,
    PFormula,
    PImplies,
    PNot,
    POr,
    Previously,
    Prop,
    Since,
    StateProp,
)


def step(
    node: PFormula,
    events: AbstractSet[str],
    now: Dict[int, bool],
    prev: Dict[int, bool],
) -> bool:
    """The value of *node* at this step, its children already in *now*."""
    if isinstance(node, Prop):
        return node.name in events
    if isinstance(node, StateProp):
        return node.expr.evaluate(events)
    if isinstance(node, PNot):
        return not now[id(node.operand)]
    if isinstance(node, PAnd):
        return now[id(node.left)] and now[id(node.right)]
    if isinstance(node, POr):
        return now[id(node.left)] or now[id(node.right)]
    if isinstance(node, PImplies):
        return (not now[id(node.left)]) or now[id(node.right)]
    if isinstance(node, Previously):
        return prev.get(id(node.operand), False)
    if isinstance(node, Once):
        return now[id(node.operand)] or prev.get(id(node), False)
    if isinstance(node, Historically):
        return now[id(node.operand)] and prev.get(id(node), True)
    if isinstance(node, Since):
        return now[id(node.right)] or (
            now[id(node.left)] and prev.get(id(node), False)
        )
    raise TypeError(f"not a ptLTL formula node: {node!r}")


class PTLTLMonitor:
    """Incremental evaluator: O(|formula|) per step, O(|formula|) state."""

    def __init__(self, formula: PFormula):
        self.formula = formula
        self._order = formula.subformulas()
        self._prev: Dict[int, bool] = {}
        self.steps = 0
        self.value: Optional[bool] = None

    def step(self, events: Iterable[str]) -> bool:
        """Feed one step's event set; returns the formula's current value."""
        event_set = frozenset(events)
        now: Dict[int, bool] = {}
        for sub in self._order:
            now[id(sub)] = step(sub, event_set, now, self._prev)
        self._prev = now
        self.steps += 1
        self.value = now[id(self.formula)]
        return self.value

    def run(self, trace: Iterable[Iterable[str]]) -> List[bool]:
        """Evaluate over a whole trace; returns the per-step values."""
        return [self.step(events) for events in trace]
