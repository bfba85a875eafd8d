"""The compiled property IR: ptLTL lowered to a slot program over ints.

Walking the AST per step costs a dict allocation, an id-keyed write and
a Python dispatch per subformula.  Paths, lint,
the planning service, and offline trace checking all evaluate the *same*
property thousands of times over configuration masks, so the formula is
compiled **once per spec** into a :class:`CompiledProperty`:

* every unique subformula gets one bit slot, children before parents
  (the AST's post-order);
* atoms lower through :func:`repro.expr.compile.compile_expr` — a
  ``Prop`` becomes the component's bit test, a ``StateProp`` reuses the
  exact mask closures the invariants compile to;
* the per-step state is a single int (the previous step's slot values);
  the slot table is specialized into one straight-line ``step`` function
  (a couple of int ops per slot, ``Prop`` bit tests inlined) — O(formula)
  per step with no allocation beyond two ints and no per-slot dispatch.

The recursive-update semantics are byte-for-byte those of the AST
reference (``PTLTLMonitor`` in ``tests/oracles/ptltl_reference.py``):
``Once``/``Historically``/``Since`` read their own slot's previous
value; ``Previously`` reads its own slot too, where
the state packing stored the *operand's* value from the previous step
(reading the operand's slot directly would leak a ``Historically``
operand's vacuous-true initial bit into the first step).
``initial_state`` sets the ``Historically`` slots (vacuously true before
the first step) and nothing else.  The hypothesis suite pins
``CompiledProperty`` to that reference on random formulas and streams.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.expr.ast import Atom
from repro.expr.compile import compile_expr
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

#: slot opcodes (kept tiny: the step loop switches on small ints)
_ATOM, _NOT, _AND, _OR, _IMPLIES, _PREV, _ONCE, _HIST, _SINCE = range(9)


class CompiledProperty:
    """One ptLTL formula compiled against a fixed name→bit mapping.

    Args:
        formula: the property AST.
        bits: name→bit mapping the atoms compile against — a universe's
            :attr:`~repro.core.model.ComponentUniverse.atom_bits` for
            configuration checking, or any assignment of distinct bits to
            event names for stream monitoring (:func:`compile_property`
            builds one automatically).  Names missing from the mapping
            compile to constant-false, exactly as invariant compilation
            treats out-of-universe components.
    """

    __slots__ = (
        "formula", "bits", "initial_state", "_program", "_root",
        "_step_fn", "_run_fn", "_first_violation_fn",
    )

    def __init__(self, formula: PFormula, bits: Mapping[str, int]):
        self.formula = formula
        self.bits = dict(bits)
        slot_of: Dict[int, int] = {}
        program: List[Tuple[int, int, int, object]] = []
        initial = 0
        for sub in formula.subformulas():
            if id(sub) in slot_of:
                continue
            index = len(program)
            slot_of[id(sub)] = index
            if isinstance(sub, Prop):
                program.append((_ATOM, bits.get(sub.name, 0), 0, None))
            elif isinstance(sub, StateProp):
                program.append((_ATOM, 0, 0, compile_expr(sub.expr, bits)))
            elif isinstance(sub, PNot):
                program.append((_NOT, slot_of[id(sub.operand)], 0, None))
            elif isinstance(sub, PAnd):
                program.append(
                    (_AND, slot_of[id(sub.left)], slot_of[id(sub.right)], None)
                )
            elif isinstance(sub, POr):
                program.append(
                    (_OR, slot_of[id(sub.left)], slot_of[id(sub.right)], None)
                )
            elif isinstance(sub, PImplies):
                program.append(
                    (_IMPLIES, slot_of[id(sub.left)], slot_of[id(sub.right)], None)
                )
            elif isinstance(sub, Previously):
                program.append((_PREV, slot_of[id(sub.operand)], 0, None))
            elif isinstance(sub, Once):
                program.append((_ONCE, slot_of[id(sub.operand)], 0, None))
            elif isinstance(sub, Historically):
                program.append((_HIST, slot_of[id(sub.operand)], 0, None))
                initial |= 1 << index
            elif isinstance(sub, Since):
                program.append(
                    (_SINCE, slot_of[id(sub.left)], slot_of[id(sub.right)], None)
                )
            else:  # pragma: no cover - new operators must extend the compiler
                raise TypeError(f"cannot compile {type(sub).__name__}")
        self._program = tuple(program)
        self._root = slot_of[id(formula)]
        self.initial_state = initial
        self._specialize()

    def _specialize(self) -> None:
        """Unroll the slot table into straight-line evaluation functions.

        Dispatching over opcodes per slot costs more than the slot work
        itself, so the table is rendered to Python source — one binding
        per slot, ``Prop`` bit tests inlined, ``StateProp`` closures
        called — and compiled once.  Three functions come out of the one
        slot rendering: a single ``step`` transition, and whole-sequence
        ``run`` / ``first_violation`` loops that keep the per-step work
        free of function-call overhead — those loops are the hot path of
        path checking, lint's SA5xx stage, and offline trace checking.
        """
        namespace: Dict[str, object] = {}
        body: List[str] = []
        for index, (kind, a, b, fn) in enumerate(self._program):
            if kind == _ATOM:
                if fn is None:  # Prop: inline the bit test (a is the bit)
                    expr = f"1 if mask & {a} else 0" if a else "0"
                else:  # StateProp: the invariant-grade mask closure
                    namespace[f"_f{index}"] = fn
                    expr = f"1 if _f{index}(mask) else 0"
            elif kind == _NOT:
                expr = f"v{a} ^ 1"
            elif kind == _AND:
                expr = f"v{a} & v{b}"
            elif kind == _OR:
                expr = f"v{a} | v{b}"
            elif kind == _IMPLIES:
                expr = f"(v{a} ^ 1) | v{b}"
            elif kind == _PREV:
                # reads its OWN slot, where the pack below stored the
                # operand's value from the previous step — reading the
                # operand's slot would leak a Historically operand's
                # vacuous-true initial bit into the first step
                expr = f"(state >> {index}) & 1"
            elif kind == _ONCE:
                expr = f"v{a} | ((state >> {index}) & 1)"
            elif kind == _HIST:
                expr = f"v{a} & (state >> {index}) & 1"
            else:  # _SINCE
                expr = f"v{b} | (v{a} & (state >> {index}) & 1)"
            body.append(f"v{index} = {expr}")
        # next-state packing: only temporal slots are ever read back from
        # the state, so dead bits are dropped from the pack.  Slot i
        # usually carries its own value; a Previously slot instead
        # carries its operand's current value (what the next step's
        # _PREV read needs).
        parts = []
        for index, (kind, a, _b, _fn) in enumerate(self._program):
            if kind in (_ONCE, _HIST, _SINCE):
                value = f"v{index}"
            elif kind == _PREV:
                value = f"v{a}"
            else:
                continue
            parts.append(f"{value} << {index}" if index else value)
        packed = " | ".join(parts) or "0"
        root = f"v{self._root}"

        def block(lines: List[str], pad: str) -> str:
            return "".join(pad + line + "\n" for line in lines)

        source = (
            "def _step(mask, state):\n"
            + block(body, "    ")
            + f"    return {root}, {packed}\n"
            + "def _run(masks, state):\n"
            + "    values = []\n"
            + "    append = values.append\n"
            + "    for mask in masks:\n"
            + block(body, "        ")
            + f"        state = {packed}\n"
            + f"        append({root} == 1)\n"
            + "    return values\n"
            + "def _first_violation(masks, state):\n"
            + "    index = 0\n"
            + "    for mask in masks:\n"
            + block(body, "        ")
            + f"        state = {packed}\n"
            + f"        if not {root}:\n"
            + "            return index\n"
            + "        index += 1\n"
            + "    return None\n"
        )
        exec(source, namespace)  # noqa: S102 - self-generated source
        self._step_fn = namespace["_step"]
        self._run_fn = namespace["_run"]
        self._first_violation_fn = namespace["_first_violation"]

    def step(self, mask: int, state: int) -> Tuple[bool, int]:
        """One transition: ``(value, next_state)`` for a step's bitmask."""
        value, now = self._step_fn(mask, state)
        return bool(value), now

    # -- whole-sequence helpers (paths, traces) ---------------------------------
    def mask_of(self, names: Iterable[str]) -> int:
        """Encode a step's name set against this property's bit mapping."""
        bits = self.bits
        mask = 0
        for name in names:
            mask |= bits.get(name, 0)
        return mask

    def holds_on(self, mask: int) -> bool:
        """Single-configuration check: the formula on the length-1 path."""
        value, _ = self.step(mask, self.initial_state)
        return value

    def run(self, masks: Sequence[int]) -> List[bool]:
        """Per-step values over a mask sequence (compiled ``Monitor.run``)."""
        return self._run_fn(masks, self.initial_state)

    def first_violation(self, masks: Sequence[int]) -> Optional[int]:
        """Index of the first step where the formula is false, else None."""
        return self._first_violation_fn(masks, self.initial_state)

    def monitor(self) -> "CompiledMonitor":
        """A fresh stateful stepper sharing this compiled program."""
        return CompiledMonitor(self)


class CompiledMonitor:
    """Stateful stream evaluator over a :class:`CompiledProperty`.

    Exposes ``step``/``run``/``steps``/``value``, so it can drive a
    :class:`~repro.ltl.monitor.TemporalObserver` — the online surface
    running on the same compiled core as paths, lint, and trace check.
    """

    __slots__ = ("compiled", "state", "steps", "value")

    def __init__(self, compiled: CompiledProperty):
        self.compiled = compiled
        self.state = compiled.initial_state
        self.steps = 0
        self.value: Optional[bool] = None

    @property
    def formula(self) -> PFormula:
        return self.compiled.formula

    def step(self, events: Iterable[str]) -> bool:
        """Feed one step's event set; returns the formula's current value."""
        return self.step_mask(self.compiled.mask_of(events))

    def step_mask(self, mask: int) -> bool:
        """Feed one step already encoded as a bitmask."""
        value, self.state = self.compiled._step_fn(mask, self.state)
        self.value = value == 1
        self.steps += 1
        return self.value

    def run(self, trace: Iterable[Iterable[str]]) -> List[bool]:
        return [self.step(events) for events in trace]


def compile_property(
    formula: PFormula, bits: Optional[Mapping[str, int]] = None
) -> CompiledProperty:
    """Compile a formula; auto-assigns bits to its atoms when none given.

    Pass a universe's ``atom_bits`` to evaluate over configuration masks;
    with ``bits=None`` every name the formula observes gets a distinct
    bit (sorted order), which is what event-stream monitoring needs.
    """
    if bits is None:
        bits = {name: 1 << i for i, name in enumerate(sorted(formula.atoms()))}
    return CompiledProperty(formula, bits)
