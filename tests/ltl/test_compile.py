"""Targeted tests of the compiled property IR.

The semantic equivalence ``CompiledProperty == PTLTLMonitor == O(n²)
reference`` (the AST oracle of ``tests/oracles/ptltl_reference.py``) is pinned by the hypothesis suite in ``tests/test_ltl.py``;
these tests cover the IR mechanics the differential suite cannot see —
slot sharing, initial state, out-of-universe atoms, and the whole-
sequence helpers the path checker is built on.
"""

from repro.ltl import (
    CompiledProperty,
    Historically,
    Once,
    PAnd,
    PNot,
    Prop,
    compile_property,
    parse_property,
)

BITS = {"a": 1, "b": 2, "c": 4}


class TestCompilation:
    def test_shared_subformula_gets_one_slot(self):
        shared = Once(Prop("a"))
        formula = PAnd(shared, PNot(shared))
        compiled = CompiledProperty(formula, BITS)
        # slots: a, Once(a), Not(Once(a)), And — not five
        assert len(compiled._program) == 4

    def test_initial_state_sets_historically_slots_only(self):
        hist = compile_property(Historically(Prop("a")))
        assert hist.initial_state != 0
        latch = compile_property(Once(Prop("a")))
        assert latch.initial_state == 0

    def test_unknown_atom_compiles_to_constant_false(self):
        # mirrors invariant compilation: out-of-universe names are false
        compiled = CompiledProperty(parse_property("!ghost"), BITS)
        assert compiled.holds_on(0b111)
        assert compiled.mask_of({"ghost", "a"}) == 1


class TestSequenceHelpers:
    def test_run_over_masks(self):
        compiled = CompiledProperty(parse_property("once(a)"), BITS)
        assert compiled.run([0, 1, 0]) == [False, True, True]

    def test_first_violation(self):
        compiled = CompiledProperty(parse_property("historically(a)"), BITS)
        assert compiled.first_violation([1, 1, 2, 1]) == 2
        assert compiled.first_violation([1, 1]) is None

    def test_holds_on_is_the_length_one_path(self):
        compiled = CompiledProperty(parse_property("historically(a & !b)"), BITS)
        assert compiled.holds_on(1)
        assert not compiled.holds_on(3)

    def test_state_expression_atom_over_masks(self):
        compiled = CompiledProperty(
            parse_property("historically({one_of(a, b)})"), BITS
        )
        assert compiled.first_violation([1, 2, 3]) == 2  # a & b both present


class TestCompiledMonitor:
    def test_monitors_are_independent(self):
        compiled = CompiledProperty(parse_property("once(a)"), BITS)
        first, second = compiled.monitor(), compiled.monitor()
        assert first.step({"a"}) is True
        assert second.step(set()) is False  # unaffected by first's latch
        assert first.steps == 1 and second.value is False

    def test_step_mask_matches_step(self):
        compiled = CompiledProperty(parse_property("since(a, b)"), BITS)
        by_names = compiled.monitor()
        by_masks = compiled.monitor()
        trace = [{"b"}, {"a"}, set(), {"a", "b"}]
        for events in trace:
            assert by_names.step(events) == by_masks.step_mask(
                compiled.mask_of(events)
            )
