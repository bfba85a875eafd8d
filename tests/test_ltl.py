"""Tests for the past-time LTL monitor and safe-state detection (§7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr.ast import And as EAnd
from repro.expr.ast import Atom, Not as ENot, OneOf, Or as EOr
from repro.ltl import (
    BalancedPair,
    Historically,
    Once,
    PAnd,
    PImplies,
    PNot,
    POr,
    Previously,
    Prop,
    SafeStateMonitor,
    Since,
    StateProp,
    compile_property,
    no_open_segments,
)
from tests.oracles.ptltl_reference import PTLTLMonitor
from tests.oracles.safe_state_reference import ReferenceSafeStateMonitor

A, B = Prop("a"), Prop("b")


def run(formula, trace):
    return PTLTLMonitor(formula).run(trace)


class TestBooleans:
    def test_prop(self):
        assert run(A, [{"a"}, set(), {"a", "b"}]) == [True, False, True]

    def test_not_and_or_implies(self):
        assert run(PNot(A), [{"a"}, set()]) == [False, True]
        assert run(PAnd(A, B), [{"a", "b"}, {"a"}]) == [True, False]
        assert run(POr(A, B), [{"b"}, set()]) == [True, False]
        assert run(PImplies(A, B), [{"a"}, {"a", "b"}, set()]) == [False, True, True]


class TestTemporal:
    def test_previously(self):
        assert run(Previously(A), [{"a"}, set(), {"a"}, {"a"}]) == [
            False, True, False, True,
        ]

    def test_once_latches(self):
        assert run(Once(A), [set(), {"a"}, set(), set()]) == [
            False, True, True, True,
        ]

    def test_historically_breaks_once(self):
        assert run(Historically(A), [{"a"}, {"a"}, set(), {"a"}]) == [
            True, True, False, False,
        ]

    def test_since(self):
        # a S b: b seen, and a continuously since then
        trace = [set(), {"b"}, {"a"}, {"a"}, set(), {"a"}]
        assert run(Since(A, B), trace) == [False, True, True, True, False, False]

    def test_since_retriggers(self):
        trace = [{"b"}, set(), {"b"}]
        assert run(Since(A, B), trace) == [True, False, True]

    def test_request_acknowledged_pattern(self):
        # "every request has been followed by an ack": ¬(¬ack S req)
        req, ack = Prop("req"), Prop("ack")
        formula = PNot(Since(PNot(ack), req))
        trace = [set(), {"req"}, set(), {"ack"}, set(), {"req", "ack"}]
        # note the last step: a request arriving *with* its ack still
        # triggers strong-since, so the formula reads False there
        assert run(formula, trace) == [True, False, False, True, True, False]


class TestMonitorMechanics:
    def test_step_returns_current_value(self):
        monitor = PTLTLMonitor(Once(A))
        assert monitor.step(set()) is False
        assert monitor.step({"a"}) is True
        assert monitor.steps == 2
        assert monitor.value is True

    def test_shared_subformula_evaluated_consistently(self):
        shared = Once(A)
        formula = PAnd(shared, PNot(PNot(shared)))
        assert run(formula, [{"a"}, set()]) == [True, True]


_STATE_EXPRS = (
    OneOf((Atom("a"), Atom("b"))),
    EAnd((Atom("a"), ENot(Atom("c")))),
    EOr((Atom("b"), Atom("c"))),
)


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Prop(draw(st.sampled_from(["a", "b", "c"])))
        return StateProp(draw(st.sampled_from(_STATE_EXPRS)))
    kind = draw(
        st.sampled_from(
            ["not", "and", "or", "implies", "prev", "once", "hist", "since"]
        )
    )
    if kind == "not":
        return PNot(draw(formulas(depth=depth - 1)))
    if kind == "prev":
        return Previously(draw(formulas(depth=depth - 1)))
    if kind == "once":
        return Once(draw(formulas(depth=depth - 1)))
    if kind == "hist":
        return Historically(draw(formulas(depth=depth - 1)))
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    return {"and": PAnd, "or": POr, "implies": PImplies, "since": Since}[kind](
        left, right
    )


def reference_eval(formula, trace, index):
    """Non-incremental semantics, as the oracle."""
    if isinstance(formula, Prop):
        return formula.name in trace[index]
    if isinstance(formula, StateProp):
        return formula.expr.evaluate(trace[index])
    if isinstance(formula, PNot):
        return not reference_eval(formula.operand, trace, index)
    if isinstance(formula, PAnd):
        return reference_eval(formula.left, trace, index) and reference_eval(
            formula.right, trace, index
        )
    if isinstance(formula, POr):
        return reference_eval(formula.left, trace, index) or reference_eval(
            formula.right, trace, index
        )
    if isinstance(formula, PImplies):
        return (not reference_eval(formula.left, trace, index)) or reference_eval(
            formula.right, trace, index
        )
    if isinstance(formula, Previously):
        return index > 0 and reference_eval(formula.operand, trace, index - 1)
    if isinstance(formula, Once):
        return any(reference_eval(formula.operand, trace, j) for j in range(index + 1))
    if isinstance(formula, Historically):
        return all(reference_eval(formula.operand, trace, j) for j in range(index + 1))
    if isinstance(formula, Since):
        for j in range(index, -1, -1):
            if reference_eval(formula.right, trace, j):
                return all(
                    reference_eval(formula.left, trace, k)
                    for k in range(j + 1, index + 1)
                )
        return False
    raise TypeError(formula)


@given(
    formulas(),
    st.lists(st.sets(st.sampled_from(["a", "b", "c"])), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_incremental_matches_reference_semantics(formula, trace):
    incremental = PTLTLMonitor(formula).run(trace)
    reference = [reference_eval(formula, trace, i) for i in range(len(trace))]
    assert incremental == reference


@given(
    formulas(),
    st.lists(st.sets(st.sampled_from(["a", "b", "c"])), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_compiled_matches_reference_semantics(formula, trace):
    """The bit-slot program agrees with the O(n²) full-history oracle."""
    compiled = compile_property(formula)
    reference = [reference_eval(formula, trace, i) for i in range(len(trace))]
    assert compiled.monitor().run(trace) == reference
    # and the stateless step API over pre-encoded masks agrees too
    assert compiled.run([compiled.mask_of(events) for events in trace]) == reference


class TestSafeStateMonitor:
    def test_balanced_pairs_gate_safety(self):
        monitor = no_open_segments("begin", "end")
        assert monitor.safe  # vacuously, before any traffic
        assert monitor.observe("begin") is False
        assert monitor.open_obligations == 1
        assert monitor.observe("end") is True

    def test_nested_obligations(self):
        monitor = no_open_segments()
        monitor.observe("start")
        monitor.observe("start")
        monitor.observe("done")
        assert not monitor.safe
        monitor.observe("done")
        assert monitor.safe

    def test_unmatched_done_rejected(self):
        monitor = no_open_segments()
        with pytest.raises(ValueError):
            monitor.observe("done")

    def test_formula_and_pairs_combined(self):
        # safe iff no open decode AND we have never seen "panic"
        monitor = SafeStateMonitor(
            formula=PNot(Once(Prop("panic"))),
            pairs=[BalancedPair("start", "done")],
        )
        monitor.observe("start")
        monitor.observe("done")
        assert monitor.safe
        monitor.observe("panic")
        assert not monitor.safe
        monitor.observe()  # panic is latched by Once
        assert not monitor.safe

    def test_on_safe_callbacks(self):
        fired = []
        monitor = no_open_segments()
        monitor.on_safe(lambda: fired.append(True))
        monitor.observe("start")
        assert fired == []
        monitor.observe("done")
        assert fired == [True]


_PAIR_EVENTS = ["a", "b", "c", "start", "done"]


def _drive(monitor, stream):
    """Per-step ``(observe value, .safe)`` (or the error), plus the steps
    at which ``on_safe`` fired."""
    log, fired = [("initial", monitor.safe)], []
    monitor.on_safe(lambda: fired.append(len(log)))
    for events in stream:
        try:
            log.append((monitor.observe(*sorted(events)), monitor.safe))
        except ValueError as exc:
            log.append(("error", str(exc)))
            break
    return log, fired


@given(
    st.none() | formulas(),
    st.lists(
        st.lists(
            st.sampled_from(_PAIR_EVENTS), min_size=2, max_size=2, unique=True
        ).map(lambda ends: BalancedPair(*ends)),
        max_size=2,
    ),
    st.lists(st.sets(st.sampled_from(_PAIR_EVENTS)), max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_safe_state_monitor_matches_the_ast_engine(formula, pairs, stream):
    """The compiled runtime monitor answers as the AST-driven one does."""
    assert _drive(SafeStateMonitor(formula, pairs), stream) == _drive(
        ReferenceSafeStateMonitor(formula, pairs), stream
    )
