"""ptLTL formula AST: operators, configuration-level atoms, text syntax.

The formula classes are shared by every property-evaluation surface:

* the compiled core (:mod:`repro.ltl.compile`) lowers the AST to a slot
  program over int bitmasks — the one evaluation engine of the product
  (the AST-walking reference semantics it is pinned to lives with the
  tests, in ``tests/oracles/ptltl_reference.py``);
* manifests carry formulas as text in a ``[properties]`` section, parsed
  by :func:`parse_property` and rendered back by :func:`property_to_text`.

A step's observation is always a *set of names* — trace-event names for
online monitoring, configuration members for path checking — so one
formula serves both. Two kinds of atoms exist over that set:

* ``Prop(name)`` — the step's set contains *name* (an event fired; a
  component is present);
* ``StateProp(expr)`` — a full dependency expression from
  :mod:`repro.expr` holds over the step's set (``{one_of(D1, D2, D3)}``
  in the text syntax) — the configuration-level propositions that let
  properties reuse invariant clauses verbatim.

Text syntax (``parse_property``)::

    property := or ('->' property)?          # implies, right-assoc
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '!' unary | primary
    primary  := historically(p) | once(p) | previously(p) | since(p, q)
              | '(' property ')'
              | '{' expr '}'                 # repro.expr syntax
              | NAME                         # presence atom

``prev`` is accepted as an alias of ``previously``.  The temporal words
are keywords only when followed by ``(``, so components named ``once``
or ``since`` stay usable as presence atoms.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, Set, Tuple

from repro.errors import ParseError
from repro.expr.ast import Expr, to_text
from repro.expr.parser import parse as parse_expr


class PFormula:
    """Base class for past-time LTL formulas (immutable)."""

    __slots__ = ()

    def subformulas(self) -> Tuple["PFormula", ...]:
        """Post-order listing (children before parents), with duplicates."""
        out: List[PFormula] = []
        self._collect(out)
        return tuple(out)

    def atoms(self) -> FrozenSet[str]:
        """Every name the formula observes: proposition names plus the
        component atoms of embedded :class:`StateProp` expressions."""
        names: Set[str] = set()
        for sub in self.subformulas():
            if isinstance(sub, Prop):
                names.add(sub.name)
            elif isinstance(sub, StateProp):
                names |= sub.expr.atoms()
        return frozenset(names)

    def _collect(self, out: List["PFormula"]) -> None:
        raise NotImplementedError


class Prop(PFormula):
    """Atomic proposition: the current step carries this event name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    def _collect(self, out):
        out.append(self)

    def __repr__(self):
        return f"Prop({self.name!r})"


class StateProp(PFormula):
    """Configuration-level atom: a dependency expression over the step's set.

    Evaluates an arbitrary :class:`repro.expr.ast.Expr` against the
    step's name set, so temporal properties can quantify over the same
    clauses the invariants use (``historically({E1 -> D4})``).
    """

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        object.__setattr__(self, "expr", expr)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    def _collect(self, out):
        out.append(self)

    def __repr__(self):
        return f"StateProp({to_text(self.expr)})"


class _Unary(PFormula):
    __slots__ = ("operand",)

    def __init__(self, operand: PFormula):
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    def _collect(self, out):
        self.operand._collect(out)
        out.append(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.operand!r})"


class _Binary(PFormula):
    __slots__ = ("left", "right")

    def __init__(self, left: PFormula, right: PFormula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    def _collect(self, out):
        self.left._collect(out)
        self.right._collect(out)
        out.append(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class PNot(_Unary):
    """¬f — f does not hold now."""


class PAnd(_Binary):
    """f ∧ g — both hold now."""


class POr(_Binary):
    """f ∨ g — at least one holds now."""


class PImplies(_Binary):
    """f → g — g holds now whenever f does."""


class Previously(_Unary):
    """⊙f — f held at the previous step (false at the first step)."""


class Once(_Unary):
    """⧫f — f held at some step up to and including now."""


class Historically(_Unary):
    """⊡f — f held at every step up to and including now."""


class Since(_Binary):
    """f S g — g held at some past-or-present step, and f has held since
    (strictly after that step, through now)."""


# -- text syntax ----------------------------------------------------------------

_TEMPORAL_UNARY = {
    "historically": Historically,
    "once": Once,
    "previously": Previously,
    "prev": Previously,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<punct>[(){},&|!])"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.\-@]*))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """``(kind, value, position)`` triples; braces swallow expr text raw."""
    tokens: List[Tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(
                f"unexpected character {stripped[0]!r} in property",
                text=text,
                position=at,
            )
        if match.group("punct") == "{":
            close = text.find("}", match.end())
            if close < 0:
                raise ParseError(
                    "unterminated '{' expression atom in property",
                    text=text,
                    position=match.start("punct"),
                )
            tokens.append(("expr", text[match.end():close], match.start("punct")))
            pos = close + 1
            continue
        if match.group("punct") == "}":
            raise ParseError(
                "unmatched '}' in property",
                text=text,
                position=match.start("punct"),
            )
        if match.group("arrow"):
            tokens.append(("op", "->", match.start("arrow")))
        elif match.group("punct"):
            tokens.append(("op", match.group("punct"), match.start("punct")))
        else:
            tokens.append(("name", match.group("name"), match.start("name")))
        pos = match.end()
    return tokens


class _PropertyParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Tuple[str, str, int]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "", len(self.text))

    def take(self) -> Tuple[str, str, int]:
        token = self.peek()
        self.index += 1
        return token

    def expect(self, value: str) -> None:
        kind, got, pos = self.take()
        if kind == "end" or got != value:
            raise ParseError(
                f"expected {value!r}"
                + (f", got {got!r}" if kind != "end" else ", got end of input"),
                text=self.text,
                position=pos,
            )

    def parse(self) -> PFormula:
        formula = self.implies()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(
                f"unexpected {value!r} after property",
                text=self.text,
                position=pos,
            )
        return formula

    def implies(self) -> PFormula:
        left = self.disjunction()
        kind, value, _ = self.peek()
        if kind == "op" and value == "->":
            self.take()
            return PImplies(left, self.implies())
        return left

    def disjunction(self) -> PFormula:
        left = self.conjunction()
        while self.peek()[:2] == ("op", "|"):
            self.take()
            left = POr(left, self.conjunction())
        return left

    def conjunction(self) -> PFormula:
        left = self.unary()
        while self.peek()[:2] == ("op", "&"):
            self.take()
            left = PAnd(left, self.unary())
        return left

    def unary(self) -> PFormula:
        if self.peek()[:2] == ("op", "!"):
            self.take()
            return PNot(self.unary())
        return self.primary()

    def primary(self) -> PFormula:
        kind, value, pos = self.take()
        if kind == "expr":
            try:
                return StateProp(parse_expr(value))
            except ParseError as exc:
                raise ParseError(
                    f"bad '{{...}}' expression atom: "
                    f"{exc.args[0] if exc.args else exc}",
                    text=self.text,
                    position=pos,
                ) from exc
        if kind == "op" and value == "(":
            inner = self.implies()
            self.expect(")")
            return inner
        if kind == "name":
            follows_call = self.peek()[:2] == ("op", "(")
            lowered = value.lower()
            if follows_call and lowered in _TEMPORAL_UNARY:
                self.take()
                inner = self.implies()
                self.expect(")")
                return _TEMPORAL_UNARY[lowered](inner)
            if follows_call and lowered == "since":
                self.take()
                left = self.implies()
                self.expect(",")
                right = self.implies()
                self.expect(")")
                return Since(left, right)
            return Prop(value)
        raise ParseError(
            f"expected a property term, got "
            + (f"{value!r}" if kind != "end" else "end of input"),
            text=self.text,
            position=pos,
        )


def parse_property(text: str) -> PFormula:
    """Parse the manifest ``[properties]`` text syntax into a formula.

    Raises :class:`repro.errors.ParseError` (with ``position``) on bad
    input, mirroring :func:`repro.expr.parser.parse`.
    """
    if not text.strip():
        raise ParseError("empty property", text=text, position=0)
    return _PropertyParser(text).parse()


#: precedence levels for rendering (higher binds tighter)
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_ATOM = 5


def property_to_text(formula: PFormula) -> str:
    """Render a formula in the manifest text syntax.

    ``parse_property(property_to_text(f))`` is structurally ``f`` —
    the round-trip :func:`repro.manifest.dumps` depends on.
    """
    return _render(formula, 0)


def _render(formula: PFormula, context: int) -> str:
    if isinstance(formula, Prop):
        return formula.name
    if isinstance(formula, StateProp):
        return "{" + to_text(formula.expr) + "}"
    if isinstance(formula, PNot):
        return "!" + _render(formula.operand, _PREC_NOT)
    if isinstance(formula, Historically):
        return f"historically({_render(formula.operand, 0)})"
    if isinstance(formula, Once):
        return f"once({_render(formula.operand, 0)})"
    if isinstance(formula, Previously):
        return f"previously({_render(formula.operand, 0)})"
    if isinstance(formula, Since):
        return (
            f"since({_render(formula.left, 0)}, {_render(formula.right, 0)})"
        )
    if isinstance(formula, PAnd):
        # left-associative: a right-nested conjunction needs parentheses
        # to reparse into the same shape
        text = (
            f"{_render(formula.left, _PREC_AND)} & "
            f"{_render(formula.right, _PREC_AND + 1)}"
        )
        level = _PREC_AND
    elif isinstance(formula, POr):
        text = (
            f"{_render(formula.left, _PREC_OR)} | "
            f"{_render(formula.right, _PREC_OR + 1)}"
        )
        level = _PREC_OR
    elif isinstance(formula, PImplies):
        # right-associative: the right child re-enters at the same level
        text = (
            f"{_render(formula.left, _PREC_OR)} -> "
            f"{_render(formula.right, _PREC_IMPLIES)}"
        )
        level = _PREC_IMPLIES
    else:  # pragma: no cover - new operators must extend the renderer
        raise TypeError(f"cannot render {type(formula).__name__}")
    return f"({text})" if level < context else text
