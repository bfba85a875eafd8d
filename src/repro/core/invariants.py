"""Structural and dependency invariants (paper §3.1, §5.1).

Two flavors, exactly as the paper distinguishes them:

* **Structural invariants** constrain the system's shape regardless of who
  depends on whom — e.g. the video example's resource constraint
  ``one_of(D1, D2, D3)`` (the handheld can host only one decoder) and
  security constraint ``one_of(E1, E2)`` (data must stay encoded).
* **Dependency invariants** are arrows ``A -> Cond`` — the correct
  functionality of ``A`` requires ``Cond``, e.g.
  ``E1 -> (D1 | D2) & D4``.

A configuration is **safe** iff it satisfies every invariant
(:meth:`InvariantSet.all_hold`).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ModelError
from repro.expr import Expr, Implies, parse
from repro.expr.ast import to_text


class Invariant:
    """A named boolean predicate over configurations.

    Immutable, so the atom set is computed once at construction: lint,
    collaborative-set decomposition and impact analysis ask for it per
    invariant over and over, and each expression walk is a tree traversal.
    """

    __slots__ = ("name", "expr", "_atoms")

    def __init__(self, expr: Union[Expr, str], name: str = ""):
        if isinstance(expr, str):
            expr = parse(expr)
        if not isinstance(expr, Expr):
            raise TypeError(f"expected Expr or str, got {type(expr).__name__}")
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "name", name or to_text(expr))
        object.__setattr__(self, "_atoms", expr.atoms())

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Invariant is immutable")

    def __copy__(self) -> "Invariant":
        return self  # immutable: sharing is safe

    def __deepcopy__(self, memo) -> "Invariant":
        return self  # immutable: sharing is safe

    def holds(self, config: AbstractSet[str]) -> bool:
        """True iff the configuration satisfies this invariant."""
        members = getattr(config, "members", config)
        return self.expr.evaluate(members)

    def atoms(self) -> FrozenSet[str]:
        return self._atoms

    def __eq__(self, other) -> bool:
        return isinstance(other, Invariant) and self.expr == other.expr

    def __hash__(self) -> int:
        return hash(("invariant", self.expr))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class StructuralInvariant(Invariant):
    """System-shape constraint (paper: "structural invariant")."""

    __slots__ = ()


class DependencyInvariant(Invariant):
    """Arrow invariant ``depender -> condition`` (paper: ``A → Cond``)."""

    __slots__ = ()

    def __init__(
        self,
        depender: Union[Expr, str],
        condition: Union[Expr, str, None] = None,
        name: str = "",
    ):
        if condition is None:
            # Single-string form: "E1 -> (D1 | D2) & D4".
            expr = parse(depender) if isinstance(depender, str) else depender
            if not isinstance(expr, Implies):
                raise ModelError(
                    "a DependencyInvariant must be an implication; "
                    f"got {to_text(expr) if isinstance(expr, Expr) else expr!r}"
                )
        else:
            left = parse(depender) if isinstance(depender, str) else depender
            right = parse(condition) if isinstance(condition, str) else condition
            expr = Implies(left, right)
        super().__init__(expr, name=name)

    @property
    def depender(self) -> Expr:
        return self.expr.antecedent  # type: ignore[attr-defined]

    @property
    def condition(self) -> Expr:
        return self.expr.consequent  # type: ignore[attr-defined]


class InvariantSet:
    """The conjunction *I* of all invariants (paper §4.1).

    Iterable and indexable; the order is the declaration order, which keeps
    violation reports and collaborative-set decomposition deterministic.
    """

    def __init__(self, invariants: Iterable[Invariant] = ()):
        self._invariants: Tuple[Invariant, ...] = tuple(invariants)
        for inv in self._invariants:
            if not isinstance(inv, Invariant):
                raise TypeError(f"expected Invariant, got {type(inv).__name__}")

    @classmethod
    def of(cls, *specs: Union[Invariant, Expr, str]) -> "InvariantSet":
        """Convenience constructor accepting strings/Exprs/Invariants."""
        out: List[Invariant] = []
        for spec in specs:
            if isinstance(spec, Invariant):
                out.append(spec)
            else:
                out.append(Invariant(spec))
        return cls(out)

    def __iter__(self) -> Iterator[Invariant]:
        return iter(self._invariants)

    def __len__(self) -> int:
        return len(self._invariants)

    def __getitem__(self, index: int) -> Invariant:
        return self._invariants[index]

    def extended(self, *more: Invariant) -> "InvariantSet":
        return InvariantSet(self._invariants + tuple(more))

    def atoms(self) -> FrozenSet[str]:
        """All component names mentioned by any invariant."""
        out: FrozenSet[str] = frozenset()
        for inv in self._invariants:
            out |= inv.atoms()
        return out

    def all_hold(self, config: AbstractSet[str]) -> bool:
        """True iff *config* is a **safe configuration** (paper §3.1)."""
        return all(inv.holds(config) for inv in self._invariants)

    def compile_mask(self, bits) -> "Callable[[int], bool]":
        """Compiled form of :meth:`all_hold` over an integer presence mask.

        *bits* maps component names to bit values — normally
        :attr:`repro.core.model.ComponentUniverse.atom_bits`.  The returned
        closure agrees with :meth:`all_hold` on every configuration whose
        members all carry bits (the property tests pin this); the AST path
        stays the semantic source of truth.
        """
        from repro.expr.compile import compile_conjunction

        return compile_conjunction((inv.expr for inv in self._invariants), bits)

    def compile_mask_partial(self, bits) -> "Tuple[Callable[[int, int], Optional[bool]], ...]":
        """Three-valued compiled invariants for backtracking enumeration."""
        from repro.expr.compile import compile_all_partial

        return compile_all_partial((inv.expr for inv in self._invariants), bits)

    def violated(self, config: AbstractSet[str]) -> Tuple[Invariant, ...]:
        """The invariants *config* breaks — empty tuple means safe."""
        return tuple(inv for inv in self._invariants if not inv.holds(config))

    def explain(self, config: AbstractSet[str]) -> str:
        """Human-readable verdict used in error messages and reports."""
        broken = self.violated(config)
        members = getattr(config, "members", config)
        label = "{" + ",".join(sorted(members)) + "}"
        if not broken:
            return f"{label} is a safe configuration"
        reasons = "; ".join(inv.name for inv in broken)
        return f"{label} violates: {reasons}"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"InvariantSet({[inv.name for inv in self._invariants]!r})"
