"""Safe-configuration enumeration (paper §4.2, step 1).

"Based on the source/target configurations of an adaptation request and
dependency relationships, this step produces a set of safe configurations."

A configuration is safe iff it satisfies every invariant.  Enumeration over
*n* components is 2^n in the worst case — the paper acknowledges this in §7
— but no invariant spans two invariant-connected sets of components, so the
full sweep enumerates each set on its own and takes the product
(:class:`~repro.core.collaborative.SafeFactorization`).  Point queries
(:meth:`SafeConfigurationSpace.is_safe_mask`) never enumerate anything,
so a planner above the enumeration cap holds a space it never sweeps.

Performance: safety testing runs on the bitmask fast path.  The invariant
conjunction is compiled once (:mod:`repro.expr.compile`) to a closure over
an integer presence mask, and verdicts are memoized per mask in a table
shared by every consumer — :meth:`SafeConfigurationSpace.is_safe`, the
backtracking enumerator, :meth:`SafeAdaptationGraph.build
<repro.core.sag.SafeAdaptationGraph.build>`, and the implicit SAG's
compiled arcs.
The frozenset/AST evaluation path remains the semantic source of truth and
still serves configurations containing components outside the universe.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.collaborative import SafeFactorization
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.errors import UnknownComponentError, UnsafeConfigurationError


class SafeConfigurationSpace:
    """All safe configurations of a universe under an invariant set."""

    def __init__(self, universe: ComponentUniverse, invariants: InvariantSet):
        self.universe = universe
        self.invariants = invariants
        #: safe masks, ascending (None until the first full enumeration)
        self._cache: Optional[Tuple[int, ...]] = None
        self._configs: Optional[Tuple[Configuration, ...]] = None
        self._safe_memo: Dict[int, bool] = {}
        self._compiled: Optional[Callable[[int], bool]] = None
        self._compiled_partial: Optional[Tuple[Callable, ...]] = None
        self._checks_by_name: Optional[Dict[str, Tuple[Callable, ...]]] = None
        self._factors: Optional[SafeFactorization] = None

    # -- compiled fast path ------------------------------------------------------
    @property
    def safe_memo(self) -> Dict[int, bool]:
        """The shared mask -> verdict memo table (exposed for reuse)."""
        return self._safe_memo

    def _compiled_mask_fn(self) -> Callable[[int], bool]:
        if self._compiled is None:
            self._compiled = self.invariants.compile_mask(self.universe.atom_bits)
        return self._compiled

    def _compiled_partial_fns(self) -> Tuple[Callable, ...]:
        if self._compiled_partial is None:
            self._compiled_partial = self.invariants.compile_mask_partial(
                self.universe.atom_bits
            )
        return self._compiled_partial

    def _check_schedule(self, names: Tuple[str, ...]) -> Tuple[Tuple[Callable, ...], ...]:
        """Per-position invariant checks for a backtracking order.

        ``schedule[i]`` holds the compiled three-valued closures of the
        invariants that mention ``names[i]`` — the only invariants whose
        verdict can change when that component is decided.  Checking just
        those at each depth is exact (the parent node already vetted the
        rest) and drops the per-node work from |I| closures to the
        invariant's fan-in.  The per-component buckets are computed once
        per space, so scheduling a set's enumeration is O(|names|).
        """
        if self._checks_by_name is None:
            buckets: Dict[str, List[Callable]] = {}
            for inv, fn in zip(self.invariants, self._compiled_partial_fns()):
                for atom in inv.atoms():
                    buckets.setdefault(atom, []).append(fn)
            self._checks_by_name = {
                name: tuple(bucket) for name, bucket in buckets.items()
            }
        checks = self._checks_by_name
        return tuple(checks.get(name, ()) for name in names)

    def is_safe_mask(self, mask: int) -> bool:
        """Memoized safety verdict for an integer presence mask."""
        verdict = self._safe_memo.get(mask)
        if verdict is None:
            verdict = self._compiled_mask_fn()(mask)
            self._safe_memo[mask] = verdict
        return verdict

    def _record_safe(self, masks: Iterable[int]) -> None:
        """Memoize *masks*, each a whole safe configuration, as safe."""
        memo = self._safe_memo
        for mask in masks:
            memo[mask] = True

    def are_safe_masks(self, masks: Iterable[int]) -> List[bool]:
        """Batched :meth:`is_safe_mask` — one verdict per mask, in order.

        Hot-path callers (lazy successor generation, lint sweeps) hand
        over a whole candidate batch so the compiled-closure and memo
        lookups are resolved once per batch instead of once per call.
        """
        memo = self._safe_memo
        memo_get = memo.get
        compiled = self._compiled_mask_fn()
        out: List[bool] = []
        for mask in masks:
            verdict = memo_get(mask)
            if verdict is None:
                verdict = compiled(mask)
                memo[mask] = verdict
            out.append(verdict)
        return out

    # -- membership ------------------------------------------------------------
    def is_safe(self, config: Configuration) -> bool:
        """True iff *config* is a safe configuration (paper §3.1)."""
        try:
            mask = self.universe.mask_of(config)
        except UnknownComponentError:
            # Configurations reaching outside the universe keep the
            # set-based evaluation (they have no mask encoding).
            return self.invariants.all_hold(config)
        return self.is_safe_mask(mask)

    def require_safe(self, config: Configuration, role: str = "configuration") -> None:
        """Raise :class:`UnsafeConfigurationError` with an explanation if unsafe."""
        if not self.is_safe(config):
            raise UnsafeConfigurationError(
                f"{role} is unsafe: {self.invariants.explain(config)}"
            )

    # -- enumeration ------------------------------------------------------------
    def projections(self, component_set: Iterable[str]) -> Tuple[int, ...]:
        """The safe projections of *component_set*, ascending.

        *component_set* is a union of invariant-connected sets (any
        collaborative set); see :meth:`SafeFactorization.projections
        <repro.core.collaborative.SafeFactorization.projections>`.  Each
        set is enumerated once per space, on first use.
        """
        return self.factorization.projections(component_set, self.extensions)

    @property
    def factorization(self) -> SafeFactorization:
        """The space's :class:`~repro.core.collaborative.SafeFactorization`,
        built on first use."""
        if self._factors is None:
            self._factors = SafeFactorization(self.universe, self.invariants)
        return self._factors

    def enumerate_masks(self) -> Tuple[int, ...]:
        """Masks of every safe configuration, ascending (cached).

        No invariant spans two invariant-connected sets, so the safe
        space is the sorted product of the sets' safe projections
        (:meth:`projections` over the whole universe); each set is
        enumerated on its own by :meth:`extensions`.  Every safe mask is recorded in the shared
        safety memo.  The SAG build and lint consume the masks directly;
        the exhaustive filter over ``all_configurations`` and the
        whole-universe backtracking this replaced are the property-test
        oracles.
        """
        if self._cache is None:
            masks = self.projections(self.universe.names)
            self._record_safe(masks)
            self._cache = masks
        return self._cache

    def enumerate(self) -> Tuple[Configuration, ...]:
        """All safe configurations over the full universe (cached).

        Deterministic order: ascending by the universe's bit-vector value
        — :meth:`enumerate_masks`, decoded once on first call.
        """
        if self._configs is None:
            self._configs = tuple(map(self.universe.from_mask, self.enumerate_masks()))
        return self._configs

    def extensions(
        self, free: Tuple[str, ...], present0: int = 0, decided0: int = 0
    ) -> List[int]:
        """Masks over the *free* components that no invariant rules out.

        Backtracks over *free* in the given order, on top of *present0*,
        with the bits of *decided0* (and each free bit as it is reached)
        decided and every other bit undecided; a branch is cut as soon as
        an invariant is *determined false* under three-valued evaluation.
        Every invariant the root already decides (all of them when
        *decided0* covers everything outside *free*; those with no atom
        in the universe when it is 0) is checked once up front.
        Output is recursion order: ascending whenever *free* follows the
        universe order.  Nothing is written to the safety memo: with
        bits left undecided, an extension is a projection, not a safe
        configuration.
        """
        for expr in self._compiled_partial_fns():
            if expr(present0, decided0) is False:
                return []
        universe = self.universe
        free_bits = tuple(universe.bit_of(name) for name in free)
        schedule = self._check_schedule(free)
        out: List[int] = []
        n = len(free_bits)

        def recurse(index: int, present: int, decided: int) -> None:
            if index == n:
                out.append(present)
                return
            bit = free_bits[index]
            decided |= bit
            checks = schedule[index]
            # '0' branch first, then '1' — ascending within the free bits
            for candidate in (present, present | bit):
                for expr in checks:
                    if expr(candidate, decided) is False:
                        break
                else:
                    recurse(index + 1, candidate, decided)

        recurse(0, present0, decided0)
        return out

    def count(self) -> int:
        return len(self.enumerate_masks())

    def to_table(self) -> List[Tuple[str, str]]:
        """Render the safe set as (bit vector, member list) rows — Table 1."""
        rows = []
        for config in self.enumerate():
            rows.append((self.universe.to_bits(config), config.label()))
        return rows

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self.enumerate())

    def __len__(self) -> int:
        return len(self.enumerate_masks())

    def __contains__(self, config: Configuration) -> bool:
        return self.is_safe(config)

