"""Safe-configuration enumeration (paper §4.2, step 1).

"Based on the source/target configurations of an adaptation request and
dependency relationships, this step produces a set of safe configurations."

A configuration is safe iff it satisfies every invariant.  Enumeration over
*n* components is 2^n in the worst case — the paper acknowledges this in §7
— so besides the full sweep we support *restricted* enumeration: freeze the
components no adaptive action can touch at their current values and only
vary the rest.  The restriction is exact (it enumerates precisely the safe
configurations reachable by the given actions from the given base).

Performance: safety testing runs on the bitmask fast path.  The invariant
conjunction is compiled once (:mod:`repro.expr.compile`) to a closure over
an integer presence mask, and verdicts are memoized per mask in a table
shared by every consumer — :meth:`SafeConfigurationSpace.is_safe`, the
backtracking enumerators, :meth:`SafeAdaptationGraph.build
<repro.core.sag.SafeAdaptationGraph.build>`, and the planner's lazy A*.
The frozenset/AST evaluation path remains the semantic source of truth and
still serves configurations containing components outside the universe.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

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
        invariant's fan-in.
        """
        fns = self._compiled_partial_fns()
        buckets: List[List[Callable]] = [[] for _ in names]
        position = {name: i for i, name in enumerate(names)}
        for inv, fn in zip(self.invariants, fns):
            for atom in inv.atoms():
                index = position.get(atom)
                if index is not None:
                    buckets[index].append(fn)
        return tuple(tuple(bucket) for bucket in buckets)

    def is_safe_mask(self, mask: int) -> bool:
        """Memoized safety verdict for an integer presence mask."""
        verdict = self._safe_memo.get(mask)
        if verdict is None:
            verdict = self._compiled_mask_fn()(mask)
            self._safe_memo[mask] = verdict
        return verdict

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
    def enumerate_masks(self) -> Tuple[int, ...]:
        """Masks of every safe configuration, ascending (cached).

        The enumeration itself is :meth:`_backtracking_masks` (invariant
        propagation prunes hopeless branches early).  The SAG build and
        lint consume the masks directly; the exhaustive filter over
        ``all_configurations`` is kept as the property-test oracle.
        """
        if self._cache is None:
            self._cache = self._backtracking_masks()
        return self._cache

    def enumerate(self) -> Tuple[Configuration, ...]:
        """All safe configurations over the full universe (cached).

        Deterministic order: ascending by the universe's bit-vector value
        — :meth:`enumerate_masks`, decoded once on first call.
        """
        if self._configs is None:
            self._configs = tuple(map(self.universe.from_mask, self.enumerate_masks()))
        return self._configs

    def enumerate_restricted(
        self,
        base: Configuration,
        free_components: Iterable[str],
    ) -> Tuple[Configuration, ...]:
        """Safe configurations varying only *free_components* over *base*.

        Components outside *free_components* keep their membership from
        *base*.  This is how a planner scopes the search to the components
        an adaptation can actually touch, avoiding the full 2^n sweep: the
        three-valued backtracking pruner runs over just the free
        components, with everything else pre-decided, and leaf verdicts go
        through the shared safety memo table.
        """
        free: Tuple[str, ...] = tuple(dict.fromkeys(free_components))
        self.universe.validate_members(free)
        frozen = base.members - frozenset(free)
        if not frozen <= self.universe.names:
            # Frozen members outside the universe have no bit encoding;
            # keep the exhaustive set-based sweep for that corner.
            return self._enumerate_restricted_setwise(frozen, free)
        universe = self.universe
        present0 = universe.mask_of_names(frozen)
        from_mask = universe.from_mask
        out = [from_mask(mask) for mask in self._restricted_masks(present0, free)]
        # free components may interleave with frozen ones in universe
        # order, so recursion order is not globally ascending — re-sort
        out.sort(key=universe.to_bits)
        return tuple(out)

    def _restricted_masks(
        self, present0: int, free: Tuple[str, ...]
    ) -> List[int]:
        """Safe masks varying only *free* bits over the frozen *present0*.

        The masks-only core of :meth:`enumerate_restricted`.  Leaf masks
        are recorded in the shared safety memo.  Output follows recursion
        order: ascending whenever the free components form a suffix of
        the universe order.
        """
        universe = self.universe
        free_bits = tuple(universe.bit_of(name) for name in free)
        # everything outside the free components is decided up front
        decided0 = universe.full_mask ^ universe.mask_of_names(free)
        # invariants not touching a free component are fully decided at
        # the root; reject the whole restriction in one pass if any fails
        for expr in self._compiled_partial_fns():
            if expr(present0, decided0) is False:
                return []
        schedule = self._check_schedule(free)
        memo = self._safe_memo
        out: List[int] = []
        n = len(free_bits)

        def recurse(index: int, present: int, decided: int) -> None:
            if index == n:
                memo[present] = True
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

    def _enumerate_restricted_setwise(
        self, frozen: FrozenSet[str], free: Tuple[str, ...]
    ) -> Tuple[Configuration, ...]:
        """Exhaustive fallback for bases reaching outside the universe."""
        out: List[Configuration] = []
        n = len(free)
        for mask in range(1 << n):
            members = set(frozen)
            for i in range(n):
                if mask & (1 << (n - 1 - i)):
                    members.add(free[i])
            config = Configuration(members)
            if self.is_safe(config):
                out.append(config)
        out.sort(key=lambda c: "".join(
            "1" if name in c else "0" for name in self.universe.order
        ))
        return tuple(out)

    def enumerate_backtracking(self) -> Tuple[Configuration, ...]:
        """Safe set via backtracking with invariant propagation.

        Decides components one at a time (in universe order) and prunes a
        branch as soon as any invariant is *determined false* under
        three-valued evaluation — so branches that can never satisfy a
        one-of/dependency constraint are abandoned without expanding the
        remaining 2^k subtree.  Produces exactly :meth:`enumerate`'s
        result (same order) but scales far better on constrained spaces.
        """
        return tuple(map(self.universe.from_mask, self._backtracking_masks()))

    def _backtracking_masks(self) -> Tuple[int, ...]:
        """The masks-only core of :meth:`enumerate_backtracking`.

        Runs entirely on compiled bitmask closures; every leaf verdict is
        recorded in the shared safety memo so later SAG construction and
        lazy planning reuse it for free.
        """
        universe = self.universe
        order = universe.order
        order_bits = tuple(universe.bit_of(name) for name in order)
        # invariants with no universe atom are constant under the mask
        # encoding — decide them once up front instead of per node
        for expr in self._compiled_partial_fns():
            if expr(0, 0) is False:
                return ()
        schedule = self._check_schedule(order)
        memo = self._safe_memo
        out: List[int] = []
        n = len(order_bits)

        def recurse(index: int, present: int, decided: int) -> None:
            if index == n:
                memo[present] = True
                out.append(present)
                return
            bit = order_bits[index]
            decided |= bit
            checks = schedule[index]
            # '0' branch first so results come out in ascending bit order
            for candidate in (present, present | bit):
                for expr in checks:
                    if expr(candidate, decided) is False:
                        break
                else:
                    recurse(index + 1, candidate, decided)

        recurse(0, 0, 0)
        return tuple(out)

    def lazy_view(self) -> "LazySafeSpace":
        """A point-query view sharing this space's memo and compiled closure.

        Verdicts computed by either side are visible to the other, so a
        lazy search warmed by an earlier eager enumeration (or vice
        versa) never re-evaluates an invariant conjunction.
        """
        return LazySafeSpace(
            self.universe,
            self.invariants,
            memo=self._safe_memo,
            compiled=self._compiled_mask_fn(),
        )

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


class LazySafeSpace:
    """Answers "is this mask safe?" memoized and on demand — never 2^n.

    The frontier-planning counterpart of :class:`SafeConfigurationSpace`:
    it exposes the same membership interface but deliberately has **no**
    ``enumerate`` — holding one is a static guarantee that the
    exponential sweep cannot happen on this code path (the paper's §7
    barrier).  Safety verdicts run on the compiled bitmask closure and
    are memoized per mask; construct via
    :meth:`SafeConfigurationSpace.lazy_view` to share the memo with an
    eager space, or directly from ``(universe, invariants)`` when no
    eager space should ever exist (oversized specs).

    ``point_queries`` / ``memo_hits`` counters are exposed for benches
    and the service layer to report cache effectiveness.
    """

    __slots__ = (
        "universe",
        "invariants",
        "_safe_memo",
        "_compiled",
        "point_queries",
        "memo_hits",
    )

    def __init__(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        memo: Optional[Dict[int, bool]] = None,
        compiled: Optional[Callable[[int], bool]] = None,
    ):
        self.universe = universe
        self.invariants = invariants
        self._safe_memo: Dict[int, bool] = memo if memo is not None else {}
        self._compiled = compiled
        self.point_queries = 0
        self.memo_hits = 0

    @property
    def safe_memo(self) -> Dict[int, bool]:
        """The shared mask -> verdict memo table (exposed for reuse)."""
        return self._safe_memo

    def _compiled_fn(self) -> Callable[[int], bool]:
        if self._compiled is None:
            self._compiled = self.invariants.compile_mask(
                self.universe.atom_bits
            )
        return self._compiled

    def is_safe_mask(self, mask: int) -> bool:
        """Memoized safety verdict for an integer presence mask."""
        self.point_queries += 1
        verdict = self._safe_memo.get(mask)
        if verdict is None:
            verdict = self._compiled_fn()(mask)
            self._safe_memo[mask] = verdict
        else:
            self.memo_hits += 1
        return verdict

    def are_safe_masks(self, masks: Iterable[int]) -> List[bool]:
        """Batched :meth:`is_safe_mask` — one verdict per mask, in order.

        Counter semantics match the pointwise path exactly: every mask
        counts as a point query, every memo hit as a hit.
        """
        memo = self._safe_memo
        memo_get = memo.get
        compiled = self._compiled_fn()
        out: List[bool] = []
        queries = hits = 0
        for mask in masks:
            queries += 1
            verdict = memo_get(mask)
            if verdict is None:
                verdict = compiled(mask)
                memo[mask] = verdict
            else:
                hits += 1
            out.append(verdict)
        self.point_queries += queries
        self.memo_hits += hits
        return out

    def is_safe(self, config: Configuration) -> bool:
        """True iff *config* is a safe configuration (paper §3.1)."""
        try:
            mask = self.universe.mask_of(config)
        except UnknownComponentError:
            return self.invariants.all_hold(config)
        return self.is_safe_mask(mask)

    def require_safe(self, config: Configuration, role: str = "configuration") -> None:
        """Raise :class:`UnsafeConfigurationError` with an explanation if unsafe."""
        if not self.is_safe(config):
            raise UnsafeConfigurationError(
                f"{role} is unsafe: {self.invariants.explain(config)}"
            )

    def __contains__(self, config: Configuration) -> bool:
        return self.is_safe(config)
