"""Reference safe-space enumerator (slow oracle).

The whole-universe backtracking :meth:`SafeConfigurationSpace.enumerate_masks`
ran before the safe space was taken as a product of per-set factors
(:class:`repro.core.collaborative.SafeFactorization`): components are
decided one at a time in universe order, and a branch is pruned as soon
as any invariant is *determined false* under three-valued evaluation.
``tests/core/test_factored_build.py`` pins the product to it and to the
brute-force filter over ``all_configurations``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.model import Configuration
from repro.core.space import SafeConfigurationSpace


def enumerate_backtracking(space: SafeConfigurationSpace) -> Tuple[Configuration, ...]:
    """Safe set via backtracking with invariant propagation.

    Decides components one at a time (in universe order) and prunes a
    branch as soon as any invariant is *determined false* under
    three-valued evaluation — so branches that can never satisfy a
    one-of/dependency constraint are abandoned without expanding the
    remaining 2^k subtree.  Same result and order as
    :meth:`SafeConfigurationSpace.enumerate`.
    """
    return tuple(map(space.universe.from_mask, backtracking_masks(space)))


def backtracking_masks(space: SafeConfigurationSpace) -> Tuple[int, ...]:
    """The masks-only core of :func:`enumerate_backtracking`.

    Runs entirely on compiled bitmask closures; every leaf verdict is
    recorded in the shared safety memo so later SAG construction and
    lazy planning reuse it for free.
    """
    universe = space.universe
    order = universe.order
    order_bits = tuple(universe.bit_of(name) for name in order)
    # invariants with no universe atom are constant under the mask
    # encoding — decide them once up front instead of per node
    for expr in space._compiled_partial_fns():
        if expr(0, 0) is False:
            return ()
    schedule = space._check_schedule(order)
    memo = space._safe_memo
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
