#!/usr/bin/env python
"""Scalability (§7): collaborative sets versus the full SAG.

The monolithic detection & setup phase enumerates the whole safe space
(8^n configurations for n replicated video groups) and runs Dijkstra on
the full SAG.  The paper's remedy — collaborative-set decomposition —
plans the same adaptations without ever materializing that space:
``AdaptationPlanner.plan`` reads the plan off exact per-set distance
tables.  This script measures both.

Run:  python examples/collaborative_scaling.py
"""

import time

from repro.bench import format_table, replicated_video_system
from repro.core import collaborative_sets
from repro.core.planner import AdaptationPlanner


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - start) * 1000


def main() -> None:
    print("collaborative sets on the 3-group system:")
    system = replicated_video_system(3)
    groups = collaborative_sets(system.universe, system.invariants, system.actions)
    for group in groups:
        print(f"  {sorted(group)}")
    print()

    rows = []
    for n in (1, 2, 3):
        system = replicated_video_system(n)

        def monolithic():
            planner = AdaptationPlanner(
                system.universe, system.invariants, system.actions
            )
            mask_of = system.universe.mask_of
            tree = planner.sag.csr.shortest_path_tree(mask_of(system.source))
            return tree.path_to(mask_of(system.target)).cost, planner.sag.node_count

        def collaborative():
            planner = AdaptationPlanner(
                system.universe, system.invariants, system.actions
            )
            return planner.plan(system.source, system.target).total_cost

        (mono_cost, nodes), mono_ms = timed(monolithic)
        collab_cost, collab_ms = timed(collaborative)
        assert mono_cost == collab_cost == 50.0 * n
        rows.append((n, 7 * n, nodes, f"{mono_ms:.1f}", f"{collab_ms:.1f}"))
    print(
        format_table(
            [
                "groups", "components", "SAG nodes",
                "full SAG+Dijkstra (ms)", "per-set tables (ms)",
            ],
            rows,
        )
    )
    print("\nBoth planners agree on the optimal cost (50 ms per group);")
    print("only the monolithic one pays the exponential safe-space bill.")


if __name__ == "__main__":
    main()
