#!/usr/bin/env python
"""Quickstart: model a system, plan a safe adaptation, run it.

A minimal end-to-end tour of the public API on a made-up system: a web
tier (one of two load balancers), an app tier, and a cache that the app
tier depends on.  We plan a safe path that swaps the load balancer and
upgrades the cache, then execute it on the deterministic simulator and
verify the execution against the paper's safety definition.

Run:  python examples/quickstart.py
"""

from repro import (
    ActionLibrary,
    AdaptationPlanner,
    AdaptiveAction,
    ComponentUniverse,
    DependencyInvariant,
    InvariantSet,
    StructuralInvariant,
    check_safe,
)
from repro.expr import exactly_one
from repro.sim import AdaptationCluster, QuiescentAdapter


def main() -> None:
    # 1. Components, each hosted on a process.
    universe = ComponentUniverse.from_names(
        ["LB1", "LB2", "App", "CacheV1", "CacheV2"],
        {
            "LB1": "edge", "LB2": "edge",
            "App": "app",
            "CacheV1": "data", "CacheV2": "data",
        },
    )

    # 2. Dependency relationships (paper §3.1):
    invariants = InvariantSet(
        [
            StructuralInvariant(exactly_one("LB1", "LB2"), name="one balancer"),
            StructuralInvariant("App", name="app always present"),
            DependencyInvariant("App -> CacheV1 | CacheV2"),
            StructuralInvariant(exactly_one("CacheV1", "CacheV2"), name="one cache"),
        ]
    )

    # 3. Adaptive actions with costs (paper §4.1):
    actions = ActionLibrary(
        [
            AdaptiveAction.replace("swap-lb", "LB1", "LB2", cost=5),
            AdaptiveAction.replace("upgrade-cache", "CacheV1", "CacheV2", cost=20),
            AdaptiveAction(
                "big-bang",
                removes=frozenset({"LB1", "CacheV1"}),
                adds=frozenset({"LB2", "CacheV2"}),
                cost=80,
                description="swap balancer and cache together",
            ),
        ]
    )

    # 4. Detection & setup phase: safe set, SAG, Minimum Adaptation Path.
    planner = AdaptationPlanner(universe, invariants, actions)
    print(f"safe configurations: {planner.space.count()}")
    source = universe.configuration("LB1", "App", "CacheV1")
    target = universe.configuration("LB2", "App", "CacheV2")
    plan = planner.plan(source, target)
    print(plan.describe())
    print()

    # 5. Realization phase on the simulator: manager + one agent per process.
    cluster = AdaptationCluster(
        universe,
        invariants,
        actions,
        source,
        apps={p: QuiescentAdapter(quiesce_delay=2.0) for p in universe.processes()},
    )
    outcome = cluster.adapt_to(target)
    print(f"outcome: {outcome.status} at {outcome.configuration.label()} "
          f"in {outcome.duration:g} ms ({outcome.steps_committed} steps)")

    # 6. Verify the execution against the paper's safety definition.
    report = check_safe(cluster.trace, invariants)
    print(f"safety: {report.summary()}")
    report.raise_if_unsafe()


if __name__ == "__main__":
    main()
