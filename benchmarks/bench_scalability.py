"""Experiments C3/P3 — §7 scalability: SAG explosion and its remedies.

The paper: "the computational complexity may be high when there are
numerous adaptive components ... exponential to the number of components
involved".  Remedies it proposes: collaborative-set decomposition and
heuristic partial exploration of the SAG.

Two measured axes, both persisted to ``BENCH_scalability.json``:

* **serial enumeration** — the backtracking enumerator on the xor-stress
  universes (16/20 components), where per-node invariant work dominates;
  recorded with the host's CPU count, not gated.
* **eager vs lazy** — full eager pipeline (enumerate safe space + build
  SAG + Dijkstra) against :meth:`AdaptationPlanner.lazy_plan` frontier
  point queries at 21/28/35 components.  The CI gate
  (``test_lazy_point_query_gate``) requires the 28-component point
  query to beat eager build+plan by >=10x; the 35-component rows are
  the beyond-the-barrier acceptance check (eager enumeration of 8^5
  configurations is no longer attempted at all).
"""

import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import report
from repro.bench import format_table, replicated_video_system
from repro.bench.workloads import enumeration_stress_system
from repro.core.model import Configuration
from repro.core.planner import AdaptationPlanner
from repro.core.space import SafeConfigurationSpace

SCALABILITY_JSON = Path(__file__).with_name("BENCH_scalability.json")


def plan_monolithic(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    plan = planner.plan(system.source, system.target)
    return plan, planner.sag.node_count


def plan_lazy(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    return planner.plan_lazy(system.source, system.target)


def plan_collaborative(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    return planner.plan_collaborative(system.source, system.target)


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_monolithic_sag(benchmark, groups):
    system = replicated_video_system(groups)
    plan, nodes = benchmark(lambda: plan_monolithic(system))
    assert nodes == 8 ** groups  # the exponential blow-up, literally
    assert plan.total_cost == 50.0 * groups
    benchmark.extra_info["sag_nodes"] = nodes


@pytest.mark.parametrize("groups", [1, 2, 3, 4, 6])
def test_collaborative_planner(benchmark, groups):
    system = replicated_video_system(groups)
    plan = benchmark(lambda: plan_collaborative(system))
    assert plan.total_cost == 50.0 * groups
    assert len(plan) == 5 * groups


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_lazy_astar_planner(benchmark, groups):
    system = replicated_video_system(groups)
    plan = benchmark(lambda: plan_lazy(system))
    assert plan.total_cost == 50.0 * groups


# --- serial enumeration ------------------------------------------------------


@pytest.mark.parametrize("n", [16, 20])
def test_serial_enumeration(benchmark, n):
    """Serial backtracking on the xor-stress universes (recorded, ungated).

    Xor invariants stay undetermined until their last atom, so the pruner
    walks the whole prefix tree: the worst case for the enumerator, and
    the row any future enumeration engine has to beat on a recorded
    multi-core host.
    """
    system = enumeration_stress_system(n)

    def enumerate_cold():
        space = SafeConfigurationSpace(system.universe, system.invariants)
        t0 = time.perf_counter()
        masks = space.enumerate_masks()
        return masks, time.perf_counter() - t0

    masks, serial_s = benchmark.pedantic(enumerate_cold, rounds=1, iterations=1)
    assert len(masks) == 1 << (n - n // 2)  # each of the n/2 xors halves it
    report(
        f"P3 serial enumeration (n={n})",
        f"{n} components, safe configs={len(masks)}: "
        f"serial {serial_s * 1e3:.1f} ms on {os.cpu_count()} cpu(s)",
        data={
            "components": n,
            "safe_configs": len(masks),
            "serial_ms": round(serial_s * 1e3, 2),
            "nproc": os.cpu_count(),
        },
        json_path=SCALABILITY_JSON,
    )


# --- eager vs lazy ----------------------------------------------------------


def _fresh_planner(system):
    return AdaptationPlanner(system.universe, system.invariants, system.actions)


def _local_target(system):
    """The paper adaptation applied to group 0 only (a *local* query)."""
    keep = [m for m in system.source.members if "@g0" not in m]
    move = [m for m in system.target.members if "@g0" in m]
    return Configuration(keep + move)


def _adjacent_target(system):
    """One cheapest safe action away from the source (a *point* query)."""
    planner = _fresh_planner(system)
    src_mask = system.universe.mask_of(system.source)
    arcs = planner.lazy_sag.successors(src_mask)
    _, _, nxt = min(arcs, key=lambda arc: (arc[1], arc[0]))
    return system.universe.from_mask(nxt)


def _best_of(fn, rounds=3):
    best = float("inf")
    value = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


@pytest.mark.parametrize("groups", [3, 4])
def test_eager_vs_lazy(benchmark, groups):
    """Eager pipeline vs lazy frontier at 21/28 components.

    Every timing is a *cold* planner (enumeration + SAG + shortest-path
    for eager; memoized frontier search for lazy), and the full-distance
    plans must be identical — same actions, same cost — because
    ``lazy_plan`` is exact, not heuristic.
    """
    system = replicated_video_system(groups)
    local = _local_target(system)
    adjacent = _adjacent_target(system)

    eager_plan, eager_s = _best_of(
        lambda: _fresh_planner(system).plan(system.source, system.target)
    )
    lazy_plan_full, lazy_full_s = benchmark.pedantic(
        lambda: _best_of(
            lambda: _fresh_planner(system).lazy_plan(system.source, system.target)
        ),
        rounds=1,
        iterations=1,
    )
    _, lazy_local_s = _best_of(
        lambda: _fresh_planner(system).lazy_plan(system.source, local)
    )
    _, lazy_adjacent_s = _best_of(
        lambda: _fresh_planner(system).lazy_plan(system.source, adjacent)
    )
    assert lazy_plan_full.action_ids == eager_plan.action_ids
    assert lazy_plan_full.total_cost == eager_plan.total_cost == 50.0 * groups
    report(
        f"P3 eager vs lazy ({7 * groups} components)",
        f"eager build+plan {eager_s * 1e3:.1f} ms | lazy full-distance "
        f"{lazy_full_s * 1e3:.1f} ms, local {lazy_local_s * 1e3:.1f} ms, "
        f"point {lazy_adjacent_s * 1e3:.2f} ms",
        data={
            "components": 7 * groups,
            "eager_build_plan_ms": round(eager_s * 1e3, 2),
            "lazy_full_distance_ms": round(lazy_full_s * 1e3, 2),
            "lazy_local_query_ms": round(lazy_local_s * 1e3, 2),
            "lazy_point_query_ms": round(lazy_adjacent_s * 1e3, 3),
            "point_query_speedup": round(eager_s / max(lazy_adjacent_s, 1e-9), 1),
        },
        json_path=SCALABILITY_JSON,
    )


def test_lazy_point_query_gate():
    """CI gate: lazy point query >=10x faster than eager build+plan at 28.

    The eager path must enumerate 8^4 = 4096 safe configurations and
    compile the full SAG before answering anything; the lazy frontier
    answers a one-action query after expanding a handful of vertices.
    The measured gap is ~100x+; 10x is the regression floor.
    """
    system = replicated_video_system(4)
    adjacent = _adjacent_target(system)
    eager_plan, eager_s = _best_of(
        lambda: _fresh_planner(system).plan(system.source, system.target)
    )
    lazy_point, lazy_s = _best_of(
        lambda: _fresh_planner(system).lazy_plan(system.source, adjacent)
    )
    assert len(lazy_point) == 1  # genuinely adjacent
    ratio = eager_s / max(lazy_s, 1e-9)
    report(
        "P3 point-query gate (28 components)",
        f"eager build+plan {eager_s * 1e3:.1f} ms vs lazy point query "
        f"{lazy_s * 1e3:.2f} ms ({ratio:.0f}x, gate >=10x)",
        data={
            "eager_build_plan_ms": round(eager_s * 1e3, 2),
            "lazy_point_query_ms": round(lazy_s * 1e3, 3),
            "speedup": round(ratio, 1),
            "gate": 10.0,
        },
        json_path=SCALABILITY_JSON,
    )
    assert ratio >= 10.0, (
        f"lazy point query regressed: only {ratio:.1f}x faster than eager "
        f"({lazy_s * 1e3:.1f} ms vs {eager_s * 1e3:.1f} ms)"
    )


def test_beyond_the_barrier():
    """Acceptance: 35 components — past the eager enumeration horizon.

    8^5 = 32768 safe configurations would have to be enumerated and
    wired into a SAG before the eager planner answers anything; the lazy
    planner answers point and local queries without ever materializing
    the space (asserted: no eager cache, no monolithic SAG exist after
    planning).
    """
    system = replicated_video_system(5)
    assert len(system.universe) == 35
    local = _local_target(system)
    adjacent = _adjacent_target(system)
    planner = _fresh_planner(system)
    t0 = time.perf_counter()
    point = planner.lazy_plan(system.source, adjacent)
    point_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    local_plan = planner.lazy_plan(system.source, local)
    local_s = time.perf_counter() - t0
    assert len(point) == 1
    assert local_plan.total_cost == 50.0
    # the whole point: nothing eager was ever built
    assert planner._sag is None
    assert planner.space._cache is None
    report(
        "P3 beyond the enumeration barrier (35 components)",
        f"lazy point query {point_s * 1e3:.2f} ms, local adaptation "
        f"{local_s * 1e3:.1f} ms; eager space (8^5 configs) never built",
        data={
            "components": 35,
            "lazy_point_query_ms": round(point_s * 1e3, 3),
            "lazy_local_query_ms": round(local_s * 1e3, 2),
            "expanded_nodes": planner.lazy_sag.expanded_nodes,
            "eager_space_materialized": False,
        },
        json_path=SCALABILITY_JSON,
    )


def test_crossover_summary(benchmark):
    """One table: where the monolithic planner falls off a cliff."""
    benchmark.pedantic(
        lambda: plan_collaborative(replicated_video_system(1)),
        rounds=1, iterations=1,
    )
    rows = []
    for groups in (1, 2, 3):
        system = replicated_video_system(groups)
        t0 = time.perf_counter()
        _, nodes = plan_monolithic(system)
        monolithic_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        plan_collaborative(system)
        collaborative_s = time.perf_counter() - t0
        rows.append(
            (
                groups,
                7 * groups,
                nodes,
                f"{monolithic_s * 1e3:.1f}",
                f"{collaborative_s * 1e3:.1f}",
                f"{monolithic_s / max(collaborative_s, 1e-9):.0f}x",
            )
        )
    report(
        "§7 scalability (measured)",
        format_table(
            [
                "groups", "components", "SAG nodes",
                "monolithic (ms)", "collaborative (ms)", "speedup",
            ],
            rows,
        ),
        data=[
            {
                "groups": r[0],
                "components": r[1],
                "sag_nodes": r[2],
                "monolithic_ms": float(r[3]),
                "collaborative_ms": float(r[4]),
            }
            for r in rows
        ],
        json_path=SCALABILITY_JSON,
    )
    # shape: the gap must widen with n
    speedups = [float(r[5][:-1]) for r in rows]
    assert speedups[-1] > speedups[0]
