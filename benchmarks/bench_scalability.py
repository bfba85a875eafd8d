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
* **factored cold build** — cold ``enumerate_masks()`` +
  ``SafeAdaptationGraph.build`` composed from per-set factors against
  the whole-universe backtracking plus the vertex × action loop it
  replaced (``tests/oracles/space_reference.py``,
  ``tests/oracles/sag_reference.py``), on video ×3, video + 5 services,
  fleet ×7 and a shape whose sets interleave (xor-stress n=16).
  Identical arrays are asserted before timing; the gate
  (``test_factored_cold_build``) requires >=2x on video ×3.
* **cold lone point query** — the first plans of a fresh planner on the
  ``plan-churn`` families (video ×3, fleet ×7, video + 5 services), six
  distinct-source pairs each: :meth:`AdaptationPlanner.plan`, which
  walks the factored corridor, against building the SAG and one
  shortest-path tree per source.  Identical plans are asserted first;
  the gate (``test_cold_lone_point_query``) requires the first fleet ×7
  query to be >=3x faster.
* **lazy cost vs distance** — cold ``lazy_plan`` on the 30-component
  ``examples/fleet30.manifest`` from ``baseline`` to targets moving
  1/2/4/6/10 services to v3, recorded with the host's CPU count.  The
  gate (``test_fleet30_lazy_plan_curve``) holds the 10-service pair at
  <= 500 ms: its optimal corridor is the 2^10-node tie plateau of
  interleavings, so a search that wanders the cost ellipse instead
  (seconds) fails it.
* **k-best memo lifetime** — random-pair ``fleet30`` ``verify_paths``
  (k = 8) with Yen's arc memo kept for the planner's life against one
  memo per k-best query; identical verdicts are asserted first, and the
  gate (``test_fleet30_verify_memo_per_query``) holds the per-query p50
  to <= 1.10x the kept one and what the planner holds afterwards to
  <= 2 MB.
"""

import os
import random
import time
from pathlib import Path

import pytest

from benchmarks.conftest import report
from repro.bench import format_table, replicated_video_system, service_fleet_system
from repro.bench.workloads import enumeration_stress_system
from repro.core.model import Configuration
from repro.core.planner import AdaptationPlanner
from repro.core.sag import SafeAdaptationGraph
from repro.core.space import SafeConfigurationSpace
from repro.manifest import load_path
from tests.oracles.sag_reference import vertex_action_build
from tests.oracles.space_reference import backtracking_masks

SCALABILITY_JSON = Path(__file__).with_name("BENCH_scalability.json")
FLEET30 = Path(__file__).resolve().parents[1] / "examples" / "fleet30.manifest"


def plan_monolithic(system):
    """The §7 monolithic baseline: one SAG over the whole universe, built by
    backtracking over every component and testing every action at every
    safe vertex (the oracles the factored build replaced), then Dijkstra."""
    space = SafeConfigurationSpace(system.universe, system.invariants)
    sag = vertex_action_build(space, system.actions, backtracking_masks(space))
    tree = sag.csr.shortest_path_tree(system.universe.mask_of(system.source))
    return tree.path_to(system.universe.mask_of(system.target)), sag.node_count


def plan_lazy(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    return planner.lazy_plan(system.source, system.target)


def plan_collaborative(system):
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    return planner.plan_collaborative(system.source, system.target)


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_monolithic_sag(benchmark, groups):
    system = replicated_video_system(groups)
    path, nodes = benchmark(lambda: plan_monolithic(system))
    assert nodes == 8 ** groups  # the exponential blow-up, literally
    assert path.cost == 50.0 * groups
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


# --- factored cold build ----------------------------------------------------

#: (row name, JSON key prefix, system)
FACTORED_SHAPES = (
    ("video x3", "video_x3", lambda: replicated_video_system(3)),
    ("video + 5", "video_plus_5", lambda: service_fleet_system(5, video_groups=1)),
    ("fleet x7", "fleet_x7", lambda: service_fleet_system(7)),
    ("xor-stress n=16", "xor_stress_16", lambda: enumeration_stress_system(16)),
)
FACTORED_ROUNDS = 7
FACTORED_GATE = 2.0


def _csr_arrays(sag):
    csr = sag.csr
    return (csr.nodes, csr.offsets, csr.targets, csr.weights, csr.label_ids, csr.labels)


def test_factored_cold_build():
    """Cold safe space + SAG: per-set factors vs the whole-universe build.

    Both sides start from a fresh space (no enumeration, no safety memo)
    and end with the CSR arrays; rounds alternate between them and each
    side keeps its best.  The xor-stress shape has one large
    invariant-connected set whose actions interleave with two singleton
    sets in library order, so its build is one factor: what it gains
    comes from enumerating that set without the two free components.
    """

    def whole_universe(system):
        space = SafeConfigurationSpace(system.universe, system.invariants)
        return vertex_action_build(space, system.actions, backtracking_masks(space))

    def factored(system):
        space = SafeConfigurationSpace(system.universe, system.invariants)
        return SafeAdaptationGraph.build(space, system.actions)

    rows = []
    data = {"nproc": os.cpu_count(), "rounds": FACTORED_ROUNDS,
            "gate_video_x3": FACTORED_GATE}
    speedups = {}
    for name, key, make in FACTORED_SHAPES:
        system = make()
        sag = factored(system)
        assert _csr_arrays(sag) == _csr_arrays(whole_universe(system))
        best = {whole_universe: float("inf"), factored: float("inf")}
        for _ in range(FACTORED_ROUNDS):
            for build in best:
                t0 = time.perf_counter()
                build(system)
                best[build] = min(best[build], time.perf_counter() - t0)
        speedups[name] = best[whole_universe] / best[factored]
        data[f"{key}_vertices"] = sag.node_count
        data[f"{key}_arcs"] = sag.edge_count
        data[f"{key}_whole_universe_ms"] = round(best[whole_universe] * 1e3, 3)
        data[f"{key}_factored_ms"] = round(best[factored] * 1e3, 3)
        data[f"{key}_speedup"] = round(speedups[name], 2)
        rows.append((
            f"{name} ({len(system.universe)} comps)", sag.node_count, sag.edge_count,
            f"{best[whole_universe] * 1e3:.2f}", f"{best[factored] * 1e3:.2f}",
            f"{speedups[name]:.1f}x",
        ))
    report(
        "P3 factored cold build (enumerate_masks + SafeAdaptationGraph.build)",
        format_table(
            ["shape", "vertices", "arcs", "whole universe (ms)", "factored (ms)",
             "speedup"],
            rows,
        )
        + f"\n{os.cpu_count()} cpu(s); gate: video x3 >= {FACTORED_GATE:g}x",
        data=data,
        json_path=SCALABILITY_JSON,
    )
    assert speedups["video x3"] >= FACTORED_GATE, (
        f"factored cold build on video x3 ran {speedups['video x3']:.2f}x the "
        f"whole-universe build (gate {FACTORED_GATE:g}x)"
    )


# --- eager vs lazy ----------------------------------------------------------


def _fresh_planner(system):
    return AdaptationPlanner(system.universe, system.invariants, system.actions)


def _eager_plan(system, source, target):
    """Eager build+plan: a fresh planner builds the SAG and answers off a
    shortest-path tree (``plan`` alone would take the factored corridor)."""
    planner = _fresh_planner(system)
    planner.sag
    return planner.plan_many([(source, target)])[0]


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
        lambda: _eager_plan(system, system.source, system.target)
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
        lambda: _eager_plan(system, system.source, system.target)
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


# --- cold lone point query ---------------------------------------------------

#: (row name, JSON key prefix, system): the plan-churn families
POINT_SHAPES = FACTORED_SHAPES[:3]
POINT_PAIRS = 6
POINT_ROUNDS = 7
POINT_GATE = 3.0


def _distinct_source_pairs(system, count, seed=0):
    """*count* reachable pairs over a fixed draw, no two sharing a source."""
    planner = _fresh_planner(system)
    configs = planner.space.enumerate()
    rng = random.Random(seed)
    pairs, sources = [], set()
    while len(pairs) < count:
        source, target = rng.choice(configs), rng.choice(configs)
        if source in sources or source == target:
            continue
        if planner.plan_many([(source, target)])[0] is not None:
            pairs.append((source, target))
            sources.add(source)
    return pairs


def test_cold_lone_point_query():
    """Cold lone point queries: factored corridor vs build+SPT.

    Each round starts two fresh planners on the same six distinct-source
    pairs: one answers them with ``plan`` (the per-set distance
    heuristic and the factored successor view, no SAG, no tree), the
    other builds the SAG and one shortest-path tree per source.  Rounds
    alternate the sides and each keeps its best first-query and
    all-six times.
    """

    def corridor(system, pairs):
        times, plans = [], []
        t0 = time.perf_counter()
        planner = _fresh_planner(system)
        for source, target in pairs:
            plans.append(planner.plan(source, target))
            times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
        return times, plans

    def build_spt(system, pairs):
        times, plans = [], []
        t0 = time.perf_counter()
        planner = _fresh_planner(system)
        planner.sag
        for source, target in pairs:
            plans.append(planner.plan_many([(source, target)])[0])
            times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
        return times, plans

    rows = []
    data = {"nproc": os.cpu_count(), "pairs": POINT_PAIRS, "rounds": POINT_ROUNDS,
            "gate_fleet_x7_first": POINT_GATE}
    first_speedups = {}
    for name, key, make in POINT_SHAPES:
        system = make()
        pairs = _distinct_source_pairs(system, POINT_PAIRS)
        assert corridor(system, pairs)[1] == build_spt(system, pairs)[1]
        first = {corridor: float("inf"), build_spt: float("inf")}
        total = dict(first)
        for _ in range(POINT_ROUNDS):
            for side in first:
                times, _ = side(system, pairs)
                first[side] = min(first[side], times[0])
                total[side] = min(total[side], sum(times))
        first_speedups[name] = first[build_spt] / first[corridor]
        for label, best in (("first", first), ("total", total)):
            data[f"{key}_{label}_corridor_ms"] = round(best[corridor] * 1e3, 3)
            data[f"{key}_{label}_build_spt_ms"] = round(best[build_spt] * 1e3, 3)
        data[f"{key}_first_speedup"] = round(first_speedups[name], 2)
        rows.append((
            f"{name} ({len(system.universe)} comps)",
            f"{first[corridor] * 1e3:.2f}", f"{first[build_spt] * 1e3:.2f}",
            f"{first_speedups[name]:.1f}x",
            f"{total[corridor] * 1e3:.2f}", f"{total[build_spt] * 1e3:.2f}",
        ))
    report(
        "P3 cold lone point query: factored corridor vs build+SPT",
        format_table(
            ["shape", "first: corridor (ms)", "first: build+SPT (ms)", "speedup",
             f"{POINT_PAIRS} pairs: corridor (ms)", f"{POINT_PAIRS} pairs: build+SPT (ms)"],
            rows,
        )
        + f"\n{os.cpu_count()} cpu(s); gate: fleet x7 first query >= {POINT_GATE:g}x",
        data=data,
        json_path=SCALABILITY_JSON,
    )
    assert first_speedups["fleet x7"] >= POINT_GATE, (
        f"a cold fleet x7 point query through the factored corridor ran only "
        f"{first_speedups['fleet x7']:.2f}x faster than build+SPT (gate {POINT_GATE:g}x)"
    )


# --- lazy cost vs distance ---------------------------------------------------

#: services moved to v3 -> (cost, action ids) of the fleet30 MAP; the
#: plans the uniform-cost replay produced, pinned so a faster search
#: cannot drift to a different optimum among the ties
FLEET30_CURVE = {
    1: (10.0, ("U02",)),
    2: (25.0, ("U02", "U12")),
    4: (55.0, ("U02", "U32", "U12", "U22")),
    6: (90.0, ("U02", "U32", "U12", "U42", "U22", "U52")),
    10: (145.0, ("U02", "U32", "U62", "U92", "U12", "U42", "U72", "U22",
                 "U52", "U82")),
}
FLEET30_FAR_GATE_MS = 500.0


def test_fleet30_lazy_plan_curve():
    """Cold ``lazy_plan`` latency against the number of changed services.

    Each point is the best of three fresh planners (safety memo,
    adjacency cache and per-set distance tables all cold).  The plans
    must be the pinned ones; the 10-service point is gated.
    """
    manifest = load_path(FLEET30)
    baseline = manifest.configurations["baseline"]
    rows = []
    data = {"nproc": os.cpu_count(), "gate_10_services_ms": FLEET30_FAR_GATE_MS}
    for moved, (cost, action_ids) in FLEET30_CURVE.items():
        target = Configuration(
            f"S{service}v{3 if service < moved else 1}" for service in range(10)
        )
        planners = []

        def cold(planners=planners, target=target):
            planners.append(manifest.planner())
            return planners[-1].lazy_plan(baseline, target)

        plan, seconds = _best_of(cold)
        assert (plan.total_cost, plan.action_ids) == (cost, action_ids)
        assert all(p.space._cache is None for p in planners)
        expanded = planners[-1].lazy_sag.expanded_nodes
        rows.append((moved, f"{seconds * 1e3:.2f}", expanded))
        data[f"services_{moved}_ms"] = round(seconds * 1e3, 3)
        data[f"services_{moved}_expanded"] = expanded
    report(
        "P3 fleet30 lazy_plan vs changed services (30 components)",
        format_table(["services moved", "cold lazy_plan (ms)", "masks expanded"], rows)
        + f"\n{os.cpu_count()} cpu(s); gate: 10 services <= {FLEET30_FAR_GATE_MS:g} ms",
        data=data,
        json_path=SCALABILITY_JSON,
    )
    far_ms = data["services_10_ms"]
    assert far_ms <= FLEET30_FAR_GATE_MS, (
        f"fleet30 10-service lazy_plan took {far_ms:.1f} ms "
        f"(gate {FLEET30_FAR_GATE_MS:g} ms)"
    )


# --- k-best memo lifetime ----------------------------------------------------

MEMO_PAIRS = 150
MEMO_K = 8
MEMO_SEED = 25
#: the per-query memo's p50 may be at most this multiple of the kept one's
MEMO_P50_BOUND = 1.10
#: memory a planner may hold after the pairs, beyond its plan caches
MEMO_HELD_BYTES = 2_000_000


def _fleet30_pairs(planner, count, rng):
    """*count* pairs of uniformly random safe fleet30 configurations."""
    groups, _ = planner.space.factorization.action_sets(planner.actions)
    projections = [planner.space.projections(group) for group in groups]

    def draw():
        return planner.universe.from_mask(sum(map(rng.choice, projections)))

    return [(draw(), draw()) for _ in range(count)]


class _KeptMemo:
    """The former k-best arc source, for comparison: the compiled
    per-mask arcs behind one memo that lives as long as the planner."""

    def __init__(self, planner):
        from repro.core.sag import LazySAG

        planner._lazy_sag = LazySAG(planner.space, planner.actions)
        self.memo = {}

    def __call__(self, successors):  # stands in for repro.core.planner._memoized
        memo = self.memo

        def cached(mask):
            arcs = memo.get(mask)
            if arcs is None:
                arcs = memo[mask] = tuple(successors(mask))
            return arcs

        return cached


def test_fleet30_verify_memo_per_query():
    """Random-pair ``fleet30`` ``verify_paths`` (k = 8): Yen's arc memo
    kept for the planner's life (compiled arcs, as the k-best searches
    above the cap once read them) against one memo per k-best query over
    the factored arcs.  Verdicts must be identical pair by pair; the pairs
    alternate between the two planners.  The per-query p50 is gated at
    <= 1.10x the kept memo's, and what a planner holds afterwards beyond
    its plan caches at <= 2 MB (tracemalloc, a second pass per arm)."""
    import gc
    import statistics
    import tracemalloc
    from unittest import mock

    from repro.core import planner as planner_mod
    from repro.ltl import verify_paths

    manifest = load_path(FLEET30)
    phi = manifest.properties["service0 specified"]
    pairs = _fleet30_pairs(manifest.planner(), MEMO_PAIRS, random.Random(MEMO_SEED))

    def arm(kept):
        planner = manifest.planner()
        return planner, _KeptMemo(planner) if kept else planner_mod._memoized

    arms = {"kept": arm(True), "per query": arm(False)}
    times = {name: [] for name in arms}
    for source, target in pairs:
        verdicts = []
        for name, (planner, memoized) in arms.items():
            with mock.patch.object(planner_mod, "_memoized", memoized):
                start = time.perf_counter()
                verdicts.append(verify_paths(planner, source, target, phi, k=MEMO_K))
                times[name].append(time.perf_counter() - start)
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].complete and verdicts[0].holds
    masks_kept = len(arms["kept"][1].memo)

    held = {}
    for name in arms:
        planner, memoized = arm(name == "kept")
        gc.collect()
        tracemalloc.start()
        try:
            with mock.patch.object(planner_mod, "_memoized", memoized):
                for source, target in pairs:
                    verify_paths(planner, source, target, phi, k=MEMO_K)
            planner._plan_cache.clear()
            planner._plan_k_cache.clear()
            gc.collect()
            held[name], _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    rows = []
    data = {"nproc": os.cpu_count(), "pairs": MEMO_PAIRS, "k": MEMO_K,
            "seed": MEMO_SEED, "masks_kept": masks_kept}
    for name, samples in times.items():
        ms = sorted(sample * 1e3 for sample in samples)
        p50 = statistics.median(ms)
        p90 = statistics.quantiles(ms, n=10)[-1]
        key = name.replace(" ", "_")
        data[f"{key}_p50_ms"] = round(p50, 3)
        data[f"{key}_p90_ms"] = round(p90, 3)
        data[f"{key}_held_mb"] = round(held[name] / 1e6, 3)
        rows.append((name, f"{p50:.2f}", f"{p90:.2f}", f"{held[name] / 1e6:.2f}"))
    ratio = data["per_query_p50_ms"] / data["kept_p50_ms"]
    data["p50_ratio"] = round(ratio, 3)
    report(
        "P3 fleet30 verify_paths k-best memo: kept vs per query",
        format_table(["Yen arc memo", "p50 (ms)", "p90 (ms)", "held after (MB)"], rows)
        + f"\n{MEMO_PAIRS} pairs, k = {MEMO_K}, {masks_kept} masks kept; "
        f"{os.cpu_count()} cpu(s); gates: p50 <= {MEMO_P50_BOUND:g}x kept, "
        f"held <= {MEMO_HELD_BYTES / 1e6:g} MB",
        data=data,
        json_path=SCALABILITY_JSON,
    )
    assert ratio <= MEMO_P50_BOUND, (
        f"per-query memo p50 is {ratio:.2f}x the kept memo's (gate {MEMO_P50_BOUND:g}x)"
    )
    assert held["per query"] <= MEMO_HELD_BYTES, (
        f"{held['per query'] / 1e6:.2f} MB held after {MEMO_PAIRS} verify_paths pairs"
    )
