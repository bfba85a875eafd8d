"""Experiment T1 — the compiled property IR and path-quantified checking.

Two claims behind the `repro.ltl` refactor, recorded into
``BENCH_ltl_paths.json``:

* **compiled vs AST monitor** — evaluating one ptLTL formula over a long
  step stream through :class:`repro.ltl.CompiledProperty` (a couple of
  int ops per slot, state in one int) must be ≥ 5x the per-step AST walk
  of the reference ``PTLTLMonitor`` (``tests/oracles/ptltl_reference.py``:
  dict allocation plus a type dispatch per subformula) — gated below;
* **path-check latency** — one :func:`repro.ltl.verify_paths` query as a
  function of the quantification width *k* (eager Yen on the paper's
  7-component video system) and of universe size (lazy frontier Yen on
  replicated video universes, where the eager safe space is never
  materialized; the 14- and 21-component rows are below the size cap, so
  they route the planner lazily by patching
  :attr:`AdaptationPlanner.oversized`);
* **one k-best engine** — eager ``verify-paths`` at k = 8 on the ~20-
  component shapes the repo benchmark asks about (fleet ×6, video + 4
  services, video ×3): ``plan_k``'s two-phase corridor spurs over the
  built SAG against the banned-set CSR Yen they replaced (the oracle
  ``tests/oracles/csr_yen_reference.py``), identical verdicts and paths
  first, then gated at ≥ 3x on fleet ×6 and ≥ 1.8x on video ×3;
* **verify decided early** — the perfbench ``analyze`` verify mix read
  one path at a time against the whole list first, and the spur memo's
  host-independent counts: spur searches and node expansions of the mix
  against the one-shot Yen loop of ``tests/oracles/graph_reference.py``
  finding the same paths with the same spur search.

Timing is manual (``time.perf_counter`` best-of), so the assertions hold
under ``--benchmark-disable`` in CI's bench smoke; one
``benchmark.pedantic`` round registers each test with the plugin.
"""

from __future__ import annotations

import gc
import os
import random
import time
import tracemalloc
from pathlib import Path
from unittest import mock

from benchmarks.conftest import report
from repro.bench import format_table, replicated_video_system, service_fleet_system
from repro.core.planner import AdaptationPlanner
from repro.graphs.digraph import Edge, Path as MaskPath
from repro.ltl import DEFAULT_K, CompiledProperty, parse_property, verify_paths
from repro.manifest import load_path
from tests.oracles.csr_yen_reference import k_shortest_paths_csr
from tests.oracles.graph_reference import extend_k_shortest
from tests.oracles.lazy_reference import _filtered
from tests.oracles.ptltl_reference import PTLTLMonitor

LTL_PATHS_JSON = Path(__file__).with_name("BENCH_ltl_paths.json")

STREAM_STEPS = 4_000
BEST_OF = 3

#: every operator, shared subterms, and a configuration-level atom —
#: the shape manifest properties actually take
FORMULA_TEXT = (
    "historically({one_of(C0, C1, C2)})"
    " & (C3 -> once(C4))"
    " & since(!C5, C6)"
    " & (previously(C7) | historically(C8 -> once(C9)))"
)

NAMES = tuple(f"C{i}" for i in range(10))
BITS = {name: 1 << i for i, name in enumerate(NAMES)}


def _stream():
    """A deterministic pseudo-random step stream (no RNG dependency)."""
    state = 0x2545F4914F6CDD1D
    masks = []
    for _ in range(STREAM_STEPS):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        masks.append((state >> 32) & ((1 << len(NAMES)) - 1))
    events = [
        frozenset(name for name in NAMES if mask & BITS[name]) for mask in masks
    ]
    return masks, events


def _best_of(fn, rounds=BEST_OF):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_compiled_monitor_speedup(benchmark):
    formula = parse_property(FORMULA_TEXT)
    compiled = CompiledProperty(formula, BITS)
    masks, events = _stream()

    ast_s, ast_values = _best_of(lambda: PTLTLMonitor(formula).run(events))
    compiled_s, compiled_values = _best_of(lambda: compiled.run(masks))
    benchmark.pedantic(lambda: compiled.run(masks), rounds=1, iterations=1)

    # identical verdicts at every step before any speed claim
    assert compiled_values == ast_values

    speedup = ast_s / compiled_s
    ast_rate = STREAM_STEPS / ast_s
    compiled_rate = STREAM_STEPS / compiled_s
    rows = [
        ("AST monitor (PTLTLMonitor)", f"{ast_rate:,.0f}", "1.0x"),
        ("compiled IR (CompiledProperty)", f"{compiled_rate:,.0f}",
         f"{speedup:.1f}x"),
    ]
    report(
        f"T1 — compiled vs AST property evaluation, {STREAM_STEPS} steps",
        format_table(["evaluator", "steps/sec", "speedup"], rows),
        data={
            "steps": STREAM_STEPS,
            "slots": len(compiled._program),
            "ast_steps_per_sec": round(ast_rate, 1),
            "compiled_steps_per_sec": round(compiled_rate, 1),
            "speedup": round(speedup, 2),
        },
        json_path=LTL_PATHS_JSON,
    )
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 5.0, (
        f"compiled evaluation only {speedup:.1f}x over the AST monitor"
    )


def test_path_check_latency(benchmark):
    data = {}
    rows = []

    # eager: latency vs quantification width on the paper's video system
    from repro.apps.video.system import (
        paper_source,
        paper_target,
        video_actions,
        video_invariants,
        video_universe,
    )

    universe = video_universe()
    planner = AdaptationPlanner(universe, video_invariants(), video_actions())
    source, target = paper_source(universe), paper_target(universe)
    phi = parse_property("historically({one_of(E1, E2)})")
    compiled = CompiledProperty(phi, universe.atom_bits)
    for k in (2, 8, 16):
        seconds, verdict = _best_of(
            lambda k=k: verify_paths(
                planner, source, target, phi, k=k, compiled=compiled
            )
        )
        assert verdict.holds is True and verdict.mode == "eager"
        rows.append((f"eager, video (7 comps), k={k}",
                     f"{seconds * 1e3:.2f}", str(verdict.paths_checked)))
        data[f"eager_video_k{k}_ms"] = round(seconds * 1e3, 3)

    # lazy: latency vs universe size, eager space never materialized
    last_query = None
    for groups in (2, 3, 4):
        system = replicated_video_system(groups)
        lazy_planner = AdaptationPlanner(
            system.universe, system.invariants, system.actions
        )
        lazy_phi = parse_property("historically({one_of(E1@g0, E2@g0)})")
        lazy_compiled = CompiledProperty(lazy_phi, system.universe.atom_bits)

        def query(planner=lazy_planner, phi=lazy_phi, compiled=lazy_compiled,
                  s=system.source, t=system.target):
            planner._k_best.clear()  # time the k-best search, not a resume
            with mock.patch.object(AdaptationPlanner, "oversized", True):
                return verify_paths(
                    planner, s, t, phi, k=2, compiled=compiled,
                    max_expansions=60_000,
                )

        seconds, verdict = _best_of(query)
        assert verdict.holds is True and verdict.mode == "lazy"
        assert verdict.complete
        assert lazy_planner._sag is None
        assert lazy_planner.space._cache is None
        rows.append((f"lazy, video x{groups} ({len(system.universe)} comps), k=2",
                     f"{seconds * 1e3:.2f}", str(verdict.paths_checked)))
        data[f"lazy_{len(system.universe)}comps_k2_ms"] = round(seconds * 1e3, 3)
        last_query = query

    benchmark.pedantic(last_query, rounds=1, iterations=1)
    report(
        "T1 — verify_paths latency vs k and universe size",
        format_table(["query", "latency (ms)", "paths checked"], rows),
        data=data,
        json_path=LTL_PATHS_JSON,
    )


#: eager verify shapes: (row name, system, a property every safe
#: configuration satisfies, so each verify walks all k paths)
ENGINE_SHAPES = (
    ("fleet x6", lambda: service_fleet_system(6),
     "historically({one_of(S0v1, S0v2, S0v3)})"),
    ("video + 4", lambda: service_fleet_system(4, video_groups=1),
     "historically({one_of(S0v1, S0v2, S0v3)})"),
    ("video x3", lambda: replicated_video_system(3),
     "historically({one_of(E1@g0, E2@g0)})"),
)
ENGINE_PAIRS = 24
ENGINE_K = 8
ENGINE_GATE = 3.0
#: video ×3 walks the tie plateau of commuting interleavings: 1.36x
#: before the spur memo, 2.3x with it (2-CPU host)
ENGINE_GATE_VIDEO = 1.8


class _Listed:
    """A whole plan list behind the stream surface ``verify_paths``
    reads: ``(cost, masks, action ids)`` paths, ``plan`` and
    ``exhausted``."""

    def __init__(self, planner, plans, exhausted=False):
        self._mask_of = planner.universe.mask_of
        self._plans = plans
        self._read = {}
        self.exhausted = exhausted

    def __iter__(self):
        for plan in self._plans:
            path = (plan.total_cost, tuple(map(self._mask_of, plan.configurations)),
                    plan.action_ids)
            self._read[path] = plan
            yield path

    def plan(self, path):
        return self._read[path]


def _mask_path(planner, plan):
    """*plan* as the mask-level :class:`Path` a Yen loop starts from."""
    nodes = tuple(map(planner.universe.mask_of, plan.configurations))
    return MaskPath(nodes=nodes, edges=tuple(
        Edge(nodes[i], nodes[i + 1], step.action.action_id, step.action.cost)
        for i, step in enumerate(plan.steps)
    ), cost=plan.total_cost)


class _CSRYenPlanner(AdaptationPlanner):
    """The former eager ``plan_k``: banned-set CSR Yen, uncached, as the
    path source of ``verify_paths``, started from the planner's own MAP
    (read off its per-set tables, as the engine's loop starts)."""

    def iter_paths(self, source, target, k, max_expansions=None):
        mask_of = self.universe.mask_of
        paths = k_shortest_paths_csr(
            self.sag.csr, mask_of(source), mask_of(target), k,
            _mask_path(self, self.plan(source, target)),
        )
        return _Listed(self, [
            self._plan_from_mask_path(source, target, path.nodes, path.labels, path.cost)
            for path in paths
        ])


def _reachable_pairs(system, planner, count):
    rng = random.Random(7)
    masks = planner.space.enumerate_masks()
    pairs = []
    while len(pairs) < count:
        source, target = (system.universe.from_mask(m) for m in rng.sample(masks, 2))
        if planner.plan_many([(source, target)])[0] is not None:
            pairs.append((source, target))
    return pairs


def test_eager_k_best_engine(benchmark):
    rows = []
    data = {"nproc": os.cpu_count(), "k": ENGINE_K, "pairs": ENGINE_PAIRS,
            "gate_fleet_x6": ENGINE_GATE, "gate_video_x3": ENGINE_GATE_VIDEO}
    speedups = {}
    for name, make, formula in ENGINE_SHAPES:
        system = make()
        sag_owner = AdaptationPlanner(system.universe, system.invariants, system.actions)
        pairs = _reachable_pairs(system, sag_owner, ENGINE_PAIRS)
        phi = parse_property(formula)
        compiled = CompiledProperty(phi, system.universe.atom_bits)

        def walk(planner_class, sag_owner=sag_owner, pairs=pairs, phi=phi,
                 compiled=compiled, system=system):
            # a fresh planner per round (no k-best cache hits) on the
            # shared, already built SAG: the rows time the k-best search
            planner = planner_class(system.universe, system.invariants, system.actions)
            planner._sag = sag_owner.sag
            return [
                verify_paths(planner, s, t, phi, k=ENGINE_K, compiled=compiled)
                for s, t in pairs
            ]

        oracle_s, oracle_verdicts = _best_of(lambda: walk(_CSRYenPlanner))
        engine_s, engine_verdicts = _best_of(lambda: walk(AdaptationPlanner))
        assert engine_verdicts == oracle_verdicts
        assert all(v.holds is True for v in engine_verdicts)
        speedups[name] = oracle_s / engine_s
        per_oracle = oracle_s * 1e3 / len(pairs)
        per_engine = engine_s * 1e3 / len(pairs)
        rows.append((f"{name} ({len(system.universe)} comps)",
                     f"{per_oracle:.2f}", f"{per_engine:.2f}",
                     f"{speedups[name]:.1f}x"))
        key = name.replace(" ", "").replace("+", "_plus_")
        data[f"{key}_csr_yen_ms"] = round(per_oracle, 3)
        data[f"{key}_two_phase_ms"] = round(per_engine, 3)
        data[f"{key}_speedup"] = round(speedups[name], 2)
        data[f"{key}_paths_checked"] = sum(v.paths_checked for v in engine_verdicts)
        last = walk
    benchmark.pedantic(lambda: last(AdaptationPlanner), rounds=1, iterations=1)
    report(
        f"T1 — eager verify k = {ENGINE_K}, CSR Yen oracle vs two-phase",
        format_table(["shape", "CSR Yen (ms/verify)", "two-phase (ms/verify)",
                      "speedup"], rows)
        + f"\n{os.cpu_count()} cpu(s); gates: fleet x6 >= {ENGINE_GATE:g}x, "
          f"video x3 >= {ENGINE_GATE_VIDEO:g}x",
        data=data,
        json_path=LTL_PATHS_JSON,
    )
    assert speedups["fleet x6"] >= ENGINE_GATE, (
        f"eager k-best only {speedups['fleet x6']:.1f}x over CSR Yen on fleet x6"
    )
    assert speedups["video x3"] >= ENGINE_GATE_VIDEO, (
        f"eager k-best only {speedups['video x3']:.1f}x over CSR Yen on video x3"
    )


#: streamed verify's analyze mix: pairs per eager shape, and one fleet30
#: baseline→canary verify after every three eager ones
EARLY_PAIRS = 120
EARLY_GATE = 3.0
MEMORY_GATE = 1.25
#: node expansions of the one-shot Yen loop over the memo's, on the mix
#: (host-independent; measured 1.61, gated with a margin)
EXPANSIONS_GATE = 1.4
FLEET30 = Path(__file__).resolve().parents[1] / "examples" / "fleet30.manifest"


class _ListFirstPlanner(AdaptationPlanner):
    """The order ``verify_paths`` ran in before it streamed: the whole
    k-best list first, then the check.  Below the cap the list is
    ``plan_k``'s, cached per ``(source, target, k)``; above it
    ``lazy_plan_k``'s, recomputed on every query.  Neither keeps a Yen
    state, so its memory is the list cache alone."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lists = {}

    def iter_paths(self, source, target, k, max_expansions=None):
        self._validate_endpoints(source, target)
        if self.oversized:
            plans, complete = self.lazy_plan_k(source, target, k, max_expansions)
            self._k_best.clear()
            return _Listed(self, plans, not complete)
        key = (source, target, k)
        if key not in self._lists:
            self._lists[key] = tuple(self.plan_k(source, target, k))
            self._k_best.clear()
        return _Listed(self, self._lists[key])


def _analyze_mix():
    """The verifies of perfbench ``analyze``, by kind: per eager shape, one
    verify per random pair, kinds in turn — ∀ a property every safe
    configuration satisfies (walks k paths), ∃ and ∀ ``historically(!X)``
    for an X the target gains (∃ walks k paths, path 1 refutes ∀) — and
    the four fleet30 ``baseline→canary`` verifies in turn, one after
    every three eager ones.  Returns ``(specs, verifies)``: per spec its
    ``(system, shared SAG owner or None)``, and ``(spec, source, target,
    formula, quantifier, kind)`` tuples in mix order."""
    specs, eager = {}, []
    for name, make, holds in ENGINE_SHAPES:
        system = make()
        owner = AdaptationPlanner(system.universe, system.invariants, system.actions)
        specs[name] = (system, owner)
        for index, (s, t) in enumerate(_reachable_pairs(system, owner, EARLY_PAIRS)):
            gained = sorted(t.members - s.members)
            kinds = [(holds, "all", "full walk")]
            if gained:
                kinds += [(f"historically(!{gained[0]})", "exists", "full walk"),
                          (f"historically(!{gained[0]})", "all", "path 1")]
            formula, quantifier, kind = kinds[index % len(kinds)]
            eager.append((name, s, t, parse_property(formula), quantifier, kind))
    random.Random(11).shuffle(eager)
    fleet = load_path(FLEET30)
    specs["fleet30"] = (fleet, None)
    baseline, canary = fleet.configurations["baseline"], fleet.configurations["canary"]
    lazy = [("fleet30", baseline, canary, fleet.property_named(name), quantifier,
             "repeated pair")
            for name in ("service0 specified", "avoid_v3")
            for quantifier in ("all", "exists")]
    verifies = []
    for index, verify in enumerate(eager):
        verifies.append(verify)
        if index % 3 == 2:
            verifies.append(lazy[index // 3 % len(lazy)])
    return specs, verifies


def _run_mix(planner_class, specs, verifies):
    """Every verify of the mix on fresh planners of *planner_class* (one
    per spec, the eager ones sharing their owner's built SAG): the
    verdicts, seconds per kind, and the planners."""
    planners = {}
    for name, (spec, owner) in specs.items():
        if owner is None:
            planner = planner_class(spec.universe, spec.invariants, spec.actions)
        else:
            planner = planner_class(spec.universe, spec.invariants, spec.actions)
            planner._sag = owner.sag
        planners[name] = planner
    compiled = {}
    seconds, verdicts = {}, []
    for name, s, t, phi, quantifier, kind in verifies:
        planner = planners[name]
        key = (name, phi)
        if key not in compiled:
            compiled[key] = CompiledProperty(phi, planner.universe.atom_bits)
        t0 = time.perf_counter()
        verdicts.append(verify_paths(planner, s, t, phi, quantifier,
                                     compiled=compiled[key]))
        seconds[kind] = seconds.get(kind, 0.0) + time.perf_counter() - t0
    return verdicts, seconds, planners


def _held_bytes(planner_class, specs, verifies):
    """Bytes the k-best caches hold after the mix: traced memory after the
    mix less what is left once those caches are dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        _, _, planners = _run_mix(planner_class, specs, verifies)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        for planner in planners.values():
            planner._k_best.clear()
            getattr(planner, "_lists", {}).clear()
        gc.collect()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - left


def _counting(planner_class):
    """*planner_class* counting its banned-set searches (one per spur
    searched, and one per pair's first path) and their expansions into the
    returned dict."""
    counts = {"searches": 0, "expansions": 0}

    class Counting(planner_class):
        def _banned_shortest(self, *args, **kwargs):
            path, exhausted, spent = super()._banned_shortest(*args, **kwargs)
            counts["searches"] += 1
            counts["expansions"] += spent
            return path, exhausted, spent

    return Counting, counts


def _one_shot_counts(specs, planners):
    """Searches and expansions of the one-shot Yen loop (no spur memo)
    finding, per pair, the paths the mix's Yen states found, with the
    same two-phase spur search over the ``_filtered`` view; the paths are
    asserted equal.  Both loops start from the pair's MAP, which the
    planner reads off its per-set tables with no search."""
    counts = {"searches": 0, "expansions": 0}
    for name, planner in planners.items():
        spec, owner = specs[name]
        oracle = AdaptationPlanner(spec.universe, spec.invariants, spec.actions)
        if owner is None:
            successors = oracle.lazy_sag.successors
        else:
            oracle._sag = owner.sag
            successors = oracle.sag.successors
        for yen, _ in planner._k_best.values():
            heuristic = oracle._lazy_heuristic(yen.source, yen.target)

            def search(spur, banned_nodes=frozenset(), banned_arcs=frozenset(),
                       target=yen.target, heuristic=heuristic):
                path, exhausted, spent = oracle._banned_shortest(
                    _filtered(successors, banned_nodes, banned_arcs),
                    spur, target, heuristic, None,
                )
                counts["searches"] += 1
                counts["expansions"] += spent
                return path, exhausted

            if not yen.found:
                assert yen.done
                continue
            first = _mask_path(oracle, oracle.plan(
                *map(spec.universe.from_mask, (yen.source, yen.target))
            ))
            # a state that ran out of paths ran one more round than it found
            wanted = len(yen.found) + yen.done
            found, complete = extend_k_shortest(first, yen.target, wanted, search)
            assert complete
            assert [path.labels for path in found] == [path[2] for path in yen.found]
    return counts


def test_verify_decided_early(benchmark):
    specs, verifies = _analyze_mix()
    for _, owner in specs.values():
        if owner is not None:
            owner.sag  # built once, outside every timing
    best = {}
    verdicts = {}
    for label, planner_class in (("list first", _ListFirstPlanner),
                                 ("streamed", AdaptationPlanner)):
        for _ in range(BEST_OF):
            got, seconds, _ = _run_mix(planner_class, specs, verifies)
            assert verdicts.setdefault(label, got) == got
            for kind, value in seconds.items():
                best[label, kind] = min(best.get((label, kind), value), value)
    assert verdicts["streamed"] == verdicts["list first"]
    benchmark.pedantic(lambda: _run_mix(AdaptationPlanner, specs, verifies),
                       rounds=1, iterations=1)
    held = {label: _held_bytes(planner_class, specs, verifies)
            for label, planner_class in (("list first", _ListFirstPlanner),
                                         ("streamed", AdaptationPlanner))}
    counting_class, memo_counts = _counting(AdaptationPlanner)
    _, _, counted = _run_mix(counting_class, specs, verifies)
    loop_counts = _one_shot_counts(specs, counted)
    counts = {}
    for verify in verifies:
        counts[verify[-1]] = counts.get(verify[-1], 0) + 1
    rows, data = [], {"nproc": os.cpu_count(), "k": DEFAULT_K,
                      "verifies": len(verifies), "gate_path_1": EARLY_GATE,
                      "gate_held_memory": MEMORY_GATE,
                      "gate_expansions": EXPANSIONS_GATE}
    for kind in ("path 1", "full walk", "repeated pair"):
        old = best["list first", kind] * 1e3 / counts[kind]
        new = best["streamed", kind] * 1e3 / counts[kind]
        rows.append((f"{kind} ({counts[kind]} verifies)", f"{old:.3f}",
                     f"{new:.3f}", f"{old / new:.1f}x"))
        key = kind.replace(" ", "_")
        data[f"{key}_list_first_ms"] = round(old, 4)
        data[f"{key}_streamed_ms"] = round(new, 4)
        data[f"{key}_speedup"] = round(old / new, 2)
    old_total = sum(v for (label, _), v in best.items() if label == "list first")
    new_total = sum(v for (label, _), v in best.items() if label == "streamed")
    data["mix_list_first_ms"] = round(old_total * 1e3 / len(verifies), 4)
    data["mix_streamed_ms"] = round(new_total * 1e3 / len(verifies), 4)
    data["held_list_first_mb"] = round(held["list first"] / 1e6, 3)
    data["held_streamed_mb"] = round(held["streamed"] / 1e6, 3)
    rows.append(("whole mix", f"{data['mix_list_first_ms']:.3f}",
                 f"{data['mix_streamed_ms']:.3f}",
                 f"{old_total / new_total:.1f}x"))
    rows.append(("k-best caches held (MB)", f"{data['held_list_first_mb']:.2f}",
                 f"{data['held_streamed_mb']:.2f}", ""))
    count_rows = []
    for what in ("searches", "expansions"):
        data[f"{what}_one_shot"] = loop_counts[what]
        data[f"{what}_memo"] = memo_counts[what]
        data[f"{what}_ratio"] = round(loop_counts[what] / memo_counts[what], 3)
        count_rows.append((f"spur {what}", f"{loop_counts[what]:,}",
                           f"{memo_counts[what]:,}", f"{data[f'{what}_ratio']:.2f}x"))
    report(
        "T1 — verify decided early / repeated pair",
        format_table(["verify kind", "list first (ms/verify)",
                      "streamed (ms/verify)", "speedup"], rows)
        + "\n" + format_table(["whole mix", "one-shot Yen loop", "spur memo",
                               "ratio"], count_rows)
        + f"\n{os.cpu_count()} cpu(s); gates: path 1 >= {EARLY_GATE:g}x, "
          f"held <= {MEMORY_GATE:g}x the list cache, "
          f"expansions >= {EXPANSIONS_GATE:g}x fewer than the one-shot loop",
        data=data,
        json_path=LTL_PATHS_JSON,
    )
    assert data["path_1_speedup"] >= EARLY_GATE, (
        f"a path-1 refutation only {data['path_1_speedup']:.1f}x the list-first verify"
    )
    assert held["streamed"] <= MEMORY_GATE * held["list first"], (
        f"streamed verify holds {data['held_streamed_mb']:.2f} MB against "
        f"{data['held_list_first_mb']:.2f} MB for the list cache"
    )
    assert data["expansions_ratio"] >= EXPANSIONS_GATE, (
        f"the spur memo saves only {data['expansions_ratio']:.2f}x the expansions "
        f"of the one-shot Yen loop"
    )
