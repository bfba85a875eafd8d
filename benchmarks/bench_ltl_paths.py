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
  first, then gated at ≥ 3x on fleet ×6.

Timing is manual (``time.perf_counter`` best-of), so the assertions hold
under ``--benchmark-disable`` in CI's bench smoke; one
``benchmark.pedantic`` round registers each test with the plugin.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path
from unittest import mock

from benchmarks.conftest import report
from repro.bench import format_table, replicated_video_system, service_fleet_system
from repro.core.planner import AdaptationPlanner
from repro.ltl import CompiledProperty, parse_property, verify_paths
from tests.oracles.csr_yen_reference import reference_plan_k
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


class _CSRYenPlanner(AdaptationPlanner):
    """The former eager ``plan_k``: banned-set CSR Yen, uncached."""

    def plan_k(self, source, target, k):
        return reference_plan_k(self, source, target, k)


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
            "gate_fleet_x6": ENGINE_GATE}
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
        + f"\n{os.cpu_count()} cpu(s); gate: fleet x6 >= {ENGINE_GATE:g}x",
        data=data,
        json_path=LTL_PATHS_JSON,
    )
    assert speedups["fleet x6"] >= ENGINE_GATE, (
        f"eager k-best only {speedups['fleet x6']:.1f}x over CSR Yen on fleet x6"
    )
