"""Observer-overhead benchmark: what streaming observation costs.

The observation bus puts the safety checker *inside* the execution
(every record is fed to every observer at emission time, under the trace
lock).  For that to be a production observability layer rather than a
debug mode, the cost must stay a small constant factor on the busiest
realistic workload we have — the Section 5 video scenario, whose trace
is dominated by per-packet communication records.

This benchmark runs the scenario bare (no bus) and observed (streaming
safety checker + metrics observer on the bus), asserts the wall-clock
ratio stays under a pinned bound, and records the headline numbers —
ratio, per-observer mean feed latency, rolling counters — into
``benchmarks/BENCH_obs.json``.

Offline checking (``repro trace check``, ``POST /v1/trace-check``) first
decodes the persisted JSON lines, and decoding used to cost more than the
check.  A second row times :func:`repro.trace.iter_jsonl` against the
per-line ``json.loads`` decoder it replaced
(``tests/oracles/trace_reference.py``) on the Section 5 trace and on a
two-phase hardening run, and gates the product at >= 1.7x.
"""

import os
import time
from pathlib import Path

from benchmarks.conftest import report
from repro.apps.video import VideoScenario
from repro.apps.video.scenario import VIDEO_CCS
from repro.obs import MetricsObserver, ObservationBus
from repro.safety import StreamingSafetyChecker
from repro.trace import iter_jsonl
from tests.oracles import trace_reference

OBS_JSON = Path(__file__).with_name("BENCH_obs.json")

# Generous bound: the measured ratio is ~1.1x (checker ~2 us/record); the
# pin only exists to catch an accidental O(n) slip in an observer's feed
# path, so it leaves ample headroom for noisy shared CI runners.
MAX_OVERHEAD_RATIO = 2.0
ROUNDS = 3


def run_scenario(observed: bool):
    """One Section 5 run; returns (elapsed_s, bus, record_count)."""
    scenario = VideoScenario(seed=7)
    bus = None
    if observed:
        checker = StreamingSafetyChecker(
            scenario.cluster.invariants,
            ccs=VIDEO_CCS,
            universe=scenario.cluster.universe,
        )
        bus = ObservationBus(checker, MetricsObserver())
        # replay=True: the initial ConfigCommitted predates attachment.
        scenario.cluster.trace.attach_bus(bus, replay=True)
    t0 = time.perf_counter()
    scenario.run()
    elapsed = time.perf_counter() - t0
    if observed:
        assert checker.finish().ok  # the safe protocol never trips
    return elapsed, bus, len(scenario.cluster.trace)


def measure():
    bare = min(run_scenario(False)[0] for _ in range(ROUNDS))
    observed_runs = [run_scenario(True) for _ in range(ROUNDS)]
    observed = min(r[0] for r in observed_runs)
    _, bus, records = observed_runs[-1]
    return bare, observed, bus, records


def test_observer_overhead(benchmark):
    bare, observed, bus, records = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    ratio = observed / bare
    # Every record the run emitted streamed through the bus.
    assert bus.records_published == records
    observer_stats = {
        name: {"records": stats.records, "mean_us": round(stats.mean_us, 3)}
        for name, stats in bus.stats().items()
    }
    metrics = bus.finish()["MetricsObserver"]
    assert metrics.records == records
    assert metrics.comm_actions > 0 and metrics.commits > 0
    data = {
        "bare_ms": round(bare * 1e3, 2),
        "observed_ms": round(observed * 1e3, 2),
        "ratio": round(ratio, 3),
        "records": records,
        "observers": observer_stats,
        "metrics": metrics.to_json(),
    }
    lines = [
        f"bare run:     {data['bare_ms']:8.2f} ms",
        f"observed run: {data['observed_ms']:8.2f} ms "
        f"(ratio {data['ratio']:.3f}, bound {MAX_OVERHEAD_RATIO})",
        f"records:      {records} through the bus",
    ] + [
        f"  {name}: {s['records']} records, {s['mean_us']} us/record mean"
        for name, s in sorted(observer_stats.items())
    ]
    report(
        "observer overhead (Section 5 scenario)",
        "\n".join(lines),
        data=data,
        json_path=OBS_JSON,
    )
    benchmark.extra_info.update(
        {"ratio": round(ratio, 3), "records": records}
    )
    assert ratio < MAX_OVERHEAD_RATIO


#: the product decoder must decode at least this much faster per record
DECODE_GATE = 1.7
DECODE_ROUNDS = 40


def twophase_trace() -> str:
    """JSONL of a two-phase hardening swap on the video system."""
    from repro.apps.video.system import paper_target
    from repro.baselines import TwoPhaseSwap

    cluster = VideoScenario(seed=11).cluster
    cluster.start_apps()
    cluster.sim.run(until=20.0)
    TwoPhaseSwap(cluster, paper_target()).run()
    cluster.sim.run(until=80.0)
    return cluster.trace.to_jsonl()


def decode_row(text: str) -> dict:
    """Best-of-rounds µs/record of both decoders, interleaved per round."""
    lines = text.splitlines(keepends=True)  # as a file handle yields them
    assert list(iter_jsonl(lines)) == list(trace_reference.iter_jsonl(lines))
    decoders = {"reference": trace_reference.iter_jsonl, "product": iter_jsonl}
    best = dict.fromkeys(decoders, float("inf"))
    for _ in range(DECODE_ROUNDS):
        for name, decode in decoders.items():
            t0 = time.perf_counter()
            for _ in decode(lines):
                pass
            best[name] = min(best[name], time.perf_counter() - t0)
    row = {
        f"{name}_us_per_record": round(seconds / len(lines) * 1e6, 3)
        for name, seconds in best.items()
    }
    row["records"] = len(lines)
    row["speedup"] = round(best["reference"] / best["product"], 2)
    return row


def test_trace_decode_speedup(benchmark):
    scenario = VideoScenario(seed=7)
    scenario.run()
    traces = {
        "section5": scenario.cluster.trace.to_jsonl(),
        "twophase": twophase_trace(),
    }
    rows = benchmark.pedantic(
        lambda: {name: decode_row(text) for name, text in traces.items()},
        rounds=1, iterations=1,
    )
    assert rows["section5"]["records"] == 958
    data = {**rows, "nproc": os.cpu_count(), "gate": DECODE_GATE}
    report(
        "trace decode us/record, reference decoder vs product",
        "\n".join(
            f"{name:9} {row['records']:4} records: reference "
            f"{row['reference_us_per_record']:6.2f} us, product "
            f"{row['product_us_per_record']:6.2f} us ({row['speedup']:.2f}x)"
            for name, row in rows.items()
        ) + f"\n{os.cpu_count()} cpu(s); gate: >= {DECODE_GATE:g}x on each",
        data=data,
        json_path=OBS_JSON,
    )
    for row in rows.values():
        assert row["speedup"] >= DECODE_GATE
