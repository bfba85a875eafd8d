"""Analyzer benchmark: full-pipeline lint latency on real manifests.

A development-time linter earns its keep only if it is fast enough to
run on every save and in every CI job.  This benchmark times the full
SA1xx–SA6xx pipeline (tolerant scan → well-formedness → compiled-mask
satisfiability → safe-space/SAG analysis → interference pair sweep →
contract checks) on:

* the paper's §5 video manifest (7 components, 17 actions);
* the seeded-defect fixture (every enumerable diagnostic code fires);
* a synthetic wide spec at the SA3xx enumeration cap boundary.

It also isolates the SA6xx interference stage's share of the wide run,
times that stage against its pair-major reference on three replicated
video groups (51 actions x 512 safe sources), and measures the control
plane's warm lint cache against a cold dispatch — the one gated number
(warm ≥ 10x cold): the warm path is a dict probe returning precomputed
bytes, so a miss of that factor means the fast lane is broken, not that
the runner is slow.  Headline numbers
land in ``benchmarks/BENCH_lint.json``.
"""

import time
from pathlib import Path

from benchmarks.conftest import report
from repro.lint import CODES, lint_text
from repro.manifest import video_manifest_text

LINT_JSON = Path(__file__).with_name("BENCH_lint.json")
FIXTURE = Path(__file__).resolve().parent.parent / (
    "tests/lint/fixtures/defective.manifest"
)


def wide_manifest(components: int = 18) -> str:
    """A chain-invariant spec near the SA3xx enumeration cap."""
    lines = ["[components]"]
    names = [f"C{i}" for i in range(components)]
    for index, name in enumerate(names):
        lines.append(f"{name} @ p{index % 3}")
    lines.append("[invariants]")
    lines.append(f"root : {names[0]}")
    for left, right in zip(names, names[1:]):
        lines.append(f"chain_{right} : {right} -> {left}")
    lines.append("[actions]")
    for index, name in enumerate(names[1:], start=1):
        lines.append(f"grow{index} : +{name} @ 1")
        lines.append(f"shrink{index} : -{name} @ 1")
    lines.append("[configurations]")
    lines.append(f"seed = {names[0]}")
    lines.append(f"full = {', '.join(names)}")
    return "\n".join(lines) + "\n"


def test_lint_video_manifest(benchmark):
    text = video_manifest_text()
    result = benchmark.pedantic(
        lambda: lint_text(text, path="video.manifest"), rounds=20, iterations=1
    )
    assert not result.errors
    stats = benchmark.stats.stats
    report(
        "lint latency: video manifest",
        f"mean {stats.mean * 1e3:.2f} ms over {len(result)} diagnostics",
        data={
            "mean_ms": round(stats.mean * 1e3, 3),
            "diagnostics": len(result),
        },
        json_path=LINT_JSON,
    )


def test_lint_defective_fixture(benchmark):
    text = FIXTURE.read_text(encoding="utf-8")
    result = benchmark.pedantic(
        lambda: lint_text(text, path="defective.manifest"),
        rounds=20,
        iterations=1,
    )
    # SA307/SA504/SA605 need the cap or an exhausted budget; SA601/SA603
    # need racing pairs that share a safe source, which the fixture's
    # invariant web forbids — examples/racing.manifest covers those.
    assert set(result.codes()) == set(CODES) - {
        "SA307", "SA504", "SA601", "SA603", "SA605"
    }
    stats = benchmark.stats.stats
    report(
        "lint latency: defective fixture (every enumerable code)",
        f"mean {stats.mean * 1e3:.2f} ms over {len(result)} diagnostics",
        data={
            "mean_ms": round(stats.mean * 1e3, 3),
            "diagnostics": len(result),
        },
        json_path=LINT_JSON,
    )


def test_lint_wide_manifest(benchmark):
    text = wide_manifest()
    result = benchmark.pedantic(
        lambda: lint_text(text, path="wide.manifest"), rounds=5, iterations=1
    )
    assert not result.errors
    stats = benchmark.stats.stats
    report(
        "lint latency: 18-component chain (2^18 safe-space sweep)",
        f"mean {stats.mean * 1e3:.2f} ms over {len(result)} diagnostics",
        data={
            "mean_ms": round(stats.mean * 1e3, 3),
            "diagnostics": len(result),
        },
        json_path=LINT_JSON,
    )


def _mean_seconds(fn, rounds: int = 5) -> float:
    fn()  # warm caches and imports outside the timed window
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def test_interference_stage_share():
    """SA6xx pair-sweep time, isolated by differencing the pipeline.

    The wide chain has 34 actions (561 unordered pairs) over 19 safe
    configurations — a dense pair×source workload.  Stage time is the
    full pipeline minus the same pipeline with the interference stage
    stubbed out; recorded for trajectory, not gated.
    """
    import repro.lint.checks as checks_mod

    text = wide_manifest()
    full_s = _mean_seconds(lambda: lint_text(text, path="wide.manifest"))
    original = checks_mod.check_interference
    checks_mod.check_interference = lambda *args, **kwargs: None
    try:
        rest_s = _mean_seconds(lambda: lint_text(text, path="wide.manifest"))
    finally:
        checks_mod.check_interference = original
    stage_ms = max(0.0, (full_s - rest_s) * 1e3)
    share = stage_ms / (full_s * 1e3) if full_s else 0.0
    report(
        "lint SA6xx interference stage: 34 actions x 19 safe sources",
        f"stage {stage_ms:.2f} ms of {full_s * 1e3:.2f} ms total "
        f"({share:.0%})",
        data={
            "stage_ms": round(stage_ms, 3),
            "pipeline_ms": round(full_s * 1e3, 3),
            "share": round(share, 3),
        },
        json_path=LINT_JSON,
    )


def test_interference_stage_racing_video():
    """SA601/SA603 sweep on three replicated paper video groups.

    21 components, 51 actions, 512 safe sources: the shape of the
    heaviest ``/v1/lint`` bodies, where the interference stage dominated
    the pipeline.  The stage runs on the captured model twice: the
    source-major product sweep, and the pair-major reference it replaced
    (``tests/oracles/interference_reference.py``, the previous product
    code verbatim), so one run records both sides.  Recorded, not gated.
    """
    import os

    import repro.lint.checks as checks_mod
    from repro.bench.workloads import replicated_video_system
    from repro.lint import LintReport
    from repro.manifest import SystemManifest, dumps
    from tests.oracles.interference_reference import (
        reference_check_interference,
    )

    system = replicated_video_system(3)
    text = dumps(
        SystemManifest(system.universe, system.invariants, system.actions)
    )
    captured = {}
    original = checks_mod.check_interference

    def capture(*args, **kwargs):
        captured["call"] = (args, kwargs)
        return original(*args, **kwargs)

    checks_mod.check_interference = capture
    try:
        pipeline_s = _mean_seconds(lambda: lint_text(text, path="video3.manifest"))
    finally:
        checks_mod.check_interference = original
    (model, _, path, action_info), kwargs = captured["call"]

    def stage(sweep):
        report = LintReport()
        sweep(model, report, path, action_info, **kwargs)
        return report

    findings = stage(original)
    assert findings.diagnostics == stage(reference_check_interference).diagnostics
    stage_s = _mean_seconds(lambda: stage(original))
    reference_s = _mean_seconds(lambda: stage(reference_check_interference))
    races = sum(1 for d in findings if d.code in ("SA601", "SA603"))
    report(
        "lint SA6xx interference stage: 51 actions x 512 safe sources",
        f"stage {stage_s * 1e3:.2f} ms (pair-major reference "
        f"{reference_s * 1e3:.2f} ms, {reference_s / stage_s:.1f}x) of a "
        f"{pipeline_s * 1e3:.2f} ms pipeline; {races} SA601/SA603 findings",
        data={
            "actions": len(model.actions),
            "safe_sources": len(action_info[0]),
            "race_findings": races,
            "stage_ms": round(stage_s * 1e3, 3),
            "reference_stage_ms": round(reference_s * 1e3, 3),
            "speedup": round(reference_s / stage_s, 1),
            "pipeline_ms": round(pipeline_s * 1e3, 3),
            "nproc": os.cpu_count(),
        },
        json_path=LINT_JSON,
    )


def test_warm_lint_cache_speedup():
    """Warm ``/v1/lint`` wire bytes vs a cold dispatch — gated ≥ 10x.

    The warm path is a canonical-key dict probe over precomputed bytes;
    the cold path re-runs the analyzer and re-renders.  The 10x floor is
    intentionally far below the real gap (typically 100x+) so the gate
    only trips when the fast lane stops being hit at all.
    """
    from repro.serve import ControlPlane, to_wire
    from repro.serve.api import lint_request_from_json

    control = ControlPlane()
    payload = {"manifest": video_manifest_text()}

    cold_s = _mean_seconds(
        lambda: control.dispatch(lint_request_from_json(payload)), rounds=10
    )
    response = control.dispatch(lint_request_from_json(payload))
    wire = to_wire(response)
    control.lint_wire_store(payload, response, wire)

    assert control.lint_wire_fast(payload) == wire
    warm_s = _mean_seconds(
        lambda: control.lint_wire_fast(payload), rounds=200
    )
    speedup = cold_s / warm_s if warm_s else float("inf")
    report(
        "warm lint cache: /v1/lint wire bytes vs cold dispatch",
        f"cold {cold_s * 1e3:.2f} ms, warm {warm_s * 1e6:.1f} us = "
        f"{speedup:,.0f}x",
        data={
            "cold_ms": round(cold_s * 1e3, 3),
            "warm_us": round(warm_s * 1e6, 2),
            "speedup": round(speedup, 1),
        },
        json_path=LINT_JSON,
    )
    assert speedup >= 10.0, (
        f"warm lint cache only {speedup:.1f}x over cold dispatch"
    )
