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
times that stage against its global and pair-major references on three
replicated video groups (51 actions x 512 safe sources), times the whole
pipeline per collaborative set against the global engine it replaced
(gated: ≥ 3x on video x3), and measures the control plane's warm lint
cache against a cold dispatch (gated: warm ≥ 10x cold — the warm path is
a dict probe returning precomputed bytes, so a miss of that factor means
the fast lane is broken, not that the runner is slow), and times the
encoding of one lint answer by the one-pass report writer against the
dict path it replaced (gated: ≥ 1.8x on video x3 with the racing
block).  Headline numbers land in ``benchmarks/BENCH_lint.json``.
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


def _report_mean(benchmark, title: str, result) -> None:
    """Record a pedantic row's mean latency (skipped under
    ``--benchmark-disable``, where the fixture collects no stats and the
    test runs for its assertions only)."""
    if benchmark.stats is None:
        return
    stats = benchmark.stats.stats
    report(
        title,
        f"mean {stats.mean * 1e3:.2f} ms over {len(result)} diagnostics",
        data={
            "mean_ms": round(stats.mean * 1e3, 3),
            "diagnostics": len(result),
        },
        json_path=LINT_JSON,
    )


def test_lint_video_manifest(benchmark):
    text = video_manifest_text()
    result = benchmark.pedantic(
        lambda: lint_text(text, path="video.manifest"), rounds=20, iterations=1
    )
    assert not result.errors
    _report_mean(benchmark, "lint latency: video manifest", result)


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
    _report_mean(benchmark, "lint latency: defective fixture (every enumerable code)", result)


def test_lint_wide_manifest(benchmark):
    text = wide_manifest()
    result = benchmark.pedantic(
        lambda: lint_text(text, path="wide.manifest"), rounds=5, iterations=1
    )
    assert not result.errors
    _report_mean(benchmark, "lint latency: 18-component chain (2^18 safe-space sweep)", result)


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


def video3_manifest() -> str:
    """Three replicated paper video groups: 21 components, 51 actions."""
    from repro.bench.workloads import replicated_video_system
    from repro.manifest import SystemManifest, dumps

    system = replicated_video_system(3)
    return dumps(
        SystemManifest(system.universe, system.invariants, system.actions)
    )


#: the racing firewall/cache/replica block (SA601 and SA603)
RACING_BLOCK = {
    "components": ["FW @ edge", "CA @ core", "RX @ core"],
    "invariants": ["guarded : CA -> FW", "shielded : RX -> FW"],
    "actions": [
        "drop_fw : -FW @ 5",
        "add_fw : +FW @ 8",
        "drop_cache : -CA @ 5",
        "add_replica : +RX @ 12",
        "drop_replica : -RX @ 4",
    ],
}


def video3_racing_manifest() -> str:
    """:func:`video3_manifest` plus the racing block: 24 components, the
    shape of the heaviest ``/v1/lint`` answers (~125 diagnostics)."""
    return video3_manifest() + "".join(
        f"[{key}]\n" + "\n".join(lines) + "\n"
        for key, lines in RACING_BLOCK.items()
    )


def fleet_racing_manifest(services: int = 4) -> str:
    """``services`` fleet30-style services (three interchangeable
    variants each, six replaces) plus the racing block: five 3-component
    collaborative sets at the default of four services."""
    sections = {key: list(lines) for key, lines in RACING_BLOCK.items()}
    for index in range(services):
        names = [f"S{index}v{variant}" for variant in (1, 2, 3)]
        sections["components"] += [f"{name} @ node{index}" for name in names]
        sections["invariants"].append(
            f"service{index} : one_of({', '.join(names)})"
        )
        for number, (old, new) in enumerate(
            (a, b) for a in names for b in names if a != b
        ):
            sections["actions"].append(
                f"M{index}{number} : {old} -> {new} @ {10 + 5 * index}"
            )
    return "\n".join(
        f"[{key}]\n" + "\n".join(lines) + "\n" for key, lines in sections.items()
    )


def _paired_times(first, second, rounds: int = 15, statistic=None):
    """*statistic* (default: the median) of the seconds two callables
    take, timed in alternation, so a host whose speed drifts moves both
    the same way."""
    import statistics

    statistic = statistic or statistics.median
    first()
    second()
    times = ([], [])
    for _ in range(rounds):
        for fn, out in zip((first, second), times):
            start = time.perf_counter()
            fn()
            out.append(time.perf_counter() - start)
    return statistic(times[0]), statistic(times[1])


def _capture_stage_call(text: str):
    """``(model, report, path, factors), kwargs`` of the SA6xx call in
    one lint of *text*."""
    import repro.lint.checks as checks_mod

    captured = {}
    original = checks_mod.check_interference

    def capture(*args, **kwargs):
        captured["call"] = (args, kwargs)
        return original(*args, **kwargs)

    checks_mod.check_interference = capture
    try:
        lint_text(text, path="stage.manifest")
    finally:
        checks_mod.check_interference = original
    return captured["call"]


def test_interference_stage_racing_video():
    """SA601/SA603 sweep on three replicated paper video groups.

    21 components, 51 actions, 512 safe configurations: the shape of the
    heaviest ``/v1/lint`` bodies.  The stage runs on the captured model
    three ways: the per-set product sweep (three sets of 8 safe
    projections), the global source-major sweep it replaced
    (``tests/oracles/lint_reference.py``) and the pair-major scan before
    that (``tests/oracles/interference_reference.py``); both references
    take the global safe space.  Recorded, not gated.
    """
    import os

    from repro.core.space import SafeConfigurationSpace
    from repro.lint import LintReport, check_interference
    from tests.oracles.interference_reference import (
        reference_check_interference as pair_major,
    )
    from tests.oracles.lint_reference import (
        reference_check_interference as global_sweep,
    )

    text = video3_manifest()
    pipeline_s = _mean_seconds(lambda: lint_text(text, path="video3.manifest"))
    (model, _, path, factors), kwargs = _capture_stage_call(text)
    safe_masks = SafeConfigurationSpace(
        model.universe, model.kept_invariants()
    ).enumerate_masks()
    global_info = (safe_masks, frozenset(safe_masks))

    def stage(sweep, action_info):
        report = LintReport()
        sweep(model, report, path, action_info, **kwargs)
        return report

    findings = stage(check_interference, factors)
    assert findings.diagnostics == stage(global_sweep, global_info).diagnostics
    assert findings.diagnostics == stage(pair_major, global_info).diagnostics
    stage_s = _mean_seconds(lambda: stage(check_interference, factors))
    global_s = _mean_seconds(lambda: stage(global_sweep, global_info))
    reference_s = _mean_seconds(lambda: stage(pair_major, global_info))
    races = sum(1 for d in findings if d.code in ("SA601", "SA603"))
    report(
        "lint SA6xx interference stage: 51 actions x 512 safe sources",
        f"per-set stage {stage_s * 1e3:.2f} ms (global source-major "
        f"{global_s * 1e3:.2f} ms, pair-major {reference_s * 1e3:.2f} ms, "
        f"{reference_s / stage_s:.1f}x) of a {pipeline_s * 1e3:.2f} ms "
        f"pipeline; {races} SA601/SA603 findings",
        data={
            "actions": len(model.actions),
            "safe_sources": len(safe_masks),
            "set_sources": [len(factor.safe_masks) for factor in factors],
            "race_findings": races,
            "stage_ms": round(stage_s * 1e3, 3),
            "global_stage_ms": round(global_s * 1e3, 3),
            "reference_stage_ms": round(reference_s * 1e3, 3),
            "speedup": round(reference_s / stage_s, 1),
            "pipeline_ms": round(pipeline_s * 1e3, 3),
            "nproc": os.cpu_count(),
        },
        json_path=LINT_JSON,
    )


def test_per_set_lint_against_the_global_engine():
    """Whole-pipeline lint, per collaborative set vs the global engine.

    The global SA3xx stage and SA6xx sweep (``tests/oracles/
    lint_reference.py``) enumerate the full product of the sets' safe
    spaces; the product analyzes each set on its own.  Both render the
    same report.  Timed in alternation on video x3 (three 7-component
    sets, 512 safe configurations) and on four fleet services plus the
    racing block (five 3-component sets, 405 safe configurations).
    Gated at >= 3x on video x3.
    """
    import os

    from repro.lint import render_json
    from tests.oracles.lint_reference import global_engine

    def run_global(text):
        with global_engine():
            return lint_text(text, path="bench.manifest")

    rows = {}
    for label, text in (
        ("video_x3", video3_manifest()),
        ("fleet_x4_racing", fleet_racing_manifest()),
    ):
        product = lint_text(text, path="bench.manifest")
        assert render_json(product) == render_json(run_global(text))
        per_set_s, global_s = _paired_times(
            lambda: lint_text(text, path="bench.manifest"),
            lambda: run_global(text),
        )
        rows[label] = {
            "per_set_ms": round(per_set_s * 1e3, 3),
            "global_ms": round(global_s * 1e3, 3),
            "speedup": round(global_s / per_set_s, 2),
        }
    video, fleet = rows["video_x3"], rows["fleet_x4_racing"]
    report(
        "lint per-set vs global (video x3, 21 components; fleet x4 + racing, "
        "15 components)",
        f"video x3 {video['per_set_ms']:.2f} ms vs {video['global_ms']:.2f} ms "
        f"({video['speedup']:.1f}x); fleet x4 + racing "
        f"{fleet['per_set_ms']:.2f} ms vs {fleet['global_ms']:.2f} ms "
        f"({fleet['speedup']:.1f}x)",
        data={**rows, "nproc": os.cpu_count()},
        json_path=LINT_JSON,
    )
    assert video["speedup"] >= 3.0, (
        f"per-set lint only {video['speedup']:.2f}x over the global engine "
        "on video x3"
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


def test_lint_answer_encoding():
    """One ``/v1/lint`` answer encoded by the schema writer vs the dict
    path it replaced — gated ≥ 1.8x on video x3 with the racing block.

    A json-format answer carries the report twice: the indented
    ``rendered`` text and the compact, key-sorted ``report``.  The
    writer (``repro.lint.render.encode_report``) goes from the
    diagnostics to both in one pass and ``to_wire`` splices the second
    into the envelope; the dict path (``tests/oracles/
    lint_render_reference.py``) built a dict tree, wrote it with
    ``dumps_indented`` and encoded the whole envelope again with
    ``json.dumps(sort_keys=True)``.  Both sides escape the rendered text
    into the wire.  The bytes are asserted identical first; each side
    then reports its best of 30 alternating rounds, on video x3 with the
    racing block (24 components) and on four fleet services with it
    (15 components).
    """
    import json
    import os

    from repro.jsonfmt import dumps_indented
    from repro.lint.render import encode_report
    from repro.serve import LintResult, to_wire
    from tests.oracles.lint_render_reference import report_payload

    rows = {}
    for label, text in (
        ("video_x3_racing", video3_racing_manifest()),
        ("fleet_x4_racing", fleet_racing_manifest()),
    ):
        findings = lint_text(text, path="bench.manifest")
        findings.sort()
        summary = {
            "errors": len(findings.errors),
            "warnings": len(findings.warnings),
            "notes": len(findings.notes),
        }

        def writer():
            rendered, report_json = encode_report(findings)
            return to_wire(
                LintResult(False, "json", rendered, summary, report_json)
            )

        def dict_path():
            payload = report_payload(findings)
            return json.dumps(
                {"ok": True, "kind": "lint", "result": {
                    "failed": False, "format": "json",
                    "rendered": dumps_indented(payload),
                    "summary": summary, "report": payload,
                }},
                separators=(",", ":"), sort_keys=True,
            ).encode("utf-8")

        wire = writer()
        assert wire == dict_path()
        writer_s, dict_s = _paired_times(writer, dict_path, rounds=30, statistic=min)
        rows[label] = {
            "diagnostics": len(findings),
            "answer_kb": round(len(wire) / 1024, 1),
            "writer_ms": round(writer_s * 1e3, 3),
            "dict_path_ms": round(dict_s * 1e3, 3),
            "speedup": round(dict_s / writer_s, 2),
        }
    video, fleet = rows["video_x3_racing"], rows["fleet_x4_racing"]
    report(
        "lint answer encoding: schema writer vs dict path (best of 30)",
        f"video x3 + racing {video['writer_ms']:.2f} ms vs "
        f"{video['dict_path_ms']:.2f} ms ({video['speedup']:.2f}x, "
        f"{video['diagnostics']} diagnostics, {video['answer_kb']} KB); "
        f"fleet x4 + racing {fleet['writer_ms']:.2f} ms vs "
        f"{fleet['dict_path_ms']:.2f} ms ({fleet['speedup']:.2f}x)",
        data={**rows, "nproc": os.cpu_count()},
        json_path=LINT_JSON,
    )
    assert video["speedup"] >= 1.8, (
        f"schema writer only {video['speedup']:.2f}x over the dict path "
        "on video x3 + racing"
    )
