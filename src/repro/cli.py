"""Command-line interface: plan and simulate adaptations from manifests.

Usage (``python -m repro <command> ...``):

* ``check MANIFEST`` — validate a manifest (the analyzer's SA1xx
  well-formedness gate); print the model summary.
* ``lint MANIFEST...`` — full static analysis (SA1xx–SA6xx, including
  the interference checks for races between concurrent adaptations)
  with ``--format text|json|sarif``, a ``--fail-on`` severity gate, and
  ``--fix [--diff]`` to apply the machine-applicable repairs in place.
  Exit code: 0 when no diagnostic at or above ``--fail-on`` remains,
  1 otherwise, 2 on usage errors (argparse).
* ``safe-configs MANIFEST`` — enumerate the safe configuration set (Table 1).
* ``plan MANIFEST --from SRC --to DST [--k N]`` — compute the Minimum
  Adaptation Path (Figure 4's result).  The engine follows the spec's
  size: eager Dijkstra over the built SAG at or below the enumeration
  cap, the exact lazy frontier search above it (same plan wherever both
  apply).
* ``sag MANIFEST [--highlight-map --from SRC --to DST]`` — emit Graphviz
  DOT of the Safe Adaptation Graph (Figure 4 itself).
* ``simulate MANIFEST --from SRC --to DST [--backend sim|live]
  [--seed N --loss P --quiesce MS --save-trace FILE]`` — run the
  realization phase on the chosen execution backend (discrete-event
  simulator or threaded live runtime) and check the execution against
  the paper's safety definition.
* ``verify-paths MANIFEST --from SRC --to DST --property NAME
  [--quantifier all|exists] [--k N] [--max-expansions N]`` —
  path-quantified temporal verification: decide whether the named
  ``[properties]`` formula holds at every committed configuration along
  every (or some) k-best safe adaptation path; exits 0 when proven, 1 on
  a violation (with the minimized counterexample), 3 when inconclusive
  under the lazy budget (which applies only above the enumeration cap).
* ``trace check FILE --manifest MANIFEST [--ltl NAME]`` — run the safety
  checker offline on a persisted ``--save-trace`` JSONL file; with
  ``--ltl``, also check the named ``[properties]`` formula against the
  trace's committed configurations (constant memory).
* ``serve MANIFEST... [--host --port --max-inflight]`` — serve the
  control plane over HTTP/JSON (asyncio, stdlib-only, one process) with
  admission control and per-request deadlines; SIGINT/SIGTERM drain
  in-flight requests before exit.
* ``example-manifest`` — print the §5 video system as a manifest.

``plan``, ``verify-paths``, and ``trace check`` accept ``--json`` to
print the structured control-plane envelope instead of text — the very
same bytes (pretty-printed) the HTTP server answers, because both go
through :meth:`repro.serve.ControlPlane.dispatch`.

``SRC``/``DST`` may be a configuration name from the manifest's
``[configurations]`` section, a bit vector, or a comma-separated member
list.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.manifest import load_path, video_manifest_text
from repro.render import format_table


def _add_manifest(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("manifest", help="path to a system manifest file")


def _add_endpoints(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--from", dest="source", required=required,
                        help="source configuration (name, bits, or members)")
    parser.add_argument("--to", dest="target", required=required,
                        help="target configuration (name, bits, or members)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Safe dynamic component-based software adaptation "
                    "(Zhang et al., DSN 2004)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="validate a manifest")
    _add_manifest(check)

    lint = commands.add_parser(
        "lint", help="static analysis: diagnose adaptation-spec defects"
    )
    lint.add_argument(
        "manifests", nargs="+", metavar="manifest",
        help="manifest file(s) to analyze",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning", "note"), default="error",
        help="lowest severity that makes the exit code non-zero "
             "(default: error)",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also report analysis stages that were skipped and why",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply the machine-applicable fixes in place (lint -> fix "
             "-> re-lint to a fixed point), then report what remains",
    )
    lint.add_argument(
        "--diff", action="store_true",
        help="with --fix: print a unified diff of each rewritten file",
    )
    lint.add_argument(
        "--max-enum-components", type=int, default=None, metavar="N",
        help="override the SA3xx safe-space enumeration cap "
             "(skips emit an SA307 note)",
    )

    safe = commands.add_parser("safe-configs", help="enumerate safe configurations")
    _add_manifest(safe)

    plan = commands.add_parser("plan", help="compute the Minimum Adaptation Path")
    _add_manifest(plan)
    _add_endpoints(plan, required=False)
    plan.add_argument("--k", type=int, default=1,
                      help="also list the k best alternate plans")
    plan.add_argument(
        "--batch", metavar="FILE",
        help="plan many requests from FILE (one 'SRC -> DST' per line; "
             "'-' reads stdin) through a shared PlanningService",
    )
    plan.add_argument(
        "--json", action="store_true",
        help="print the control-plane response envelope as JSON",
    )
    plan.add_argument(
        "--stats", action="store_true",
        help="print planning-service counters as JSON (alone: just "
             "register the manifest; with --from/--to: plan first)",
    )

    sag = commands.add_parser("sag", help="emit the SAG as Graphviz DOT")
    _add_manifest(sag)
    sag.add_argument("--highlight-map", action="store_true",
                     help="highlight the MAP (requires --from/--to)")
    sag.add_argument("--from", dest="source", help="source configuration")
    sag.add_argument("--to", dest="target", help="target configuration")

    simulate = commands.add_parser(
        "simulate", help="run the adaptation on an execution backend"
    )
    _add_manifest(simulate)
    _add_endpoints(simulate)
    simulate.add_argument(
        "--backend", choices=("sim", "live"), default="sim",
        help="execution substrate: discrete-event simulator (default) "
             "or threaded live runtime",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--loss", type=float, default=0.0,
                          help="control-message loss probability (sim backend only)")
    simulate.add_argument("--quiesce", type=float, default=2.0,
                          help="per-process quiesce delay (time units)")
    simulate.add_argument("--time-scale", type=float, default=0.001,
                          help="wall seconds per time unit (live backend)")
    simulate.add_argument("--timeline", action="store_true",
                          help="print the per-process adaptation timeline")
    simulate.add_argument("--save-trace", metavar="FILE",
                          help="persist the execution trace as JSON lines")
    simulate.add_argument("--enforce", action="store_true",
                          help="online enforcement: abort the run at the first "
                               "safety violation (streaming checker tripwire)")
    simulate.add_argument("--metrics", action="store_true",
                          help="print rolling execution counters collected "
                               "over the observation bus")
    simulate.add_argument("--tail", action="store_true",
                          help="print the event log live as records are "
                               "emitted (streaming sink)")

    verify = commands.add_parser(
        "verify-paths",
        help="path-quantified temporal verification over the SAG",
    )
    _add_manifest(verify)
    _add_endpoints(verify)
    verify.add_argument(
        "--property", dest="prop", required=True, metavar="NAME",
        help="name of a [properties] entry from the manifest",
    )
    verify.add_argument(
        "--quantifier", choices=("all", "exists"), default="all",
        help="'all': φ must hold along every k-best path; "
             "'exists': some k-best path suffices (default: all)",
    )
    verify.add_argument(
        "--k", type=int, default=None, metavar="N",
        help="width of the quantified path set (default: 8)",
    )
    verify.add_argument(
        "--max-expansions", type=int, default=None, metavar="N",
        help="node budget for the lazy enumeration, which runs only "
             "above the enumeration cap (exhaustion yields an "
             "inconclusive verdict, exit code 3); ignored at or below "
             "the cap, where the eager enumeration is exact",
    )
    verify.add_argument(
        "--json", action="store_true",
        help="print the control-plane response envelope as JSON",
    )

    trace = commands.add_parser("trace", help="inspect persisted execution traces")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_check = trace_commands.add_parser(
        "check", help="run the safety checker offline on a trace JSONL file"
    )
    trace_check.add_argument("tracefile", help="path to a trace .jsonl file")
    trace_check.add_argument(
        "--manifest", required=True,
        help="manifest supplying the dependency invariants to check against",
    )
    trace_check.add_argument(
        "--metrics", action="store_true",
        help="also print rolling execution counters for the trace",
    )
    trace_check.add_argument(
        "--ltl", metavar="NAME", default=None,
        help="also check the named [properties] formula at each committed "
             "configuration of the trace",
    )
    trace_check.add_argument(
        "--json", action="store_true",
        help="print the control-plane response envelope as JSON",
    )

    serve = commands.add_parser(
        "serve",
        help="serve the control plane over HTTP/JSON (asyncio, stdlib-only)",
    )
    serve.add_argument(
        "manifests", nargs="*", metavar="manifest",
        help="manifest file(s) to preload into the spec registry",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks a free port (default: 8080)")
    serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="concurrent dispatches before requests queue (default: 64)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="queued requests beyond --max-inflight before the server "
             "answers 429 (default: --max-inflight)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline; expired requests answer 504 "
             "(default: none; override per request with X-Deadline-Ms)",
    )
    serve.add_argument(
        "--spec-cache", type=int, default=64, metavar="N",
        help="LRU bound on registered specs (default: 64)",
    )

    commands.add_parser(
        "example-manifest", help="print the paper's video system as a manifest"
    )
    return parser


def _dispatch_or_raise(control, request):
    """Dispatch through the control plane; envelopes become ReproError.

    Keeps the CLI's text-mode contract (``error: <message>`` on stderr,
    exit code 2) while guaranteeing the answer itself came through the
    exact same :meth:`ControlPlane.dispatch` the HTTP server uses.
    """
    from repro.serve import ErrorEnvelope

    response = control.dispatch(request)
    if isinstance(response, ErrorEnvelope):
        raise ReproError(response.message)
    return response


def cmd_lint(args, out) -> int:
    from pathlib import Path

    from repro.serve import ControlPlane, LintRequest

    if args.diff and not args.fix:
        raise ReproError("--diff requires --fix")
    if args.fix:
        from repro.lint import fix_text, unified_diff

        for name in args.manifests:
            before = Path(name).read_text(encoding="utf-8")
            fixed, applied = fix_text(
                before,
                path=name,
                max_enum_components=args.max_enum_components,
            )
            if applied and fixed != before:
                Path(name).write_text(fixed, encoding="utf-8")
            if args.diff:
                diff = unified_diff(before, fixed, path=name)
                if diff:
                    print(diff, file=out, end="")
            print(f"{name}: {applied} fix(es) applied", file=out)
        # fall through: re-lint the rewritten files so the exit code
        # reflects what --fix could not repair

    sources = tuple(
        (name, Path(name).read_text(encoding="utf-8"))
        for name in args.manifests
    )
    response = _dispatch_or_raise(
        ControlPlane(),
        LintRequest(
            sources=sources,
            format=args.format,
            fail_on=args.fail_on,
            verbose=args.verbose,
            max_enum_components=args.max_enum_components,
        ),
    )
    print(response.rendered, file=out)
    return 1 if response.failed else 0


def cmd_check(args, out) -> int:
    # `check` is the well-formedness (SA1xx) gate of the analyzer: every
    # defect is reported at once, then the usual model summary prints.
    from pathlib import Path

    from repro.lint import lint_text

    text = Path(args.manifest).read_text(encoding="utf-8")
    report = lint_text(text, path=args.manifest)
    shape_errors = [
        d for d in report.errors if d.code.startswith("SA1")
    ]
    if shape_errors:
        listing = "\n".join(d.render() for d in shape_errors)
        raise ReproError(f"manifest is ill-formed:\n{listing}")
    manifest = load_path(args.manifest)
    print(f"components: {len(manifest.universe)} "
          f"on {len(manifest.universe.processes())} process(es)", file=out)
    print(f"invariants: {len(manifest.invariants)}", file=out)
    print(f"actions: {len(manifest.actions)}", file=out)
    planner = manifest.planner()
    print(f"safe configurations: {planner.space.count()}", file=out)
    for name, config in manifest.configurations.items():
        verdict = "safe" if planner.space.is_safe(config) else "UNSAFE"
        print(f"configuration {name} = {config.label()}: {verdict}", file=out)
    return 0


def cmd_safe_configs(args, out) -> int:
    manifest = load_path(args.manifest)
    planner = manifest.planner()
    print(
        format_table(
            ["bit vector", "configuration"], planner.space.to_table()
        ),
        file=out,
    )
    return 0


def _parse_batch_lines(lines):
    """Parse batch request lines into (source, target) spec-string pairs.

    Accepted per line: ``SRC -> DST`` or two whitespace-separated specs;
    blank lines and ``#`` comments are skipped.  Resolution against the
    manifest happens inside the control plane.
    """
    pairs = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            left, right = left.strip(), right.strip()
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ReproError(
                    f"batch line {lineno}: expected 'SRC -> DST', got {raw!r}"
                )
            left, right = parts
        pairs.append((left, right))
    return pairs


def cmd_plan_batch(args, control, manifest_text, out) -> int:
    import time

    from repro.serve import PlanBatchRequest

    if args.batch == "-":
        lines = sys.stdin.read().splitlines()
    else:
        from pathlib import Path

        lines = Path(args.batch).read_text(encoding="utf-8").splitlines()
    pairs = _parse_batch_lines(lines)
    if not pairs:
        raise ReproError(f"batch file {args.batch} contains no requests")
    request = PlanBatchRequest(pairs=tuple(pairs), manifest=manifest_text)
    if args.json:
        from repro.serve import ErrorEnvelope, to_json

        response = control.dispatch(request)
        print(to_json(response), file=out)
        if isinstance(response, ErrorEnvelope):
            return 2
        return 0 if response.reachable == len(pairs) else 1
    started = time.perf_counter()
    response = _dispatch_or_raise(control, request)
    elapsed = time.perf_counter() - started
    for item in response.results:
        if not item.reachable:
            print(f"{item.source} -> {item.target}: NO SAFE PATH", file=out)
        else:
            print(
                f"{item.source} -> {item.target}: "
                f"{' -> '.join(item.actions) or '(empty)'} "
                f"[cost {item.cost:g}]",
                file=out,
            )
    rate = len(pairs) / elapsed if elapsed > 0 else float("inf")
    print(
        f"planned {len(pairs)} request(s) ({response.reachable} reachable) "
        f"in {elapsed * 1000:.1f} ms ({rate:,.0f} plans/sec)",
        file=out,
    )
    return 0 if response.reachable == len(pairs) else 1


def _print_stats(control, out) -> None:
    from repro.serve import StatsRequest, to_json

    print(to_json(_dispatch_or_raise(control, StatsRequest())), file=out)


def cmd_plan(args, out) -> int:
    from pathlib import Path

    from repro.serve import (
        ControlPlane,
        ErrorEnvelope,
        PlanRequest,
        RegisterSpecRequest,
        to_json,
    )

    control = ControlPlane()
    manifest_text = Path(args.manifest).read_text(encoding="utf-8")
    if args.batch:
        if args.source or args.target:
            raise ReproError("--batch and --from/--to are mutually exclusive")
        return cmd_plan_batch(args, control, manifest_text, out)
    if not (args.source and args.target):
        if args.stats:
            # stats-only mode: register the manifest, dump the counters
            _dispatch_or_raise(
                control, RegisterSpecRequest(manifest=manifest_text)
            )
            _print_stats(control, out)
            return 0
        raise ReproError("plan requires --from and --to (or --batch FILE)")
    request = PlanRequest(
        source=args.source,
        target=args.target,
        manifest=manifest_text,
        k=max(args.k, 1),
    )
    if args.json:
        response = control.dispatch(request)
        print(to_json(response), file=out)
        if args.stats:
            _print_stats(control, out)
        return 2 if isinstance(response, ErrorEnvelope) else 0
    response = _dispatch_or_raise(control, request)
    print(response.plan.describe(), file=out)
    if args.k > 1:
        print(file=out)
        print(f"{args.k} best plans:", file=out)
        for index, (actions, cost) in enumerate(response.alternates, 1):
            print(
                f"  {index}. {' -> '.join(actions) or '(empty)'} "
                f"[cost {cost:g}]",
                file=out,
            )
    if args.stats:
        print(file=out)
        _print_stats(control, out)
    return 0


def cmd_sag(args, out) -> int:
    manifest = load_path(args.manifest)
    planner = manifest.planner()
    highlight = None
    if args.highlight_map:
        if not (args.source and args.target):
            raise ReproError("--highlight-map requires --from and --to")
        plan = planner.plan(
            manifest.resolve_configuration(args.source),
            manifest.resolve_configuration(args.target),
        )
        highlight = [
            (step.source, step.action.action_id, step.target)
            for step in plan.steps
        ]
    print(
        planner.sag.to_dot(universe=manifest.universe, highlight_path=highlight),
        file=out,
    )
    return 0


def _run_backend(args, manifest, source, target, bus=None):
    """Execute source→target on the selected backend; returns (outcome, trace)."""
    from repro.exec.app import QuiescentAdapter

    if args.backend != "sim" and args.loss:
        raise ReproError("--loss requires the sim backend (seeded loss models)")
    quiesce_apps = {
        process: QuiescentAdapter(args.quiesce)
        for process in manifest.universe.processes()
    }
    if args.backend == "sim":
        from repro.sim import AdaptationCluster, BernoulliLoss

        cluster = AdaptationCluster(
            manifest.universe,
            manifest.invariants,
            manifest.actions,
            source,
            seed=args.seed,
            apps=quiesce_apps,
            default_loss=BernoulliLoss(args.loss) if args.loss else None,
            bus=bus,
        )
        return cluster.adapt_to(target), cluster.trace
    from repro.runtime import LiveAdaptationSystem

    system = LiveAdaptationSystem(
        manifest.universe,
        manifest.invariants,
        manifest.actions,
        source,
        apps=quiesce_apps,
        time_scale=args.time_scale,
        bus=bus,
    )
    with system:
        outcome = system.adapt_to(target)
    return outcome, system.trace


def cmd_simulate(args, out) -> int:
    from repro.errors import SafetyViolationError
    from repro.obs import MetricsObserver, ObservationBus
    from repro.safety import SafetyChecker

    manifest = load_path(args.manifest)
    source = manifest.resolve_configuration(args.source)
    target = manifest.resolve_configuration(args.target)

    # All observation rides the bus: streaming safety (optionally
    # enforcing), rolling metrics, and the live event tail.
    checker = SafetyChecker(manifest.invariants, universe=manifest.universe)
    stream = checker.streaming(enforce=args.enforce)
    bus = ObservationBus(stream)
    metrics = None
    if args.metrics:
        metrics = bus.subscribe(MetricsObserver())
    if args.tail:
        from repro.render import EventStreamSink

        bus.subscribe(EventStreamSink(stream=out))
    print(f"backend: {args.backend}", file=out)
    try:
        outcome, trace = _run_backend(args, manifest, source, target, bus=bus)
    except SafetyViolationError as exc:
        violation = exc.violation
        print("outcome: ABORTED by online enforcement", file=out)
        if violation is not None:
            print(f"violation: [{violation.kind}] t={violation.time:g}: "
                  f"{violation.detail}", file=out)
        else:  # pragma: no cover - violations always carry structure here
            print(f"violation: {exc}", file=out)
        return 1
    print(f"outcome: {outcome.status} at {outcome.configuration.label()}", file=out)
    print(f"duration: {outcome.duration:g} time units, "
          f"steps committed: {outcome.steps_committed}, "
          f"rolled back: {outcome.steps_rolled_back}", file=out)
    report = stream.finish()
    print(f"safety: {report.summary()}", file=out)
    if args.save_trace:
        from pathlib import Path

        Path(args.save_trace).write_text(trace.to_jsonl() + "\n", encoding="utf-8")
        print(f"trace: {len(trace)} records -> {args.save_trace}", file=out)
    if metrics is not None:
        print(file=out)
        print(metrics.finish().summary(), file=out)
    if args.timeline:
        from repro.render import render_events, render_timeline

        print(file=out)
        print(render_timeline(trace), file=out)
        print(file=out)
        print(render_events(trace), file=out)
    return 0 if (report.ok and outcome.succeeded) else 1


def cmd_trace(args, out) -> int:
    from pathlib import Path

    from repro.serve import ControlPlane, ErrorEnvelope, TraceCheckRequest, to_json

    # only one sub-command today: `trace check`
    request = TraceCheckRequest(
        trace_path=args.tracefile,
        ltl=args.ltl,
        metrics=args.metrics,
        manifest=Path(args.manifest).read_text(encoding="utf-8"),
    )
    control = ControlPlane()
    if args.json:
        response = control.dispatch(request)
        print(to_json(response), file=out)
        if isinstance(response, ErrorEnvelope):
            return 2
        return 0 if response.ok else 1
    result = _dispatch_or_raise(control, request)
    print(f"records: {result.records}", file=out)
    print(f"committed configurations: {result.commits}", file=out)
    print(f"safety: {result.safety_summary}", file=out)
    for violation in result.violations:
        print(f"  [{violation.kind_label}] t={violation.time:g}: "
              f"{violation.detail}", file=out)
    prop = result.property_check
    if prop is not None:
        print(f"property {prop.name}: {prop.formula}", file=out)
        if prop.holds:
            print(f"property verdict: HOLDS over {prop.commits} committed "
                  "configuration(s)", file=out)
        else:
            members = ", ".join(prop.violation_members) or "(empty)"
            print(f"property verdict: VIOLATED at commit "
                  f"{prop.violation_commit} of {prop.commits} "
                  f"(t={prop.violation_time:g}, after "
                  f"{prop.violation_after}): {{{members}}}", file=out)
    if result.metrics_summary is not None:
        print(file=out)
        print(result.metrics_summary, file=out)
    return 0 if result.ok else 1


def cmd_verify_paths(args, out) -> int:
    from pathlib import Path

    from repro.serve import (
        ControlPlane,
        ErrorEnvelope,
        VerifyPathsRequest,
        to_json,
    )

    request = VerifyPathsRequest(
        source=args.source,
        target=args.target,
        property_name=args.prop,
        quantifier=args.quantifier,
        k=args.k,
        max_expansions=args.max_expansions,
        manifest=Path(args.manifest).read_text(encoding="utf-8"),
    )
    control = ControlPlane()
    if args.json:
        response = control.dispatch(request)
        print(to_json(response), file=out)
        if isinstance(response, ErrorEnvelope):
            return 2
        if response.holds is None:
            return 3
        return 0 if response.holds else 1
    verdict = _dispatch_or_raise(control, request)
    print(f"property {args.prop}: {verdict.formula}", file=out)
    print(
        f"quantifier: {verdict.quantifier} over the {verdict.k} best "
        f"path(s), {verdict.mode} enumeration",
        file=out,
    )
    suffix = "" if verdict.complete else " (enumeration incomplete)"
    print(f"paths checked: {verdict.paths_checked}{suffix}", file=out)
    if verdict.holds is None:
        print(f"verdict: INCONCLUSIVE — {verdict.reason}", file=out)
        return 3
    if verdict.holds:
        print(f"verdict: HOLDS — {verdict.reason}", file=out)
        if verdict.witness is not None:
            print(file=out)
            print("witness path:", file=out)
            print(verdict.witness.describe(), file=out)
        return 0
    print(f"verdict: VIOLATED — {verdict.reason}", file=out)
    if verdict.counterexample is not None:
        print(file=out)
        print("counterexample (minimized to the first violating prefix):",
              file=out)
        print(verdict.counterexample.describe(), file=out)
    return 1


def cmd_serve(args, out) -> int:
    from repro.serve.http import run_server

    return run_server(
        manifests=args.manifests,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        deadline_ms=args.deadline_ms,
        max_specs=args.spec_cache,
        out=out,
    )


def cmd_example_manifest(args, out) -> int:
    print(video_manifest_text(), file=out)
    return 0


_COMMANDS = {
    "check": cmd_check,
    "lint": cmd_lint,
    "safe-configs": cmd_safe_configs,
    "plan": cmd_plan,
    "sag": cmd_sag,
    "simulate": cmd_simulate,
    "trace": cmd_trace,
    "verify-paths": cmd_verify_paths,
    "serve": cmd_serve,
    "example-manifest": cmd_example_manifest,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
