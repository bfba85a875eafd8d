"""ControlPlane: the sans-io dispatch core every transport shares.

One object, one method: :meth:`ControlPlane.dispatch` takes a typed
request (:mod:`repro.serve.api`) and returns a typed result or an
:class:`~repro.serve.api.ErrorEnvelope` — it **never raises**.  The CLI
calls it with requests built from argv; the asyncio HTTP adapter calls
it with requests decoded from JSON bodies; both therefore produce
byte-identical answers, which a test pins by diffing ``repro plan
--json`` output against a direct ``dispatch()`` call.

The dispatch guard converts the library's exception taxonomy into the
closed wire-error vocabulary (:data:`repro.serve.api.ERROR_CODES`):
manifest :class:`~repro.errors.ParseError` → ``bad-manifest``,
:class:`~repro.errors.NoSafePathError` → ``no-safe-path``, an unknown
digest → ``unknown-spec``, and so on down to a last-resort ``internal``
envelope carrying the exception type and message — never a traceback.

A warm-path **wire cache** (:meth:`plan_wire_fast`) lets the HTTP
adapter answer repeated ``/v1/plan`` requests with precomputed response
bytes while still counting the hit in the service's warm statistics —
this is what carries the single-core throughput target.  Lint has the
same fast lane (:meth:`lint_wire_fast`): repeated ``/v1/lint`` bodies
are answered from cached bytes, keyed by the canonical request body and
pinned to the spec digests of the (strictly loadable) sources so that
evicting a spec drops every cached lint answer that mentioned it.
"""

from __future__ import annotations

import io
import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.model import Configuration
from repro.core.planner import AdaptationPlan
from repro.errors import (
    NoSafePathError,
    ParseError,
    ReproError,
    UnsafeConfigurationError,
)
from repro.ltl.ast import parse_property, property_to_text
from repro.serve.api import (
    ErrorEnvelope,
    EvictSpecRequest,
    EvictSpecResult,
    LintRequest,
    LintResult,
    PlanBatchItem,
    PlanBatchRequest,
    PlanBatchResult,
    PlanInfo,
    PlanRequest,
    PlanResult,
    PlanStepInfo,
    RegisterSpecRequest,
    RegisterSpecResult,
    Request,
    Response,
    StatsRequest,
    StatsResult,
    TraceCheckRequest,
    TraceCheckResult,
    TracePropertyInfo,
    TraceViolationInfo,
    VerifyPathsRequest,
    VerifyPathsResult,
)
from repro.serve.registry import SpecRecord, SpecRegistry
from repro.serve.service import PLAN_METHODS, PlanningService


class _Fail(Exception):
    """Internal: aborts a handler with a specific error envelope."""

    def __init__(self, code: str, message: str, detail=None):
        super().__init__(message)
        self.envelope = ErrorEnvelope(code, message, detail)


def _fail(code: str, message: str) -> "_Fail":
    return _Fail(code, message)


def _plan_info(plan: AdaptationPlan) -> PlanInfo:
    """Render a live plan into its wire form (labels, not objects)."""
    return PlanInfo(
        source=plan.source.label(),
        target=plan.target.label(),
        cost=plan.total_cost,
        steps=tuple(
            PlanStepInfo(
                index=step.index,
                action=step.action.action_id,
                description=step.action.description,
                operation=step.action.operation_text(),
                cost=step.action.cost,
                source=step.source.label(),
                target=step.target.label(),
            )
            for step in plan.steps
        ),
    )


class _PropertyCheck:
    """Constant-memory ptLTL check over a trace's committed configurations.

    Feeds every ``ConfigCommitted`` record through the compiled property
    — state is one int, so streaming stays constant-memory — and
    remembers the first violating commit.  (Moved here from ``cli.py``;
    the CLI now renders the resulting :class:`TracePropertyInfo`.)
    """

    def __init__(self, name: str, compiled) -> None:
        self.name = name
        self.compiled = compiled
        self.state = compiled.initial_state
        self.commits = 0
        self.first_violation = None  # (commit index, record)

    def feed(self, record) -> None:
        from repro.trace import ConfigCommitted

        if not isinstance(record, ConfigCommitted):
            return
        value, self.state = self.compiled.step(
            self.compiled.mask_of(record.configuration), self.state
        )
        self.commits += 1
        if not value and self.first_violation is None:
            self.first_violation = (self.commits, record)

    def info(self) -> TracePropertyInfo:
        formula = property_to_text(self.compiled.formula)
        if self.first_violation is None:
            return TracePropertyInfo(
                name=self.name, formula=formula, holds=True,
                commits=self.commits,
            )
        index, record = self.first_violation
        return TracePropertyInfo(
            name=self.name,
            formula=formula,
            holds=False,
            commits=self.commits,
            violation_commit=index,
            violation_time=record.time,
            violation_after=record.action_id or record.step_id,
            violation_members=tuple(sorted(record.configuration)),
        )


#: the only /v1/plan body shape the wire cache may answer
_FAST_FIELDS = frozenset(("spec", "source", "target", "k", "method"))
#: every /v1/lint body field (the lint wire cache keys on all of them)
_LINT_FIELDS = frozenset((
    "manifest", "sources", "format", "fail_on", "verbose",
    "max_enum_components",
))
_FAST_CACHE_LIMIT = 4096


class ControlPlane:
    """Transport-agnostic dispatcher over a service + spec registry.

    Args:
        service: the shared :class:`PlanningService` (one is created
            when omitted).
        max_specs: LRU bound on the spec registry.
        shard: ``(index, total)`` worker identity for digest sharding.
    """

    def __init__(
        self,
        service: Optional[PlanningService] = None,
        *,
        max_specs: int = 64,
        shard: Optional[Tuple[int, int]] = None,
    ):
        self.service = service if service is not None else PlanningService()
        self.registry = SpecRegistry(
            self.service, max_specs=max_specs, shard=shard
        )
        #: (spec, source, target, method) → precomputed wire bytes
        self._fast_cache: Dict[Tuple[str, str, str, str], bytes] = {}
        #: canonical /v1/lint body → (wire bytes, spec digests it depends on)
        self._lint_cache: Dict[str, Tuple[bytes, Tuple[str, ...]]] = {}
        self._lint_hits = 0
        self._handlers: Dict[type, Callable[[Any], Response]] = {
            RegisterSpecRequest: self._handle_register,
            EvictSpecRequest: self._handle_evict,
            PlanRequest: self._handle_plan,
            PlanBatchRequest: self._handle_plan_batch,
            VerifyPathsRequest: self._handle_verify_paths,
            LintRequest: self._handle_lint,
            TraceCheckRequest: self._handle_trace_check,
            StatsRequest: self._handle_stats,
        }

    @property
    def lint_hits(self) -> int:
        """Lint wire-cache hits (published into the cluster counters)."""
        return self._lint_hits

    # -- dispatch ----------------------------------------------------------------
    def dispatch(self, request: Request) -> Response:
        """Answer any control-plane request; never raises.

        Domain failures come back as :class:`ErrorEnvelope`; anything
        unexpected becomes an ``internal`` envelope (type + message, no
        traceback) so transports can forward it verbatim.
        """
        handler = self._handlers.get(type(request))
        if handler is None:
            return ErrorEnvelope(
                "bad-request",
                f"unsupported request type {type(request).__name__}",
            )
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 — the envelope boundary
            return self._envelope_for(exc)

    @staticmethod
    def _envelope_for(exc: BaseException) -> ErrorEnvelope:
        """Map the library exception taxonomy onto wire error codes."""
        if isinstance(exc, _Fail):
            return exc.envelope
        if isinstance(exc, ParseError):
            return ErrorEnvelope("bad-manifest", str(exc))
        if isinstance(exc, NoSafePathError):
            return ErrorEnvelope("no-safe-path", str(exc))
        if isinstance(exc, UnsafeConfigurationError):
            return ErrorEnvelope("unsafe-configuration", str(exc))
        if isinstance(exc, ReproError):
            return ErrorEnvelope("bad-request", str(exc))
        if (
            isinstance(exc, KeyError)
            and exc.args
            and isinstance(exc.args[0], str)
            and "spec digest" in exc.args[0]
        ):
            return ErrorEnvelope("unknown-spec", exc.args[0])
        if isinstance(exc, FileNotFoundError):
            return ErrorEnvelope("not-found", str(exc))
        if isinstance(exc, (ValueError, KeyError, TypeError)):
            return ErrorEnvelope("bad-request", str(exc))
        return ErrorEnvelope("internal", f"{type(exc).__name__}: {exc}")

    # -- spec resolution ---------------------------------------------------------
    def _resolve_spec(
        self, spec: Optional[str], manifest: Optional[str]
    ) -> SpecRecord:
        if (spec is None) == (manifest is None):
            raise _fail(
                "bad-request",
                "exactly one of 'spec' (a digest) and 'manifest' "
                "(inline text) is required",
            )
        if spec is not None:
            return self.registry.get(spec)  # KeyError → unknown-spec
        record, _created = self.registry.register(manifest)
        return record

    @staticmethod
    def _resolve_config(record: SpecRecord, spec: str) -> Configuration:
        try:
            return record.manifest.resolve_configuration(spec)
        except ReproError as exc:
            raise _fail("unknown-configuration", str(exc)) from exc

    def _oversized(self, record: SpecRecord) -> Tuple[bool, Optional[int], int]:
        cap = self.service.lazy_components
        n = len(record.manifest.universe)
        return (cap is not None and n > cap), cap, n

    # -- handlers ----------------------------------------------------------------
    def _handle_register(self, request: RegisterSpecRequest) -> Response:
        record, created = self.registry.register(request.manifest)
        manifest = record.manifest
        return RegisterSpecResult(
            digest=record.digest,
            components=len(manifest.universe),
            processes=len(manifest.universe.processes()),
            invariants=len(manifest.invariants),
            actions=len(manifest.actions),
            configurations=tuple(sorted(manifest.configurations)),
            properties=tuple(sorted(manifest.properties)),
            created=created,
        )

    def _handle_evict(self, request: EvictSpecRequest) -> Response:
        return EvictSpecResult(
            digest=request.spec, evicted=self.registry.evict(request.spec)
        )

    def _handle_plan(self, request: PlanRequest) -> Response:
        if request.method not in PLAN_METHODS:
            raise _fail(
                "bad-request",
                f"method must be one of {PLAN_METHODS}, "
                f"got {request.method!r}",
            )
        if request.k < 1:
            raise _fail("bad-request", f"k must be positive, got {request.k}")
        record = self._resolve_spec(request.spec, request.manifest)
        source = self._resolve_config(record, request.source)
        target = self._resolve_config(record, request.target)
        oversized, cap, n = self._oversized(record)
        method = request.method
        if method == "auto":
            # above the cap the eager 2^n pipeline is off the table
            method = "lazy" if oversized else "dijkstra"
        if request.k > 1 and oversized:
            raise _fail(
                "bad-request",
                f"k-best alternates need the eager SAG, which is capped "
                f"at {cap} components (spec has {n})",
            )
        plan = self.service.plan_digest(
            record.digest, source, target, method=method
        )
        alternates: Tuple[Tuple[Tuple[str, ...], float], ...] = ()
        if request.k > 1:
            alternates = tuple(
                (alt.action_ids, alt.total_cost)
                for alt in self.service.plan_k_digest(
                    record.digest, source, target, request.k
                )
            )
        return PlanResult(
            digest=record.digest,
            plan=_plan_info(plan),
            method=method,
            alternates=alternates,
        )

    def _resolve_pairs(
        self, record: SpecRecord, pairs
    ) -> List[Tuple[Configuration, Configuration]]:
        return [
            (
                self._resolve_config(record, source),
                self._resolve_config(record, target),
            )
            for source, target in pairs
        ]

    @staticmethod
    def _batch_item(
        source: Configuration,
        target: Configuration,
        plan: Optional[AdaptationPlan],
    ) -> PlanBatchItem:
        if plan is None:
            return PlanBatchItem(source.label(), target.label(), False)
        return PlanBatchItem(
            source.label(),
            target.label(),
            True,
            actions=plan.action_ids,
            cost=plan.total_cost,
        )

    def _handle_plan_batch(self, request: PlanBatchRequest) -> Response:
        if not request.pairs:
            raise _fail("bad-request", "pairs must not be empty")
        record = self._resolve_spec(request.spec, request.manifest)
        pairs = self._resolve_pairs(record, request.pairs)
        plans = self.service.plan_many_digest(record.digest, pairs)
        return PlanBatchResult(
            digest=record.digest,
            results=tuple(
                self._batch_item(source, target, plan)
                for (source, target), plan in zip(pairs, plans)
            ),
        )

    def plan_batch_stream(
        self, request: PlanBatchRequest
    ) -> Iterator[Dict[str, Any]]:
        """NDJSON form of a batch: one wire dict per pair, then a summary.

        Unlike :meth:`dispatch` on a :class:`PlanBatchRequest` (which
        amortizes via ``plan_many``), this plans pair by pair so results
        stream out as they land.  A fatal failure yields one
        ``{"error": ...}`` line and ends the stream.
        """
        try:
            record = self._resolve_spec(request.spec, request.manifest)
            pairs = self._resolve_pairs(record, request.pairs)
        except Exception as exc:  # noqa: BLE001 — the envelope boundary
            yield {"error": self._envelope_for(exc).payload()}
            return
        reachable = 0
        for source, target in pairs:
            try:
                plan: Optional[AdaptationPlan] = self.service.plan_digest(
                    record.digest, source, target
                )
            except NoSafePathError:
                plan = None
            except Exception as exc:  # noqa: BLE001
                yield {"error": self._envelope_for(exc).payload()}
                return
            if plan is not None:
                reachable += 1
            yield self._batch_item(source, target, plan).payload()
        yield {
            "summary": {
                "digest": record.digest,
                "requested": len(pairs),
                "reachable": reachable,
            }
        }

    def _handle_verify_paths(self, request: VerifyPathsRequest) -> Response:
        if (request.property_name is None) == (request.formula is None):
            raise _fail(
                "bad-request",
                "exactly one of 'property' and 'formula' is required",
            )
        if request.quantifier not in ("all", "exists"):
            raise _fail(
                "bad-request",
                f"quantifier must be 'all' or 'exists', "
                f"got {request.quantifier!r}",
            )
        if request.k is not None and request.k <= 0:
            raise _fail("bad-request", f"k must be positive, got {request.k}")
        if request.max_expansions is not None and request.max_expansions <= 0:
            raise _fail(
                "bad-request",
                f"max_expansions must be positive, "
                f"got {request.max_expansions}",
            )
        record = self._resolve_spec(request.spec, request.manifest)
        if request.property_name is not None:
            try:
                phi = record.manifest.property_named(request.property_name)
            except ReproError as exc:
                raise _fail("unknown-property", str(exc)) from exc
        else:
            try:
                phi = parse_property(request.formula)
            except ParseError as exc:
                raise _fail("bad-property", str(exc)) from exc
        source = self._resolve_config(record, request.source)
        target = self._resolve_config(record, request.target)
        verdict = self.service.verify_paths_digest(
            record.digest,
            source,
            target,
            phi,
            quantifier=request.quantifier,
            k=request.k,
            max_expansions=request.max_expansions,
            lazy=request.lazy,
        )
        return VerifyPathsResult(
            digest=record.digest,
            property_name=request.property_name,
            formula=property_to_text(phi),
            quantifier=verdict.quantifier,
            k=verdict.k,
            mode=verdict.mode,
            paths_checked=verdict.paths_checked,
            complete=verdict.complete,
            holds=verdict.holds,
            reason=verdict.reason,
            violation_index=verdict.violation_index,
            counterexample=(
                None
                if verdict.counterexample is None
                else _plan_info(verdict.counterexample)
            ),
            witness=(
                None if verdict.witness is None else _plan_info(verdict.witness)
            ),
        )

    def _handle_lint(self, request: LintRequest) -> Response:
        from repro.lint import (
            LintReport,
            Severity,
            lint_text,
            render_json,
            render_sarif,
            render_text,
        )

        if request.format not in ("text", "json", "sarif"):
            raise _fail(
                "bad-request",
                f"format must be 'text', 'json', or 'sarif', "
                f"got {request.format!r}",
            )
        try:
            threshold = Severity.from_label(request.fail_on)
        except ValueError as exc:
            raise _fail("bad-request", str(exc)) from exc
        if not request.sources:
            raise _fail("bad-request", "lint needs at least one source")
        merged = LintReport()
        for path, text in request.sources:
            merged.extend(
                lint_text(
                    text,
                    path=path,
                    max_enum_components=request.max_enum_components,
                )
            )
        merged.sort()
        if request.format == "json":
            rendered = render_json(merged)
        elif request.format == "sarif":
            rendered = render_sarif(merged)
        else:
            rendered = render_text(merged, verbose=request.verbose)
        return LintResult(
            failed=merged.fails(threshold),
            format=request.format,
            rendered=rendered,
            summary={
                "errors": len(merged.errors),
                "warnings": len(merged.warnings),
                "notes": len(merged.notes),
            },
            report=json.loads(render_json(merged)),
        )

    def _handle_trace_check(self, request: TraceCheckRequest) -> Response:
        from repro.obs import MetricsObserver
        from repro.safety import SafetyChecker
        from repro.trace import iter_jsonl

        if (request.trace is None) == (request.trace_path is None):
            raise _fail(
                "bad-request",
                "exactly one of 'trace' (JSONL text) and 'trace_path' "
                "is required",
            )
        record = self._resolve_spec(request.spec, request.manifest)
        manifest = record.manifest
        ltl: Optional[_PropertyCheck] = None
        if request.ltl is not None:
            try:
                phi = manifest.property_named(request.ltl)
            except ReproError as exc:
                raise _fail("unknown-property", str(exc)) from exc
            ltl = _PropertyCheck(
                request.ltl,
                self.service.compiled_property_digest(record.digest, phi),
            )
        checker = SafetyChecker(manifest.invariants, universe=manifest.universe)
        stream = checker.streaming()
        metrics = MetricsObserver() if request.metrics else None
        if request.trace_path is not None:
            handle = open(request.trace_path, encoding="utf-8")
        else:
            handle = io.StringIO(request.trace)
        # Constant memory either way: records flow source → decoder →
        # checker one at a time; the trace is never materialized.
        try:
            with handle:
                for rec in iter_jsonl(handle):
                    stream.feed(rec)
                    if metrics is not None:
                        metrics.feed(rec)
                    if ltl is not None:
                        ltl.feed(rec)
        except ValueError as exc:
            if request.trace_path is not None:
                message = f"malformed trace file {request.trace_path}: {exc}"
            else:
                message = f"malformed trace: {exc}"
            raise _fail("bad-trace", message) from exc
        report = stream.finish()
        return TraceCheckResult(
            digest=record.digest,
            records=stream.records_seen,
            commits=stream.configurations_checked,
            safety_ok=report.ok,
            safety_summary=report.summary(),
            violations=tuple(
                TraceViolationInfo(v.kind, v.time, v.detail)
                for v in report.violations
            ),
            property_check=None if ltl is None else ltl.info(),
            metrics_summary=(
                None if metrics is None else metrics.finish().summary()
            ),
        )

    def _handle_stats(self, request: StatsRequest) -> Response:
        stats = self.service.stats()
        return StatsResult(
            service={
                "specs": stats.specs,
                "warm_hits": stats.warm_hits,
                "cold_plans": stats.cold_plans,
                "lazy_plans": stats.lazy_plans,
                "verify_hits": stats.verify_hits,
                "lint_hits": self._lint_hits,
                "evictions": stats.evictions,
            },
            specs=tuple(self.registry.describe()),
        )

    # -- warm-path wire cache ----------------------------------------------------
    def plan_wire_fast(self, payload: Any) -> Optional[bytes]:
        """Precomputed response bytes for a warm ``/v1/plan`` body.

        Returns ``None`` whenever the answer is not already cached (or
        the body is anything but a plain digest-addressed single plan) —
        the caller then takes the full decode → dispatch path.  A hit is
        still counted in the spec's warm statistics, and a hit whose
        spec has been evicted invalidates itself and falls back, so the
        cache can never resurrect a dropped spec.
        """
        if not isinstance(payload, dict) or set(payload) - _FAST_FIELDS:
            return None
        spec = payload.get("spec")
        source = payload.get("source")
        target = payload.get("target")
        if (
            not isinstance(spec, str)
            or not isinstance(source, str)
            or not isinstance(target, str)
            or payload.get("k", 1) != 1
        ):
            return None
        key = (spec, source, target, payload.get("method", "auto"))
        wire = self._fast_cache.get(key)
        if wire is None:
            return None
        if not self.service.count_warm_hit(spec):
            self._fast_cache.pop(key, None)
            return None
        return wire

    def plan_wire_store(
        self, payload: Any, response: Response, wire: bytes
    ) -> None:
        """Cache a just-dispatched ``/v1/plan`` answer for the fast path.

        Only deterministic answers are eligible: a successful single
        plan, or the (equally cacheable) ``no-safe-path`` envelope.
        Transient failures — overload, deadline, unknown spec — never
        enter the cache.
        """
        if not isinstance(payload, dict) or set(payload) - _FAST_FIELDS:
            return
        spec = payload.get("spec")
        if not isinstance(spec, str) or payload.get("k", 1) != 1:
            return
        cacheable = isinstance(response, PlanResult) or (
            isinstance(response, ErrorEnvelope)
            and response.code == "no-safe-path"
        )
        if not cacheable:
            return
        if len(self._fast_cache) >= _FAST_CACHE_LIMIT:
            self._fast_cache.clear()
        key = (
            spec,
            payload["source"],
            payload["target"],
            payload.get("method", "auto"),
        )
        self._fast_cache[key] = wire

    # -- warm-path lint cache ----------------------------------------------------
    @staticmethod
    def _lint_key(payload: Any) -> Optional[str]:
        """Canonical cache key for a ``/v1/lint`` body (None: uncacheable)."""
        if not isinstance(payload, dict) or set(payload) - _LINT_FIELDS:
            return None
        try:
            return json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError):
            return None

    @staticmethod
    def _lint_texts(payload: Dict[str, Any]) -> List[str]:
        """The manifest texts a ``/v1/lint`` body carries (shape-tolerant)."""
        texts: List[str] = []
        if isinstance(payload.get("manifest"), str):
            texts.append(payload["manifest"])
        sources = payload.get("sources")
        if isinstance(sources, list):
            for entry in sources:
                if isinstance(entry, str):
                    texts.append(entry)
                elif isinstance(entry, dict) and isinstance(
                    entry.get("text"), str
                ):
                    texts.append(entry["text"])
        return texts

    def lint_wire_fast(self, payload: Any) -> Optional[bytes]:
        """Precomputed response bytes for a warm ``/v1/lint`` body.

        Lint is deterministic, so identical bodies always produce
        identical reports — the cache answers them without re-running
        the analyzer.  Each entry is pinned to the spec digests of the
        sources that loaded strictly at store time; evicting any of
        those specs (``DELETE /v1/specs/<digest>`` or registry LRU
        pressure) invalidates the entry, so a dropped spec can never
        keep serving stale lint bytes.
        """
        key = self._lint_key(payload)
        if key is None:
            return None
        entry = self._lint_cache.get(key)
        if entry is None:
            return None
        wire, digests = entry
        if any(not self.service.has_spec(digest) for digest in digests):
            self._lint_cache.pop(key, None)
            return None
        self._lint_hits += 1
        return wire

    def lint_wire_store(
        self, payload: Any, response: Response, wire: bytes
    ) -> None:
        """Cache a just-dispatched ``/v1/lint`` answer for the fast path.

        Only successful reports are eligible; error envelopes (bad
        format, malformed body) are cheap to recompute and never enter
        the cache.  Sources that load strictly are registered so the
        entry's lifetime is tied to their spec digests; defective
        sources — lint's bread and butter — contribute no digest and the
        entry simply lives until the cache is cleared by size pressure.
        """
        key = self._lint_key(payload)
        if key is None or not isinstance(response, LintResult):
            return
        digests: List[str] = []
        for text in self._lint_texts(payload):
            try:
                record, _ = self.registry.register(text)
            except Exception:  # noqa: BLE001 — defective manifests are fine
                continue
            if record.digest not in digests:
                digests.append(record.digest)
        if len(self._lint_cache) >= _FAST_CACHE_LIMIT:
            self._lint_cache.clear()
        self._lint_cache[key] = (wire, tuple(digests))
