"""Control-plane wire types: typed requests, results, and error envelopes.

Every operation the system exposes — spec registration, planning, batch
planning, path-quantified verification, static analysis, offline trace
checking, stats — is a **request dataclass** in, a **result dataclass**
(or :class:`ErrorEnvelope`) out.  The CLI and the HTTP adapter both
speak exactly these types through
:meth:`repro.serve.control.ControlPlane.dispatch`, which is what makes
their answers byte-identical: the JSON a ``repro plan --json`` prints is
:func:`to_json` of the same object the HTTP server writes on the wire.

Error envelopes replace raw exceptions at the boundary.  A dispatch
never lets a traceback escape; domain failures become one of the
:data:`ERROR_CODES` with a human-readable message (and sometimes a
``detail`` payload), so the wire contract can be golden-tested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

# -- error envelopes ----------------------------------------------------------

#: the closed set of wire error codes (golden-tested; extend deliberately)
ERROR_CODES = (
    "bad-request",  # malformed/invalid request fields
    "bad-manifest",  # manifest text failed to parse
    "bad-property",  # inline property formula failed to parse
    "bad-trace",  # trace JSONL failed to decode
    "unknown-spec",  # digest not registered (or evicted)
    "unknown-configuration",  # source/target not resolvable in the spec
    "unknown-property",  # named [properties] entry absent
    "unsafe-configuration",  # endpoint outside the safe space
    "no-safe-path",  # planning answered: unreachable
    "not-found",  # referenced file absent (local dispatch only)
    "overloaded",  # admission control rejected the request
    "deadline-exceeded",  # per-request deadline elapsed
    "internal",  # unexpected failure (exception type + message, no traceback)
)


@dataclass(frozen=True)
class ErrorEnvelope:
    """A structured operation failure (never a raw traceback)."""

    code: str
    message: str
    detail: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown error code {self.code!r}")

    def payload(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail is not None:
            doc["detail"] = self.detail
        return doc


# -- requests -----------------------------------------------------------------
#
# Requests that operate on a spec accept either ``spec`` (the digest of a
# previously registered spec) or ``manifest`` (inline manifest text,
# registered on use) — exactly one.


@dataclass(frozen=True)
class RegisterSpecRequest:
    """Upload a spec: the manifest text is the wire format."""

    manifest: str


@dataclass(frozen=True)
class EvictSpecRequest:
    """Drop a registered spec (and its warm caches)."""

    spec: str


@dataclass(frozen=True)
class PlanRequest:
    """One MAP request: source → target over a spec."""

    source: str
    target: str
    spec: Optional[str] = None
    manifest: Optional[str] = None
    #: also answer the k best alternates when > 1
    k: int = 1
    #: "auto" | "dijkstra" | "lazy" | "collaborative"
    method: str = "auto"


@dataclass(frozen=True)
class PlanBatchRequest:
    """Many MAP requests over one spec (NDJSON-streamable over HTTP)."""

    pairs: Tuple[Tuple[str, str], ...]
    spec: Optional[str] = None
    manifest: Optional[str] = None


@dataclass(frozen=True)
class VerifyPathsRequest:
    """Path-quantified ptLTL verification over the spec's SAG."""

    source: str
    target: str
    #: a [properties] name from the manifest...
    property_name: Optional[str] = None
    #: ...or an inline ptLTL formula
    formula: Optional[str] = None
    quantifier: str = "all"
    k: Optional[int] = None
    lazy: Optional[bool] = None
    max_expansions: Optional[int] = None
    spec: Optional[str] = None
    manifest: Optional[str] = None


@dataclass(frozen=True)
class LintRequest:
    """Static analysis over one or more manifest sources.

    ``sources`` is ``(path, text)`` pairs; *path* is provenance only (it
    labels diagnostics) and may be ``None`` for anonymous uploads.
    """

    sources: Tuple[Tuple[Optional[str], str], ...]
    format: str = "text"
    fail_on: str = "error"
    verbose: bool = False
    max_enum_components: Optional[int] = None


@dataclass(frozen=True)
class TraceCheckRequest:
    """Offline safety (+ optional ptLTL) check of a persisted trace."""

    trace: Optional[str] = None  # trace JSONL text (the wire form)
    trace_path: Optional[str] = None  # or a local file (CLI dispatch)
    ltl: Optional[str] = None  # [properties] name to check alongside
    metrics: bool = False
    stream: bool = True
    spec: Optional[str] = None
    manifest: Optional[str] = None


@dataclass(frozen=True)
class StatsRequest:
    """Service counters + per-spec registry listing."""


Request = Union[
    RegisterSpecRequest,
    EvictSpecRequest,
    PlanRequest,
    PlanBatchRequest,
    VerifyPathsRequest,
    LintRequest,
    TraceCheckRequest,
    StatsRequest,
]


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStepInfo:
    """One plan step, fully rendered (no live objects on the wire)."""

    index: int
    action: str
    description: str
    operation: str
    cost: float
    source: str
    target: str

    def payload(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "action": self.action,
            "description": self.description,
            "operation": self.operation,
            "cost": self.cost,
            "source": self.source,
            "target": self.target,
        }


@dataclass(frozen=True)
class PlanInfo:
    """A wire-rendered adaptation plan."""

    source: str
    target: str
    cost: float
    steps: Tuple[PlanStepInfo, ...]

    def payload(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "target": self.target,
            "cost": self.cost,
            "actions": [step.action for step in self.steps],
            "steps": [step.payload() for step in self.steps],
        }

    def describe(self) -> str:
        """Byte-identical to :meth:`repro.core.planner.AdaptationPlan.describe`."""
        lines = [
            f"plan {self.source} -> {self.target} "
            f"(cost {self.cost:g}, {len(self.steps)} steps)"
        ]
        for step in self.steps:
            lines.append(
                f"  {step.index + 1}. {step.action}: "
                f"{step.description or step.operation} "
                f"[cost {step.cost:g}]"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanResult:
    kind = "plan"

    digest: str
    plan: PlanInfo
    #: the method that actually answered ("dijkstra" | "lazy" | "collaborative")
    method: str
    #: (action_ids, cost) per alternate, present when the request asked k > 1
    alternates: Tuple[Tuple[Tuple[str, ...], float], ...] = ()

    def payload(self) -> Dict[str, Any]:
        doc = {
            "digest": self.digest,
            "method": self.method,
            "plan": self.plan.payload(),
        }
        if self.alternates:
            doc["alternates"] = [
                {"actions": list(actions), "cost": cost}
                for actions, cost in self.alternates
            ]
        return doc


@dataclass(frozen=True)
class PlanBatchItem:
    source: str
    target: str
    reachable: bool
    actions: Tuple[str, ...] = ()
    cost: Optional[float] = None

    def payload(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "source": self.source,
            "target": self.target,
            "reachable": self.reachable,
        }
        if self.reachable:
            doc["actions"] = list(self.actions)
            doc["cost"] = self.cost
        return doc


@dataclass(frozen=True)
class PlanBatchResult:
    kind = "plan-batch"

    digest: str
    results: Tuple[PlanBatchItem, ...]

    @property
    def reachable(self) -> int:
        return sum(1 for item in self.results if item.reachable)

    def payload(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "results": [item.payload() for item in self.results],
            "summary": {
                "requested": len(self.results),
                "reachable": self.reachable,
            },
        }


@dataclass(frozen=True)
class VerifyPathsResult:
    kind = "verify-paths"

    digest: str
    property_name: Optional[str]
    formula: str
    quantifier: str
    k: int
    mode: str
    paths_checked: int
    complete: bool
    holds: Optional[bool]
    reason: str
    violation_index: Optional[int] = None
    counterexample: Optional[PlanInfo] = None
    witness: Optional[PlanInfo] = None

    def payload(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "digest": self.digest,
            "property": self.property_name,
            "formula": self.formula,
            "quantifier": self.quantifier,
            "k": self.k,
            "mode": self.mode,
            "paths_checked": self.paths_checked,
            "complete": self.complete,
            "holds": self.holds,
            "reason": self.reason,
        }
        if self.violation_index is not None:
            doc["violation_index"] = self.violation_index
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample.payload()
        if self.witness is not None:
            doc["witness"] = self.witness.payload()
        return doc


@dataclass(frozen=True)
class LintResult:
    kind = "lint"

    failed: bool
    format: str
    #: the report rendered in the requested format (text/json/sarif)
    rendered: str
    summary: Dict[str, int]
    #: the structured JSON report, format-independent
    report: Dict[str, Any]

    def payload(self) -> Dict[str, Any]:
        return {
            "failed": self.failed,
            "format": self.format,
            "rendered": self.rendered,
            "summary": dict(self.summary),
            "report": self.report,
        }


@dataclass(frozen=True)
class TraceViolationInfo:
    kind_label: str
    time: float
    detail: str

    def payload(self) -> Dict[str, Any]:
        return {"kind": self.kind_label, "time": self.time, "detail": self.detail}


@dataclass(frozen=True)
class TracePropertyInfo:
    name: str
    formula: str
    holds: bool
    commits: int
    #: set when violated: (commit index, time, triggering action/step, members)
    violation_commit: Optional[int] = None
    violation_time: Optional[float] = None
    violation_after: Optional[str] = None
    violation_members: Tuple[str, ...] = ()

    def payload(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "formula": self.formula,
            "holds": self.holds,
            "commits": self.commits,
        }
        if not self.holds:
            doc["violation"] = {
                "commit": self.violation_commit,
                "time": self.violation_time,
                "after": self.violation_after,
                "members": list(self.violation_members),
            }
        return doc


@dataclass(frozen=True)
class TraceCheckResult:
    kind = "trace-check"

    digest: str
    records: int
    commits: int
    safety_ok: bool
    safety_summary: str
    violations: Tuple[TraceViolationInfo, ...] = ()
    #: named ``property_check`` (not ``property``) to keep the builtin
    #: usable in this class body; the wire key is still "property"
    property_check: Optional[TracePropertyInfo] = None
    metrics_summary: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.safety_ok and (
            self.property_check is None or self.property_check.holds
        )

    def payload(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "digest": self.digest,
            "records": self.records,
            "commits": self.commits,
            "safety": {
                "ok": self.safety_ok,
                "summary": self.safety_summary,
                "violations": [v.payload() for v in self.violations],
            },
            "ok": self.ok,
        }
        if self.property_check is not None:
            doc["property"] = self.property_check.payload()
        if self.metrics_summary is not None:
            doc["metrics"] = self.metrics_summary
        return doc


@dataclass(frozen=True)
class RegisterSpecResult:
    kind = "register-spec"

    digest: str
    components: int
    processes: int
    invariants: int
    actions: int
    configurations: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    #: False when an equal spec was already registered (idempotent upload)
    created: bool = True

    def payload(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "components": self.components,
            "processes": self.processes,
            "invariants": self.invariants,
            "actions": self.actions,
            "configurations": list(self.configurations),
            "properties": list(self.properties),
            "created": self.created,
        }


@dataclass(frozen=True)
class EvictSpecResult:
    kind = "evict-spec"

    digest: str
    evicted: bool

    def payload(self) -> Dict[str, Any]:
        return {"digest": self.digest, "evicted": self.evicted}


@dataclass(frozen=True)
class StatsResult:
    kind = "stats"

    service: Dict[str, int]
    specs: Tuple[Dict[str, Any], ...] = ()
    #: filled in by the HTTP layer (in-flight, served, rejections, shard)
    server: Optional[Dict[str, Any]] = field(default=None, compare=False)
    #: fleet-wide counter sums across every forked worker (filled in by
    #: the HTTP layer from the shared-memory counter block; absent when
    #: the server runs a single process with no block)
    cluster: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def payload(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "service": dict(self.service),
            "specs": [dict(spec) for spec in self.specs],
        }
        if self.server is not None:
            doc["server"] = dict(self.server)
        if self.cluster is not None:
            doc["cluster"] = dict(self.cluster)
        return doc


Result = Union[
    PlanResult,
    PlanBatchResult,
    VerifyPathsResult,
    LintResult,
    TraceCheckResult,
    RegisterSpecResult,
    EvictSpecResult,
    StatsResult,
]

Response = Union[Result, ErrorEnvelope]


# -- envelopes and serialization ----------------------------------------------


def envelope(response: Response) -> Dict[str, Any]:
    """The canonical JSON-ready form of any dispatch answer."""
    if isinstance(response, ErrorEnvelope):
        return {"ok": False, "error": response.payload()}
    return {"ok": True, "kind": response.kind, "result": response.payload()}


def to_json(response: Response) -> str:
    """Pretty, key-sorted JSON — what ``--json`` CLI modes print."""
    return json.dumps(envelope(response), indent=2, sort_keys=True)


def to_wire(response: Response) -> bytes:
    """Compact JSON bytes — what the HTTP adapter writes (same payload)."""
    return json.dumps(
        envelope(response), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


# -- JSON → request builders (used by the HTTP adapter) -----------------------


class RequestDecodeError(ValueError):
    """A JSON body did not decode into a valid request."""


def _take(
    payload: Dict[str, Any],
    allowed: Dict[str, type],
    required: Tuple[str, ...],
) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise RequestDecodeError("request body must be a JSON object")
    unknown = set(payload) - set(allowed)
    if unknown:
        raise RequestDecodeError(f"unknown request field(s): {sorted(unknown)}")
    for name in required:
        if payload.get(name) is None:
            raise RequestDecodeError(f"missing required field {name!r}")
    out: Dict[str, Any] = {}
    for name, value in payload.items():
        if value is None:
            continue
        expected = allowed[name]
        if expected is float and isinstance(value, int):
            value = float(value)
        if expected is not object and not isinstance(value, expected):
            raise RequestDecodeError(
                f"field {name!r} must be {expected.__name__}"
            )
        out[name] = value
    return out


_SPEC_FIELDS: Dict[str, type] = {"spec": str, "manifest": str}


def plan_request_from_json(payload: Dict[str, Any]) -> PlanRequest:
    fields = _take(
        payload,
        {"source": str, "target": str, "k": int, "method": str, **_SPEC_FIELDS},
        required=("source", "target"),
    )
    return PlanRequest(**fields)


def plan_batch_request_from_json(payload: Dict[str, Any]) -> PlanBatchRequest:
    fields = _take(
        payload, {"pairs": list, **_SPEC_FIELDS}, required=("pairs",)
    )
    pairs: List[Tuple[str, str]] = []
    for index, pair in enumerate(fields.pop("pairs")):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(p, str) for p in pair)
        ):
            raise RequestDecodeError(
                f"pairs[{index}] must be a [source, target] string pair"
            )
        pairs.append((pair[0], pair[1]))
    if not pairs:
        raise RequestDecodeError("pairs must not be empty")
    return PlanBatchRequest(pairs=tuple(pairs), **fields)


def verify_paths_request_from_json(payload: Dict[str, Any]) -> VerifyPathsRequest:
    fields = _take(
        payload,
        {
            "source": str,
            "target": str,
            "property": str,
            "formula": str,
            "quantifier": str,
            "k": int,
            "lazy": bool,
            "max_expansions": int,
            **_SPEC_FIELDS,
        },
        required=("source", "target"),
    )
    if "property" in fields:
        fields["property_name"] = fields.pop("property")
    return VerifyPathsRequest(**fields)


def lint_request_from_json(payload: Dict[str, Any]) -> LintRequest:
    fields = _take(
        payload,
        {
            "manifest": str,
            "sources": list,
            "format": str,
            "fail_on": str,
            "verbose": bool,
            "max_enum_components": int,
        },
        required=(),
    )
    sources: List[Tuple[Optional[str], str]] = []
    if "manifest" in fields:
        sources.append((None, fields.pop("manifest")))
    for index, entry in enumerate(fields.pop("sources", ())):
        if isinstance(entry, str):
            sources.append((None, entry))
        elif (
            isinstance(entry, dict)
            and isinstance(entry.get("text"), str)
            and isinstance(entry.get("path"), (str, type(None)))
            and set(entry) <= {"path", "text"}
        ):
            sources.append((entry.get("path"), entry["text"]))
        else:
            raise RequestDecodeError(
                f"sources[{index}] must be manifest text or "
                "{path?, text} objects"
            )
    if not sources:
        raise RequestDecodeError(
            "lint needs 'manifest' text or a 'sources' list"
        )
    return LintRequest(sources=tuple(sources), **fields)


def trace_check_request_from_json(payload: Dict[str, Any]) -> TraceCheckRequest:
    fields = _take(
        payload,
        {"trace": str, "ltl": str, "metrics": bool, **_SPEC_FIELDS},
        required=("trace",),
    )
    return TraceCheckRequest(**fields)
