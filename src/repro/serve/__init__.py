"""repro.serve: the adaptation control plane.

Layered sans-io design:

* :mod:`repro.serve.service` — the thread-safe, amortizing
  :class:`PlanningService` and its spec table: one LRU-bounded
  :class:`SpecEntry` per spec digest (manifest, warm planner, compiled
  properties, cached plan answers), dropped whole on eviction;
* :mod:`repro.serve.api` — typed request/response dataclasses and
  :class:`ErrorEnvelope`, the wire vocabulary every transport shares;
* :mod:`repro.serve.registry` — :class:`SpecRegistry`, the stateless
  manifest front of that table (manifest uploads keyed by digest);
* :mod:`repro.serve.control` — :class:`ControlPlane.dispatch`, the one
  entry point the CLI and the network adapter both answer through;
* :mod:`repro.serve.http` — the asyncio HTTP/1.1 JSON adapter
  (stdlib-only) with admission control, deadlines, and graceful drain,
  served from one process.
"""

from repro.serve.api import (
    ERROR_CODES,
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
    RequestDecodeError,
    Response,
    StatsRequest,
    StatsResult,
    TraceCheckRequest,
    TraceCheckResult,
    TracePropertyInfo,
    TraceViolationInfo,
    VerifyPathsRequest,
    VerifyPathsResult,
    envelope,
    to_json,
    to_wire,
)
from repro.serve.control import ControlPlane
from repro.serve.http import (
    STATUS_BY_CODE,
    ControlPlaneHTTPServer,
    ServerThread,
    create_listen_socket,
    response_status,
    run_server,
)
from repro.serve.registry import SpecRegistry
from repro.serve.service import (
    PlanningService,
    ServiceStats,
    SpecEntry,
    UnknownSpecError,
    no_safe_path_message,
    spec_digest,
)

__all__ = [
    "ERROR_CODES",
    "STATUS_BY_CODE",
    "ControlPlane",
    "ControlPlaneHTTPServer",
    "ErrorEnvelope",
    "EvictSpecRequest",
    "EvictSpecResult",
    "LintRequest",
    "LintResult",
    "PlanBatchItem",
    "PlanBatchRequest",
    "PlanBatchResult",
    "PlanInfo",
    "PlanRequest",
    "PlanResult",
    "PlanStepInfo",
    "PlanningService",
    "RegisterSpecRequest",
    "RegisterSpecResult",
    "Request",
    "RequestDecodeError",
    "Response",
    "ServerThread",
    "ServiceStats",
    "SpecEntry",
    "SpecRegistry",
    "StatsRequest",
    "StatsResult",
    "TraceCheckRequest",
    "TraceCheckResult",
    "TracePropertyInfo",
    "TraceViolationInfo",
    "UnknownSpecError",
    "VerifyPathsRequest",
    "VerifyPathsResult",
    "create_listen_socket",
    "envelope",
    "no_safe_path_message",
    "response_status",
    "run_server",
    "spec_digest",
    "to_json",
    "to_wire",
]
