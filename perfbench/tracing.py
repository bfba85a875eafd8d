"""Span recording around the calls into each layer, from outside the program.

:func:`install_server`, :func:`install_core` and :func:`install_realize`
replace public entry points of the ``repro`` modules with
wrappers that record one span per call: ``(name, start_ns, end_ns, span id,
parent id, request id, attrs)``.  The parent comes from a context variable,
so nesting follows the call stack, survives the HTTP server's thread-pool
hop (its executor is swapped for one that carries the caller's context) and
keeps concurrent requests apart.  Spans stay in memory; the server bootstrap
writes them out at exit and the benchmark turns them into per-layer self
time (a span's duration minus the time its child spans cover).

Nothing under ``src/`` changes: the wrappers are installed by the benchmark
into the running process only.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: span name → layer (module) it is charged to
LAYER_OF = {
    "http.request": "serve.http",
    "api.decode": "serve.api",
    "api.to_wire": "serve.api",
    "control.dispatch": "serve.control",
    "control.plan_wire_fast": "serve.control",
    "control.plan_wire_store": "serve.control",
    "control.lint_wire_fast": "serve.control",
    "control.lint_wire_store": "serve.control",
    "registry.register": "serve.registry",
    "registry.evict": "serve.registry",
    "service.plan_digest": "serve.service",
    "service.verify_paths_digest": "serve.service",
    "planner.plan": "core.planner",
    "planner.plan_k": "core.planner",
    "planner.lazy_plan": "core.planner",
    "space.enumerate": "core.space",
    "sag.build": "core.sag",
    "csr.spt": "graphs.csr",
    "ltl.compile": "ltl",
    "ltl.verify": "ltl",
    "lint.lint_text": "lint",
    "lint.scan": "lint",
    "lint.interference": "lint",
    "lint.render": "lint",
    "trace.decode": "trace",
    "safety.feed": "safety",
    "obs.publish": "obs",
    "sim.adapt_to": "sim",
    "sim.run": "sim",
    "exec.manager_dispatch": "exec",
    "exec.agent_dispatch": "exec",
    "exec.replan": "exec",
    "protocol.manager": "protocol",
    "protocol.agent": "protocol",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

FIELDS = 6  # name id, start ns, end ns, span id, parent id, request id


class Recorder:
    """In-memory span sink shared by every wrapper of one process.

    Spans are packed six int64 fields each into one ``array`` (one
    ``extend`` per span, so concurrent threads never interleave fields);
    the few spans that carry attributes keep them in a dict by span id.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.buf = array("q")
        self.attrs: Dict[int, dict] = {}
        self._ids = itertools.count(1)
        #: (current span id, request id) of the running call chain
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, 0)
        )

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None,
             before: Optional[Callable] = None, flag: Optional[Callable] = None
             ) -> Callable:
        """*fn* recording a span per call.

        ``attrs(args, result, early)`` returns the span's attribute dict,
        where ``early = before(args)`` is read just before the call.  For
        frequent calls ``flag(result)`` instead picks between the names
        ``name`` and ``name#hit`` (no per-span dict).
        """
        buf, attributes, ids, current = self.buf, self.attrs, self._ids, self.current
        clock = time.perf_counter_ns
        plain, hit = self.name_id(name), self.name_id(name + "#hit")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, rid = current.get()
            sid = next(ids)
            early = before(args) if before is not None else None
            token = current.set((sid, rid))
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                current.reset(token)
                if attrs is not None:
                    extra = attrs(args, result, early)
                    if extra is not None:
                        attributes[sid] = extra
                which = hit if flag is not None and flag(result) else plain
                buf.extend((which, start, end, sid, parent, rid))

        return traced

    def wrap_request(self, fn: Callable) -> Callable:
        """The HTTP server's per-request coroutine: a root span whose
        request id comes from the client's ``X-Request-Id`` header."""
        buf, ids, current = self.buf, self._ids, self.current
        clock = time.perf_counter_ns
        name = self.name_id("http.request")

        @functools.wraps(fn)
        async def traced(server, head, reader, writer):
            rid = _request_id(head)
            sid = next(ids)
            token = current.set((sid, rid))
            start = clock()
            try:
                return await fn(server, head, reader, writer)
            finally:
                end = clock()
                current.reset(token)
                buf.extend((name, start, end, sid, 0, rid))

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function: one span per item produced."""
        buf, ids, current = self.buf, self._ids, self.current
        clock = time.perf_counter_ns
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                parent, rid = current.get()
                sid = next(ids)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    buf.extend((name_id, start, clock(), sid, parent, rid))
                    return
                buf.extend((name_id, start, clock(), sid, parent, rid))
                yield item

        return traced

    def save(self, directory: str, stem: str) -> None:
        """Write the spans as ``<stem>.spans`` (int64s) and ``<stem>.json``."""
        base = os.path.join(directory, stem)
        with open(base + ".spans", "wb") as handle:
            self.buf.tofile(handle)
        with open(base + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "attrs": self.attrs}, handle)


class Spans:
    """Spans read back from :meth:`Recorder.save`."""

    def __init__(self, directory: str, stem: str):
        base = os.path.join(directory, stem)
        self.buf = array("q")
        with open(base + ".spans", "rb") as handle:
            self.buf.frombytes(handle.read())
        with open(base + ".json", encoding="utf-8") as handle:
            meta = json.load(handle)
        self.names: List[str] = meta["names"]
        self.attrs = {int(sid): doc for sid, doc in meta["attrs"].items()}

    def __iter__(self) -> Iterator[Tuple[str, int, int, int, int, int]]:
        buf, names = self.buf, self.names
        for i in range(0, len(buf), FIELDS):
            yield (names[buf[i]], buf[i + 1], buf[i + 2], buf[i + 3], buf[i + 4],
                   buf[i + 5])


def _request_id(head: bytes) -> int:
    marker = b"\r\nx-request-id:"
    index = head.lower().find(marker)
    if index < 0:
        return 0
    end = head.find(b"\r\n", index + len(marker))
    try:
        return int(head[index + len(marker):end])
    except ValueError:
        return 0


class _ContextExecutor(ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _patch(owner, attr: str, wrapper: Callable) -> None:
    setattr(owner, attr, wrapper(getattr(owner, attr)))


def _enumeration_attrs(args, result, previous):
    stats = getattr(args[0], "last_enumeration_stats", None)
    if stats is None or stats is previous:
        return None  # answered from the space's cache
    return {
        "transport": stats.transport or "serial", "safe": stats.safe_count,
        "chunk_wait_ms": stats.chunk_wait_ms, "spinup": stats.pool_spinup_ms > 0,
    }


def _lint_attrs(args, result, early):
    codes = {d.code for d in getattr(result, "diagnostics", ())}
    return {"inconclusive": bool(codes & {"SA307", "SA504", "SA605"})}


def install_server(recorder: Recorder) -> None:
    """Wrap the serving-path layers (HTTP, API, control plane, registry,
    service, planner, space, SAG, CSR, ltl, lint, trace, safety)."""
    import repro.lint as lint_pkg
    import repro.lint.checks as lint_checks
    import repro.serve.http as http
    import repro.serve.service as service_mod
    import repro.trace as trace_mod
    from repro.ltl.compile import CompiledProperty
    from repro.serve.control import ControlPlane
    from repro.serve.registry import SpecRegistry

    wrap = recorder.wrap
    server_cls = http.ControlPlaneHTTPServer
    server_cls._handle_request = recorder.wrap_request(server_cls._handle_request)
    original_init = server_cls.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._executor = _ContextExecutor(
            max_workers=self._executor._max_workers, thread_name_prefix="dispatch"
        )

    server_cls.__init__ = init
    for decoder in ("plan_request_from_json", "plan_batch_request_from_json",
                    "verify_paths_request_from_json", "lint_request_from_json",
                    "trace_check_request_from_json"):
        _patch(http, decoder, lambda fn: wrap("api.decode", fn))
    _patch(http, "to_wire", lambda fn: wrap("api.to_wire", fn))
    _patch(ControlPlane, "dispatch", lambda fn: wrap(
        "control.dispatch", fn, lambda a, r, e: {"op": type(a[1]).__name__}))
    _patch(ControlPlane, "plan_wire_fast", lambda fn: wrap(
        "control.plan_wire_fast", fn, flag=lambda r: r is not None))
    _patch(ControlPlane, "lint_wire_fast", lambda fn: wrap(
        "control.lint_wire_fast", fn, flag=lambda r: r is not None))
    _patch(ControlPlane, "plan_wire_store", lambda fn: wrap("control.plan_wire_store", fn))
    _patch(ControlPlane, "lint_wire_store", lambda fn: wrap("control.lint_wire_store", fn))
    _patch(SpecRegistry, "register", lambda fn: wrap(
        "registry.register", fn, flag=lambda r: bool(r and r[1])))
    _patch(SpecRegistry, "evict", lambda fn: wrap("registry.evict", fn))
    _patch(service_mod.PlanningService, "plan_digest",
           lambda fn: wrap("service.plan_digest", fn))
    _patch(service_mod.PlanningService, "verify_paths_digest",
           lambda fn: wrap("service.verify_paths_digest", fn))
    _patch(service_mod, "_verify_paths", lambda fn: wrap(
        "ltl.verify", fn,
        lambda a, r, e: None if r is None else {"paths": r.paths_checked,
                                                "complete": r.complete}))
    _patch(CompiledProperty, "__init__", lambda fn: wrap("ltl.compile", fn))
    _patch(lint_pkg, "lint_text", lambda fn: wrap("lint.lint_text", fn, _lint_attrs))
    _patch(lint_pkg, "scan", lambda fn: wrap("lint.scan", fn))
    _patch(lint_checks, "check_interference", lambda fn: wrap("lint.interference", fn))
    for renderer in ("render_json", "render_text", "render_sarif"):
        _patch(lint_pkg, renderer, lambda fn: wrap("lint.render", fn))
    _patch(trace_mod, "iter_jsonl", lambda fn: recorder.wrap_iter("trace.decode", fn))
    install_core(recorder)


def install_core(recorder: Recorder) -> None:
    """Wrap the planning core and safety checker (shared by both processes)."""
    from repro.core.planner import AdaptationPlanner
    from repro.core.sag import SafeAdaptationGraph
    from repro.core.space import SafeConfigurationSpace
    from repro.graphs.csr import CSRGraph
    from repro.safety import StreamingSafetyChecker

    wrap = recorder.wrap
    _patch(AdaptationPlanner, "plan", lambda fn: wrap("planner.plan", fn))
    _patch(AdaptationPlanner, "plan_k", lambda fn: wrap("planner.plan_k", fn))

    _patch(AdaptationPlanner, "lazy_plan", lambda fn: wrap(
        "planner.lazy_plan", fn,
        lambda a, r, e: {"expanded": a[0].lazy_sag.expanded_nodes - e},
        before=lambda a: a[0].lazy_sag.expanded_nodes))
    _patch(SafeConfigurationSpace, "enumerate", lambda fn: wrap(
        "space.enumerate", fn, _enumeration_attrs,
        before=lambda a: getattr(a[0], "last_enumeration_stats", None)))
    build = SafeAdaptationGraph.__dict__["build"].__func__
    SafeAdaptationGraph.build = classmethod(wrap(
        "sag.build", build,
        lambda a, r, e: None if r is None else {"edges": r.edge_count}))
    _patch(CSRGraph, "shortest_path_tree", lambda fn: wrap("csr.spt", fn))
    _patch(StreamingSafetyChecker, "feed", lambda fn: wrap("safety.feed", fn))


def install_realize(recorder: Recorder) -> None:
    """Wrap the realization layers (sim, exec, protocol, obs) in-process."""
    import repro.exec.runtime as runtime
    from repro.obs import ObservationBus
    from repro.protocol.agent import AgentMachine
    from repro.protocol.manager import ManagerMachine
    from repro.sim.cluster import AdaptationCluster
    from repro.sim.kernel import Simulator

    wrap = recorder.wrap
    _patch(AdaptationCluster, "adapt_to", lambda fn: wrap("sim.adapt_to", fn))
    _patch(Simulator, "run", lambda fn: wrap("sim.run", fn))
    _patch(runtime, "resolve_replan", lambda fn: wrap("exec.replan", fn))
    _patch(runtime.ManagerRuntime, "dispatch", lambda fn: wrap("exec.manager_dispatch", fn))
    _patch(runtime.AgentRuntime, "dispatch", lambda fn: wrap("exec.agent_dispatch", fn))
    for method in ("start", "on_message", "on_timeout", "on_new_plan", "on_no_plan"):
        _patch(ManagerMachine, method, lambda fn: wrap("protocol.manager", fn))
    for method in ("on_message", "on_local_safe", "on_in_action_applied",
                   "on_resumed", "on_undone"):
        _patch(AgentMachine, method, lambda fn: wrap("protocol.agent", fn))
    _patch(ObservationBus, "publish", lambda fn: wrap("obs.publish", fn))


# -- post-processing -------------------------------------------------------------


def layer_of(name: str) -> str:
    return LAYER_OF[name.split("#", 1)[0]]
