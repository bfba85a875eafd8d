"""Asyncio HTTP/1.1 JSON adapter over the sans-io control plane.

Pure stdlib (``asyncio.start_server``); the server owns **no** operation
logic — every route decodes a JSON body into a typed request and hands
it to :meth:`~repro.serve.control.ControlPlane.dispatch`, so the bytes
on the wire are exactly the CLI's ``--json`` output, compacted.

Routes::

    GET    /healthz            liveness (no dispatch)
    GET    /v1/stats           service + registry + server counters
    POST   /v1/specs           register a spec (manifest text or JSON)
    DELETE /v1/specs/<digest>  evict a spec
    POST   /v1/plan            one MAP request
    POST   /v1/plan-batch      many pairs, NDJSON streamed per result
    POST   /v1/verify-paths    path-quantified ptLTL verification
    POST   /v1/lint            static analysis of uploaded manifests
    POST   /v1/trace-check     offline safety check of a trace

Operational behavior:

* **Admission control** — at most ``max_inflight`` dispatches run at
  once; up to ``queue_limit`` more may wait; anything beyond is
  answered ``429`` with an ``overloaded`` envelope instead of letting
  latency collapse.
* **Deadlines** — ``deadline_ms`` (overridable per request with an
  ``X-Deadline-Ms`` header) bounds each dispatch; an expired request is
  answered ``504``/``deadline-exceeded`` while the worker thread is
  left to finish and release its admission slot honestly.
* **Warm fast path** — repeated ``/v1/plan`` bodies are answered from
  the control plane's wire cache directly on the event loop, no
  executor hop; this carries the single-core throughput target.
* **Graceful shutdown** — SIGINT/SIGTERM stop the listener, in-flight
  requests drain (bounded by ``drain_timeout``), then connections
  close.

One serving process holds one spec table and one set of counters; see
DESIGN.md §16 for what it would take to bring back several.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.serve.api import (
    ErrorEnvelope,
    RegisterSpecRequest,
    EvictSpecRequest,
    Request,
    RequestDecodeError,
    Response,
    StatsRequest,
    StatsResult,
    lint_request_from_json,
    plan_batch_request_from_json,
    plan_request_from_json,
    to_wire,
    trace_check_request_from_json,
    verify_paths_request_from_json,
)
from repro.serve.control import ControlPlane

#: HTTP status for each wire error code (results are always 200)
STATUS_BY_CODE: Dict[str, int] = {
    "bad-request": 400,
    "bad-manifest": 422,
    "bad-property": 422,
    "bad-trace": 422,
    "unsafe-configuration": 422,
    "no-safe-path": 422,
    "unknown-spec": 404,
    "unknown-configuration": 404,
    "unknown-property": 404,
    "not-found": 404,
    "overloaded": 429,
    "deadline-exceeded": 504,
    "internal": 500,
}

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 504: "Gateway Timeout",
}

_MAX_BODY = 16 * 1024 * 1024  # one spec upload is kilobytes; 16M is generous
#: bytes one socket read may take.  asyncio's default, 256 KiB, is above
#: glibc's initial mmap threshold: unless some earlier large free happened
#: to raise that threshold, every read maps and unmaps a fresh buffer, a
#: page fault per warm request (perfbench plan-hot p50 0.062 against
#: 0.038 ms on a 2-CPU host).  Below it, reads never map, whatever the
#: startup allocations were.  The cap is the ``max_size`` attribute that
#: the standard library's selector socket transport passes to each
#: ``recv``; another event loop's transport may ignore it
#: (``tests/serve/test_http.py`` pins the transport class).
READ_CHUNK = 64 * 1024
_JSON = "application/json"
_NDJSON = "application/x-ndjson"


def response_status(response: Response) -> int:
    if isinstance(response, ErrorEnvelope):
        return STATUS_BY_CODE.get(response.code, 500)
    return 200


def _wire_error(code: str, message: str) -> Tuple[int, bytes]:
    envelope = ErrorEnvelope(code, message)
    return STATUS_BY_CODE[code], to_wire(envelope)


def _next_or_none(iterator: Iterator[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    return next(iterator, None)


class ControlPlaneHTTPServer:
    """The HTTP front end over a :class:`ControlPlane`.

    Args:
        control: the dispatch core (and its registry/service).
        host/port: bind address (``port=0`` picks a free port) — ignored
            when *sock* is given.
        sock: an already-bound listening socket (:func:`run_server` binds
            before preloading manifests, so its banner can name the port).
        max_inflight: dispatches allowed to run concurrently.
        queue_limit: admitted-but-waiting bound; beyond it → 429.
            Defaults to ``max_inflight``.
        deadline_ms: default per-request deadline (None: no deadline).
        drain_timeout: seconds :meth:`shutdown` waits for in-flight
            requests before closing connections.
    """

    def __init__(
        self,
        control: ControlPlane,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: Optional[socket.socket] = None,
        max_inflight: int = 64,
        queue_limit: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        drain_timeout: float = 5.0,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.control = control
        self._host = host
        self._port = port
        self._sock = sock
        self.max_inflight = max_inflight
        self.queue_limit = max_inflight if queue_limit is None else queue_limit
        self.deadline_ms = deadline_ms
        self.drain_timeout = drain_timeout
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, min(32, max_inflight)),
            thread_name_prefix="dispatch",
        )
        self._semaphore = asyncio.Semaphore(max_inflight)
        self._waiting = 0
        self._inflight = 0
        self._stopping = False
        self._stop_event = asyncio.Event()
        self._connections: set = set()
        # counters surfaced under /v1/stats "server"
        self._served = 0
        self._fast_hits = 0
        self._rejected_overload = 0
        self._rejected_deadline = 0

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])

    def request_stop(self) -> None:
        """Signal-safe stop: wakes :meth:`serve_until_stopped`."""
        if not self._stopping:
            self._stopping = True
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        await self._stop_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, close connections."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._connections):
            writer.close()
        # Closing the transports ends idle keep-alive reads with EOF; let
        # the handlers exit before the event loop's teardown cancels them
        # mid-read (each leaves the set once its connection is closed).
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.01)
        self._executor.shutdown(wait=False)

    def server_stats(self) -> Dict[str, Any]:
        return {
            "served": self._served,
            "fast_hits": self._fast_hits,
            "inflight": self._inflight,
            "rejected_overload": self._rejected_overload,
            "rejected_deadline": self._rejected_deadline,
            "max_inflight": self.max_inflight,
            "queue_limit": self.queue_limit,
        }

    # -- connection loop ---------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        writer.transport.max_size = READ_CHUNK
        self._connections.add(writer)
        try:
            while not self._stopping:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                ):
                    break
                keep_alive = await self._handle_request(head, reader, writer)
                if not keep_alive:
                    break
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                self._connections.discard(writer)

    async def _handle_request(self, head: bytes, reader, writer) -> bool:
        """Parse one request and answer it; returns keep-alive."""
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, path, version = request_line.split(" ", 2)
        except ValueError:
            self._write(writer, 400, _wire_error(
                "bad-request", "malformed request line")[1])
            return False
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            self._write(writer, 400, _wire_error(
                "bad-request", f"body too large ({length} bytes)")[1])
            return False
        body = await reader.readexactly(length) if length else b""
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
            and not self._stopping
        )
        deadline_ms = self.deadline_ms
        if "x-deadline-ms" in headers:
            try:
                deadline_ms = float(headers["x-deadline-ms"])
            except ValueError:
                self._write(writer, 400, _wire_error(
                    "bad-request", "X-Deadline-Ms must be a number")[1])
                return keep_alive
        try:
            return await self._route(
                method, path, headers, body, writer, keep_alive, deadline_ms
            )
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            self._write(writer, 500, to_wire(ErrorEnvelope(
                "internal", f"{type(exc).__name__}: {exc}")))
            return False

    # -- routing -----------------------------------------------------------------
    async def _route(
        self, method, path, headers, body, writer, keep_alive, deadline_ms
    ) -> bool:
        if path == "/healthz" and method == "GET":
            self._write(writer, 200, b'{"ok":true}', keep_alive=keep_alive)
            return keep_alive
        if path == "/v1/stats" and method == "GET":
            response = self.control.dispatch(StatsRequest())
            if isinstance(response, StatsResult):
                response = dataclasses.replace(
                    response, server=self.server_stats()
                )
            self._respond(writer, response, keep_alive)
            return keep_alive
        if path == "/v1/specs" and method == "POST":
            return await self._post_specs(headers, body, writer, keep_alive,
                                          deadline_ms)
        if path.startswith("/v1/specs/") and method == "DELETE":
            digest = path[len("/v1/specs/"):]
            response = self.control.dispatch(EvictSpecRequest(spec=digest))
            self._respond(writer, response, keep_alive)
            return keep_alive
        if path == "/v1/plan" and method == "POST":
            return await self._post_plan(body, writer, keep_alive, deadline_ms)
        if path == "/v1/plan-batch" and method == "POST":
            await self._post_plan_batch(body, writer)
            return False  # NDJSON is close-delimited
        if path == "/v1/verify-paths" and method == "POST":
            return await self._post_json(
                verify_paths_request_from_json, body, writer, keep_alive,
                deadline_ms,
            )
        if path == "/v1/lint" and method == "POST":
            return await self._post_lint(body, writer, keep_alive,
                                         deadline_ms)
        if path == "/v1/trace-check" and method == "POST":
            return await self._post_json(
                trace_check_request_from_json, body, writer, keep_alive,
                deadline_ms,
            )
        status, wire = _wire_error(
            "not-found", f"no route for {method} {path}"
        )
        self._write(writer, status, wire, keep_alive=keep_alive)
        return keep_alive

    def _decode_json(self, body: bytes) -> Any:
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestDecodeError(f"body is not valid JSON: {exc}") from exc

    async def _post_specs(
        self, headers, body, writer, keep_alive, deadline_ms
    ) -> bool:
        # JSON {"manifest": text} or the manifest text itself — whatever
        # the Content-Type says (curl --data-binary @file just works).
        try:
            if _JSON in headers.get("content-type", ""):
                payload = self._decode_json(body)
                if (
                    not isinstance(payload, dict)
                    or not isinstance(payload.get("manifest"), str)
                ):
                    raise RequestDecodeError(
                        "body must be {\"manifest\": \"<text>\"}"
                    )
                text = payload["manifest"]
            else:
                text = body.decode("utf-8")
        except (RequestDecodeError, UnicodeDecodeError) as exc:
            status, wire = _wire_error("bad-request", str(exc))
            self._write(writer, status, wire, keep_alive=keep_alive)
            return keep_alive
        return await self._dispatch_and_respond(
            RegisterSpecRequest(manifest=text), writer, keep_alive, deadline_ms
        )

    async def _post_plan(self, body, writer, keep_alive, deadline_ms) -> bool:
        try:
            payload = self._decode_json(body)
        except RequestDecodeError as exc:
            status, wire = _wire_error("bad-request", str(exc))
            self._write(writer, status, wire, keep_alive=keep_alive)
            return keep_alive
        # warm fast lane: answer repeated bodies straight off the loop
        wire = self.control.plan_wire_fast(payload)
        if wire is not None:
            self._fast_hits += 1
            self._served += 1
            self._write(writer, 200, wire, keep_alive=keep_alive)
            return keep_alive
        try:
            request = plan_request_from_json(payload)
        except RequestDecodeError as exc:
            status, wire = _wire_error("bad-request", str(exc))
            self._write(writer, status, wire, keep_alive=keep_alive)
            return keep_alive
        response = await self._dispatch(request, writer, keep_alive,
                                        deadline_ms)
        if response is None:
            return keep_alive  # rejected (already answered) or shutdown
        wire = to_wire(response)
        self.control.plan_wire_store(payload, response, wire)
        self._served += 1
        self._write(writer, response_status(response), wire,
                    keep_alive=keep_alive)
        return keep_alive

    async def _post_lint(self, body, writer, keep_alive, deadline_ms) -> bool:
        try:
            payload = self._decode_json(body)
        except RequestDecodeError as exc:
            status, wire = _wire_error("bad-request", str(exc))
            self._write(writer, status, wire, keep_alive=keep_alive)
            return keep_alive
        # warm fast lane: lint is deterministic, so a repeated body is
        # answered from cached bytes without re-running the analyzer
        wire = self.control.lint_wire_fast(payload)
        if wire is not None:
            self._fast_hits += 1
            self._served += 1
            self._write(writer, 200, wire, keep_alive=keep_alive)
            return keep_alive
        try:
            request = lint_request_from_json(payload)
        except RequestDecodeError as exc:
            status, wire = _wire_error("bad-request", str(exc))
            self._write(writer, status, wire, keep_alive=keep_alive)
            return keep_alive
        response = await self._dispatch(request, writer, keep_alive,
                                        deadline_ms)
        if response is None:
            return keep_alive  # rejected (already answered) or shutdown
        wire = to_wire(response)
        self.control.lint_wire_store(payload, response, wire)
        self._served += 1
        self._write(writer, response_status(response), wire,
                    keep_alive=keep_alive)
        return keep_alive

    async def _post_json(
        self, builder, body, writer, keep_alive, deadline_ms
    ) -> bool:
        try:
            request = builder(self._decode_json(body))
        except RequestDecodeError as exc:
            status, wire = _wire_error("bad-request", str(exc))
            self._write(writer, status, wire, keep_alive=keep_alive)
            return keep_alive
        return await self._dispatch_and_respond(
            request, writer, keep_alive, deadline_ms
        )

    async def _dispatch_and_respond(
        self, request: Request, writer, keep_alive, deadline_ms
    ) -> bool:
        response = await self._dispatch(request, writer, keep_alive,
                                        deadline_ms)
        if response is not None:
            self._served += 1
            self._respond(writer, response, keep_alive)
        return keep_alive

    async def _dispatch(
        self, request: Request, writer, keep_alive, deadline_ms
    ) -> Optional[Response]:
        """Admission-controlled, deadline-bounded dispatch off the loop.

        Returns ``None`` when the request was already answered here
        (429 rejection or 504 expiry).
        """
        if not await self._admit(writer, keep_alive):
            return None
        loop = asyncio.get_running_loop()
        self._inflight += 1
        future = loop.run_in_executor(
            self._executor, self.control.dispatch, request
        )

        def _done(fut) -> None:
            self._inflight -= 1
            self._semaphore.release()
            if not fut.cancelled():
                fut.exception()  # consume; dispatch never raises anyway

        future.add_done_callback(_done)
        if deadline_ms is None:
            return await future
        try:
            # shield: on expiry the worker thread finishes on its own
            # and _done releases its slot — accounting stays honest.
            return await asyncio.wait_for(
                asyncio.shield(future), deadline_ms / 1000.0
            )
        except asyncio.TimeoutError:
            self._rejected_deadline += 1
            status, wire = _wire_error(
                "deadline-exceeded",
                f"request exceeded its {deadline_ms:g} ms deadline",
            )
            self._write(writer, status, wire, keep_alive=keep_alive)
            return None

    async def _admit(self, writer, keep_alive) -> bool:
        if self._semaphore.locked() and self._waiting >= self.queue_limit:
            self._rejected_overload += 1
            status, wire = _wire_error(
                "overloaded",
                f"server at capacity ({self.max_inflight} in flight, "
                f"{self._waiting} queued)",
            )
            self._write(writer, status, wire, keep_alive=keep_alive)
            return False
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        return True

    async def _post_plan_batch(self, body, writer) -> None:
        try:
            request = plan_batch_request_from_json(self._decode_json(body))
        except RequestDecodeError as exc:
            status, wire = _wire_error("bad-request", str(exc))
            self._write(writer, status, wire, keep_alive=False)
            return
        if not await self._admit(writer, keep_alive=False):
            return
        self._inflight += 1
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: " + _NDJSON.encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n"
            )
            loop = asyncio.get_running_loop()
            stream = self.control.plan_batch_stream(request)
            while True:
                item = await loop.run_in_executor(
                    self._executor, _next_or_none, stream
                )
                if item is None:
                    break
                writer.write(
                    json.dumps(
                        item, separators=(",", ":"), sort_keys=True
                    ).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
            self._served += 1
        finally:
            self._inflight -= 1
            self._semaphore.release()

    # -- response writing --------------------------------------------------------
    def _respond(self, writer, response: Response, keep_alive: bool) -> None:
        self._write(
            writer, response_status(response), to_wire(response),
            keep_alive=keep_alive,
        )

    def _write(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str = _JSON,
        keep_alive: bool = False,
    ) -> None:
        """Write one whole response (status line, headers, body)."""
        reason = _REASONS.get(status, "OK")
        connection = "keep-alive" if keep_alive else "close"
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n"
            ).encode("ascii")
            + body
        )


# -- process entry point -------------------------------------------------------


def create_listen_socket(host: str, port: int, backlog: int = 512):
    """A bound, listening TCP socket for :class:`ControlPlaneHTTPServer`."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    sock.setblocking(False)
    return sock


def run_server(
    manifests: Sequence[str] = (),
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_inflight: int = 64,
    queue_limit: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    max_specs: int = 64,
    out=None,
) -> int:
    """Blocking server entry point behind ``repro serve``.

    Binds, prints the address, preloads *manifests*, then serves in this
    process until SIGINT/SIGTERM.
    """
    import signal as _signal
    import sys
    from pathlib import Path

    out = out if out is not None else sys.stdout
    sock = create_listen_socket(host, port)
    bound = sock.getsockname()
    print(
        f"serving on http://{bound[0]}:{bound[1]} "
        f"(max in-flight {max_inflight})",
        file=out,
        flush=True,
    )
    control = ControlPlane(max_specs=max_specs)
    for path in manifests:
        response = control.dispatch(
            RegisterSpecRequest(Path(path).read_text(encoding="utf-8"))
        )
        if isinstance(response, ErrorEnvelope):
            raise SystemExit(f"error: cannot preload {path}: {response.message}")

    async def serve() -> None:
        server = ControlPlaneHTTPServer(
            control,
            sock=sock,
            max_inflight=max_inflight,
            queue_limit=queue_limit,
            deadline_ms=deadline_ms,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.serve_until_stopped()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - signal race fallback
        pass
    finally:
        sock.close()
    return 0


# -- thread-hosted server (tests and benchmarks) -------------------------------


class ServerThread:
    """Run a :class:`ControlPlaneHTTPServer` on a background thread.

    The test suite (no pytest-asyncio) and the HTTP benchmark both need
    a live server next to a same-process client; this wraps the whole
    asyncio lifecycle behind blocking ``start()``/``stop()``.
    """

    def __init__(self, control: ControlPlane, **server_kwargs: Any):
        self.control = control
        self._server_kwargs = server_kwargs
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ControlPlaneHTTPServer] = None
        self._thread = threading.Thread(
            target=self._run, name="serve-http", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        server = ControlPlaneHTTPServer(self.control, **self._server_kwargs)
        await server.start()
        self._server = server
        self._loop = asyncio.get_running_loop()
        self.address = server.address
        self._ready.set()
        await server.serve_until_stopped()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        if self.address is None:
            raise RuntimeError("server did not come up within 10s")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._server is not None:
            self._loop.call_soon_threadsafe(self._server.request_stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
