"""HTTP adapter: round trips, admission control, golden error envelopes."""

import http.client
import json
import threading
import time
from asyncio import selector_events

import pytest

from repro.serve import (
    ControlPlane,
    PlanRequest,
    ServerThread,
)
from repro.serve.http import READ_CHUNK
from tests.serve.conftest import STUCK_MANIFEST


def request(address, method, path, body=None, headers=None):
    """One HTTP exchange; returns (status, parsed-or-raw body, headers)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        payload = None
        if isinstance(body, (dict, list)):
            payload = json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json", **(headers or {})}
        elif isinstance(body, str):
            payload = body.encode("utf-8")
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            return response.status, json.loads(raw), dict(response.getheaders())
        return response.status, raw, dict(response.getheaders())
    finally:
        conn.close()


@pytest.fixture
def server():
    with ServerThread(ControlPlane(), host="127.0.0.1", port=0) as thread:
        yield thread


def register(server, text):
    status, body, _ = request(server.address, "POST", "/v1/specs", body=text)
    assert status == 200, body
    return body["result"]["digest"]


class TestRoundTrips:
    def test_healthz(self, server):
        status, body, _ = request(server.address, "GET", "/healthz")
        assert (status, body) == (200, {"ok": True})

    def test_register_accepts_raw_text_and_json(self, server, video_text):
        status, body, _ = request(
            server.address, "POST", "/v1/specs", body=video_text
        )
        assert status == 200
        assert body["ok"] is True
        assert body["result"]["created"] is True
        status, again, _ = request(
            server.address, "POST", "/v1/specs", body={"manifest": video_text}
        )
        assert status == 200
        assert again["result"]["digest"] == body["result"]["digest"]
        assert again["result"]["created"] is False

    def test_reads_stay_below_the_mmap_threshold(self, server, video_text):
        """Every connection reads at most READ_CHUNK bytes at a time, and
        a body spanning many reads still arrives whole."""
        padded = video_text + "# padding\n" * (3 * READ_CHUNK // 10)
        assert len(padded) > 2 * READ_CHUNK
        conn = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            conn.request("POST", "/v1/specs", body=padded.encode("utf-8"))
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 200
            # the connection is still open (keep-alive) while we look
            connections = list(server._server._connections)
            assert connections
            # the cap is an attribute of the stdlib selector transport: on
            # any other transport it would be set and silently ignored
            assert all(
                isinstance(w.transport, selector_events._SelectorSocketTransport)
                for w in connections
            )
            assert all(w.transport.max_size == READ_CHUNK for w in connections)
        finally:
            conn.close()
        assert body["result"]["digest"] == register(server, video_text)

    def test_plan_round_trip_matches_dispatch_wire(self, server, video_text):
        digest = register(server, video_text)
        status, body, _ = request(
            server.address, "POST", "/v1/plan",
            body={"spec": digest, "source": "source", "target": "target"},
        )
        assert status == 200
        assert body["ok"] is True
        assert body["kind"] == "plan"
        assert body["result"]["plan"]["cost"] == 50.0
        # the wire answer is exactly the sans-io dispatch answer
        direct = ControlPlane()
        direct.dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        wire = direct.dispatch(
            PlanRequest(source="source", target="target", spec=digest)
        )
        from repro.serve import envelope

        assert body == envelope(wire)

    def test_repeated_plan_hits_the_warm_fast_path(self, server, video_text):
        digest = register(server, video_text)
        body = {"spec": digest, "source": "source", "target": "target"}
        first = request(server.address, "POST", "/v1/plan", body=body)
        second = request(server.address, "POST", "/v1/plan", body=body)
        assert first[1] == second[1]
        status, stats, _ = request(server.address, "GET", "/v1/stats")
        assert stats["result"]["server"]["fast_hits"] == 1
        # register + two plans
        assert stats["result"]["server"]["served"] == 3

    def test_stats_carry_no_cluster_or_shard_key(self, server, video_text):
        register(server, video_text)
        status, stats, _ = request(server.address, "GET", "/v1/stats")
        assert status == 200
        assert "cluster" not in stats["result"]
        assert "shard" not in stats["result"]["server"]

    def test_plan_batch_streams_ndjson(self, server, video_text):
        digest = register(server, video_text)
        status, raw, headers = request(
            server.address, "POST", "/v1/plan-batch",
            body={
                "spec": digest,
                "pairs": [["source", "target"], ["target", "target"]],
            },
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in raw.decode().splitlines()]
        assert len(lines) == 3
        assert [line["reachable"] for line in lines[:2]] == [True, True]
        assert lines[2]["summary"] == {
            "digest": digest, "requested": 2, "reachable": 2
        }

    def test_verify_paths_round_trip(self, server, property_text):
        digest = register(server, property_text)
        status, body, _ = request(
            server.address, "POST", "/v1/verify-paths",
            body={
                "spec": digest, "source": "source", "target": "target",
                "property": "encoder specified",
            },
        )
        assert status == 200
        assert body["result"]["holds"] is True
        assert body["result"]["property"] == "encoder specified"

    def test_lint_round_trip(self, server, video_text):
        status, body, _ = request(
            server.address, "POST", "/v1/lint",
            body={"manifest": video_text},
        )
        assert status == 200
        assert body["result"]["failed"] is False
        assert body["result"]["summary"]["errors"] == 0

    def test_evict_via_delete(self, server, video_text):
        digest = register(server, video_text)
        status, body, _ = request(
            server.address, "DELETE", f"/v1/specs/{digest}"
        )
        assert status == 200
        assert body["result"]["evicted"] is True
        status, body, _ = request(
            server.address, "POST", "/v1/plan",
            body={"spec": digest, "source": "source", "target": "target"},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown-spec"

    def test_unknown_route_is_not_found(self, server):
        status, body, _ = request(server.address, "GET", "/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "not-found"


class TestGoldenErrorEnvelopes:
    """Exact wire bodies for the documented failure modes."""

    def test_unknown_spec(self, server):
        status, body, _ = request(
            server.address, "POST", "/v1/plan",
            body={"spec": "x", "source": "a", "target": "b"},
        )
        assert status == 404
        assert body == {
            "ok": False,
            "error": {
                "code": "unknown-spec",
                "message": "unknown spec digest 'x'",
            },
        }

    def test_no_safe_path(self, server):
        status, body, _ = request(
            server.address, "POST", "/v1/plan",
            body={
                "manifest": STUCK_MANIFEST,
                "source": "only_a", "target": "only_b",
            },
        )
        assert status == 422
        assert body == {
            "ok": False,
            "error": {
                "code": "no-safe-path",
                "message": "no safe adaptation path from {A} to {B}",
            },
        }

    def test_bad_manifest_never_leaks_a_traceback(self, server):
        status, body, _ = request(
            server.address, "POST", "/v1/specs", body="[components\nbroken"
        )
        assert status == 422
        assert body["error"]["code"] == "bad-manifest"
        assert "Traceback" not in json.dumps(body)

    def test_hostile_trace_line_is_a_typed_422(self, server, video_text):
        status, body, _ = request(
            server.address, "POST", "/v1/trace-check",
            body={"manifest": video_text, "trace": "3\n"},
        )
        assert status == 422
        assert body == {
            "ok": False,
            "error": {
                "code": "bad-trace",
                "message": "malformed trace: line 1: expected a JSON object, "
                           "got a number",
            },
        }

    def test_deadline_exceeded(self, server, video_text):
        status, body, _ = request(
            server.address, "POST", "/v1/plan",
            body={
                "manifest": video_text,
                "source": "source", "target": "target",
            },
            headers={"X-Deadline-Ms": "0"},
        )
        assert status == 504
        assert body == {
            "ok": False,
            "error": {
                "code": "deadline-exceeded",
                "message": "request exceeded its 0 ms deadline",
            },
        }

    def test_unknown_fields_rejected(self, server, video_text):
        status, body, _ = request(
            server.address, "POST", "/v1/plan",
            body={
                "manifest": video_text, "source": "a", "target": "b",
                "frobnicate": 1,
            },
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert "frobnicate" in body["error"]["message"]

    def test_lint_workers_field_is_a_bad_request(self, server, video_text):
        """No client can size an enumeration pool: ``workers`` is not a
        lint field, and HTTP answers the same bytes as the sans-io path."""
        from repro.serve import ErrorEnvelope, LintRequest, to_wire
        from repro.serve.api import RequestDecodeError, lint_request_from_json

        body = {"manifest": video_text, "workers": 2}
        conn = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            conn.request(
                "POST", "/v1/lint", body=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            status, raw = response.status, response.read()
        finally:
            conn.close()
        control = ControlPlane()
        assert control.lint_wire_fast(body) is None
        with pytest.raises(RequestDecodeError) as excinfo:
            lint_request_from_json(body)
        with pytest.raises(TypeError):
            LintRequest(sources=((None, video_text),), workers=2)
        expected = ErrorEnvelope("bad-request", str(excinfo.value))
        assert status == 400
        assert raw == to_wire(expected)
        assert json.loads(raw) == {
            "ok": False,
            "error": {
                "code": "bad-request",
                "message": "unknown request field(s): ['workers']",
            },
        }

    @pytest.mark.parametrize("path, field, value", [
        ("/v1/plan", "method", "dijkstra"),
        ("/v1/verify-paths", "lazy", True),
    ])
    def test_engine_fields_are_bad_requests(
        self, server, property_text, path, field, value
    ):
        """No client can pick the engine (the size cap does), not even on
        a warm spec: the body carrying the removed field gets the typed
        400 that every unknown field gets."""
        digest = register(server, property_text)
        body = {"spec": digest, "source": "source", "target": "target"}
        if path == "/v1/verify-paths":
            body["property"] = "encoder specified"
        for _ in range(2):  # the second answer comes from the wire cache
            status, _, _ = request(server.address, "POST", path, body=body)
            assert status == 200
        status, reply, _ = request(
            server.address, "POST", path, body={**body, field: value}
        )
        assert status == 400
        assert reply == {
            "ok": False,
            "error": {
                "code": "bad-request",
                "message": f"unknown request field(s): ['{field}']",
            },
        }

    def test_invalid_json_body(self, server):
        status, body, _ = request(
            server.address, "POST", "/v1/plan", body="{not json",
        )
        assert status == 400
        assert body["error"]["code"] == "bad-request"


class GatedControl(ControlPlane):
    """Plan dispatches block on a gate; everything else is untouched."""

    def __init__(self, gate):
        super().__init__()
        self.gate = gate

    def dispatch(self, request):
        if isinstance(request, PlanRequest):
            self.gate.wait(timeout=30)
        return super().dispatch(request)


def plan_in_thread(address, video_text, results):
    results.append(
        request(
            address, "POST", "/v1/plan",
            body={
                "manifest": video_text,
                "source": "source", "target": "target",
            },
        )
    )


def wait_for_inflight(address, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, stats, _ = request(address, "GET", "/v1/stats")
        if stats["result"]["server"]["inflight"] >= count:
            return stats
        time.sleep(0.01)
    raise AssertionError(f"never saw {count} in-flight requests")


class TestAdmissionControl:
    def test_over_capacity_returns_429_not_collapse(self, video_text):
        gate = threading.Event()
        control = GatedControl(gate)
        with ServerThread(
            control, host="127.0.0.1", port=0, max_inflight=1, queue_limit=0
        ) as server:
            results = []
            blocked = threading.Thread(
                target=plan_in_thread,
                args=(server.address, video_text, results),
            )
            blocked.start()
            try:
                wait_for_inflight(server.address, 1)
                status, body, _ = request(
                    server.address, "POST", "/v1/plan",
                    body={
                        "manifest": video_text,
                        "source": "source", "target": "target",
                    },
                )
                assert status == 429
                assert body == {
                    "ok": False,
                    "error": {
                        "code": "overloaded",
                        "message": (
                            "server at capacity (1 in flight, 0 queued)"
                        ),
                    },
                }
            finally:
                gate.set()
                blocked.join(timeout=30)
            ((status, body, _),) = results
            assert status == 200 and body["ok"] is True
            _, stats, _ = request(server.address, "GET", "/v1/stats")
            assert stats["result"]["server"]["rejected_overload"] == 1

    def test_shutdown_drains_inflight_requests(self, video_text):
        gate = threading.Event()
        server = ServerThread(
            GatedControl(gate), host="127.0.0.1", port=0, drain_timeout=10
        ).start()
        results = []
        blocked = threading.Thread(
            target=plan_in_thread, args=(server.address, video_text, results)
        )
        blocked.start()
        wait_for_inflight(server.address, 1)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.1)  # let shutdown enter its drain loop
        gate.set()
        blocked.join(timeout=30)
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        ((status, body, _),) = results
        assert status == 200
        assert body["ok"] is True
