"""Warm lint serving: the body-keyed ``/v1/lint`` wire cache.

Lint is deterministic and reads nothing but the request body, so a
repeated body can be answered from precomputed bytes.  The cache holds
no spec state: storing an answer registers nothing, and registering or
evicting specs leaves cached answers as they are.
"""

import pytest

import repro.serve.control as control_module
from repro.serve import (
    ControlPlane,
    ErrorEnvelope,
    EvictSpecRequest,
    ServerThread,
    StatsRequest,
    to_wire,
)
from repro.serve.api import lint_request_from_json
from repro.serve.service import LINT_CACHE_BYTES
from tests.serve.test_http import register, request


@pytest.fixture
def server():
    with ServerThread(ControlPlane(), host="127.0.0.1", port=0) as thread:
        yield thread


class TestLintWireCache:
    """Sans-io semantics of lint_wire_fast / lint_wire_store."""

    def _store(self, control, payload):
        response = control.dispatch(lint_request_from_json(payload))
        wire = to_wire(response)
        control.lint_wire_store(payload, response, wire)
        return wire

    def test_store_then_fast_returns_the_same_bytes(self, video_text):
        control = ControlPlane()
        payload = {"manifest": video_text}
        wire = self._store(control, payload)
        assert control.lint_wire_fast(payload) == wire
        assert control.dispatch(StatsRequest()).service["lint_hits"] == 1

    def test_cold_body_misses(self, video_text):
        control = ControlPlane()
        assert control.lint_wire_fast({"manifest": video_text}) is None

    def test_different_render_formats_cache_separately(self, video_text):
        control = ControlPlane()
        text = self._store(control, {"manifest": video_text})
        sarif = self._store(
            control, {"manifest": video_text, "format": "sarif"}
        )
        assert text != sarif
        assert control.lint_wire_fast({"manifest": video_text}) == text
        assert (
            control.lint_wire_fast(
                {"manifest": video_text, "format": "sarif"}
            )
            == sarif
        )

    def test_store_registers_nothing(self, video_text, fleet_text):
        control = ControlPlane()
        self._store(control, {"manifest": video_text})
        self._store(
            control,
            {"sources": [{"path": "fleet30.manifest", "text": fleet_text}]},
        )
        stats = control.dispatch(StatsRequest())
        assert stats.service["specs"] == 0
        assert stats.specs == ()

    def test_defective_sources_cache_like_any_body(self):
        control = ControlPlane()
        payload = {"manifest": "[components]\nA @ p1\nA @ p1\n"}
        wire = self._store(control, payload)
        assert control.lint_wire_fast(payload) == wire

    def test_cached_answer_survives_spec_eviction(self, video_text):
        control = ControlPlane()
        payload = {"manifest": video_text}
        wire = self._store(control, payload)
        digest = control.registry.register(video_text)[0].digest
        assert control.dispatch(EvictSpecRequest(spec=digest)).evicted
        # the answer is a function of the body alone: same bytes, a hit
        assert control.lint_wire_fast(payload) == wire
        assert control.dispatch(StatsRequest()).service["lint_hits"] == 1

    def test_error_envelopes_are_never_cached(self, video_text):
        control = ControlPlane()
        payload = {"manifest": video_text, "format": "nope"}
        response = control.dispatch(lint_request_from_json(payload))
        assert isinstance(response, ErrorEnvelope)
        control.lint_wire_store(payload, response, to_wire(response))
        assert control.lint_wire_fast(payload) is None

    def test_unknown_fields_are_uncacheable(self, video_text):
        control = ControlPlane()
        payload = {"manifest": video_text, "surprise": 1}
        response = control.dispatch(
            lint_request_from_json({"manifest": video_text})
        )
        control.lint_wire_store(payload, response, to_wire(response))
        assert control.lint_wire_fast(payload) is None


class TestLintCacheBound:
    """The lint cache holds at most LINT_CACHE_BYTES, oldest answers
    leaving first, so the recent bodies a client repeats still hit."""

    @staticmethod
    def _held(control):
        return sum(len(key) + len(wire) for key, wire in control._lint_cache.items())

    def test_many_large_answers_stay_under_the_byte_bound(self, video_text):
        control = ControlPlane()
        response = control.dispatch(lint_request_from_json({"manifest": video_text}))
        # one shared bytes object: the test itself holds ~1.6 MB
        wire = b"x" * (LINT_CACHE_BYTES // 20)
        payloads = [
            {"manifest": video_text, "max_enum_components": index}
            for index in range(60)
        ]
        for payload in payloads:
            control.lint_wire_store(payload, response, wire)
            assert control._lint_bytes == self._held(control) <= LINT_CACHE_BYTES
        for payload in payloads[-16:]:
            assert control.lint_wire_fast(payload) == wire
        assert control.lint_wire_fast(payloads[0]) is None

    def test_storing_a_body_again_counts_its_bytes_once(self, video_text):
        control = ControlPlane()
        payload = {"manifest": video_text}
        response = control.dispatch(lint_request_from_json(payload))
        for _ in range(3):
            control.lint_wire_store(payload, response, to_wire(response))
        assert len(control._lint_cache) == 1
        assert control._lint_bytes == self._held(control)

    def test_an_answer_above_the_bound_is_not_kept(self, video_text):
        control = ControlPlane()
        payload = {"manifest": video_text}
        response = control.dispatch(lint_request_from_json(payload))
        control.lint_wire_store({"manifest": "small"}, response, b"answer")
        control.lint_wire_store(payload, response, b"x" * LINT_CACHE_BYTES)
        assert control.lint_wire_fast(payload) is None
        # nothing was evicted to make room for it
        assert control.lint_wire_fast({"manifest": "small"}) == b"answer"

    def test_the_body_count_bound_drops_the_oldest(self, video_text, monkeypatch):
        monkeypatch.setattr(control_module, "WIRE_CACHE_LIMIT", 4)
        control = ControlPlane()
        response = control.dispatch(lint_request_from_json({"manifest": video_text}))
        payloads = [{"manifest": f"body {index}"} for index in range(6)]
        for payload in payloads:
            control.lint_wire_store(payload, response, b"answer")
        assert [control.lint_wire_fast(p) for p in payloads] == [
            None, None, b"answer", b"answer", b"answer", b"answer"
        ]
        assert control._lint_bytes == self._held(control)


class TestWarmLintOverHttp:
    def test_repeated_lint_hits_the_fast_path(self, server, video_text):
        body = {"manifest": video_text}
        first = request(server.address, "POST", "/v1/lint", body=body)
        second = request(server.address, "POST", "/v1/lint", body=body)
        assert first[0] == second[0] == 200
        assert first[1] == second[1]
        _, stats, _ = request(server.address, "GET", "/v1/stats")
        assert stats["result"]["server"]["fast_hits"] == 1
        assert stats["result"]["service"]["lint_hits"] == 1
        assert stats["result"]["server"]["served"] == 2

    def test_cached_lint_survives_delete_spec(self, server, video_text):
        digest = register(server, video_text)
        body = {"manifest": video_text}
        first = request(server.address, "POST", "/v1/lint", body=body)
        request(server.address, "DELETE", f"/v1/specs/{digest}")
        again = request(server.address, "POST", "/v1/lint", body=body)
        assert first[0] == again[0] == 200
        assert again[1] == first[1]
        _, stats, _ = request(server.address, "GET", "/v1/stats")
        # the re-lint after eviction was a hit on the body-keyed cache
        assert stats["result"]["service"]["lint_hits"] == 1
        assert stats["result"]["server"]["fast_hits"] == 1
        assert stats["result"]["service"]["specs"] == 0
