"""ControlPlane.dispatch: typed operations, envelopes, CLI parity."""

import io
import json

import pytest

from repro.cli import main
from repro.manifest import loads
from repro.serve import (
    ControlPlane,
    ErrorEnvelope,
    EvictSpecRequest,
    LintRequest,
    PlanBatchRequest,
    PlanRequest,
    RegisterSpecRequest,
    StatsRequest,
    TraceCheckRequest,
    VerifyPathsRequest,
    envelope,
    spec_digest,
    to_json,
    to_wire,
)
from repro.serve.api import (
    RequestDecodeError,
    plan_request_from_json,
    verify_paths_request_from_json,
)
from tests.serve.conftest import STUCK_MANIFEST


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRegisterAndEvict:
    def test_register_returns_the_spec_digest(self, video_text):
        control = ControlPlane()
        result = control.dispatch(RegisterSpecRequest(manifest=video_text))
        manifest = loads(video_text)
        assert result.digest == spec_digest(
            manifest.universe, manifest.invariants, manifest.actions
        )
        assert result.components == 7
        assert result.configurations == ("source", "target")
        assert result.created is True

    def test_register_is_idempotent(self, video_text):
        control = ControlPlane()
        first = control.dispatch(RegisterSpecRequest(manifest=video_text))
        again = control.dispatch(RegisterSpecRequest(manifest=video_text))
        assert again.digest == first.digest
        assert again.created is False

    def test_bad_manifest_is_an_envelope_not_a_traceback(self):
        result = ControlPlane().dispatch(
            RegisterSpecRequest(manifest="[components\nbroken")
        )
        assert isinstance(result, ErrorEnvelope)
        assert result.code == "bad-manifest"
        assert "Traceback" not in result.message

    def test_evict_then_plan_is_unknown_spec(self, video_text):
        control = ControlPlane()
        digest = control.dispatch(
            RegisterSpecRequest(manifest=video_text)
        ).digest
        assert control.dispatch(EvictSpecRequest(spec=digest)).evicted is True
        assert control.dispatch(EvictSpecRequest(spec=digest)).evicted is False
        result = control.dispatch(
            PlanRequest(source="source", target="target", spec=digest)
        )
        assert isinstance(result, ErrorEnvelope)
        assert result.code == "unknown-spec"
        assert digest in result.message


class TestPlan:
    def test_plan_by_digest_equals_plan_by_manifest(self, video_text):
        control = ControlPlane()
        digest = control.dispatch(
            RegisterSpecRequest(manifest=video_text)
        ).digest
        by_digest = control.dispatch(
            PlanRequest(source="source", target="target", spec=digest)
        )
        by_manifest = control.dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        assert by_digest == by_manifest
        assert by_digest.plan.cost == 50.0
        assert by_digest.method == "dijkstra"

    def test_plan_describe_matches_the_planner_rendering(self, video_text):
        control = ControlPlane()
        result = control.dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        manifest = loads(video_text)
        direct = manifest.planner().plan(
            manifest.resolve_configuration("source"),
            manifest.resolve_configuration("target"),
        )
        assert result.plan.describe() == direct.describe()

    def test_unknown_configuration_envelope(self, video_text):
        result = ControlPlane().dispatch(
            PlanRequest(source="nope", target="target", manifest=video_text)
        )
        assert result.code == "unknown-configuration"

    def test_no_safe_path_envelope(self):
        result = ControlPlane().dispatch(
            PlanRequest(source="only_a", target="only_b",
                        manifest=STUCK_MANIFEST)
        )
        assert result.code == "no-safe-path"
        assert result.message == "no safe adaptation path from {A} to {B}"

    def test_unsafe_configuration_envelope(self, video_text):
        result = ControlPlane().dispatch(
            PlanRequest(source="source", target="0000000",
                        manifest=video_text)
        )
        assert result.code == "unsafe-configuration"

    def test_bad_method_and_spec_xor_manifest(self, video_text):
        # no engine is selectable: "method" is not a plan field at all
        with pytest.raises(RequestDecodeError, match=r"\['method'\]"):
            plan_request_from_json(
                {"source": "a", "target": "b", "manifest": video_text,
                 "method": "magic"}
            )
        control = ControlPlane()
        assert control.dispatch(
            PlanRequest(source="a", target="b")
        ).code == "bad-request"
        assert control.dispatch(
            PlanRequest(source="a", target="b", spec="x",
                        manifest=video_text)
        ).code == "bad-request"

    def test_alternates(self, video_text):
        result = ControlPlane().dispatch(
            PlanRequest(source="source", target="target",
                        manifest=video_text, k=3)
        )
        assert len(result.alternates) == 3
        assert result.alternates[0][1] == 50.0
        costs = [cost for _, cost in result.alternates]
        assert costs == sorted(costs)

    def test_internal_errors_carry_type_and_message_only(self, video_text):
        control = ControlPlane()

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        control.service.plan_digest = boom
        result = control.dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        assert result.code == "internal"
        assert result.message == "RuntimeError: boom"


class TestPlanBatch:
    def test_batch_preserves_order_and_counts(self, video_text):
        result = ControlPlane().dispatch(
            PlanBatchRequest(
                pairs=(("source", "target"), ("target", "target")),
                manifest=video_text,
            )
        )
        assert [item.reachable for item in result.results] == [True, True]
        assert result.results[0].cost == 50.0
        assert result.results[1].actions == ()
        assert result.reachable == 2

    def test_batch_stream_matches_batch_dispatch(self, video_text):
        control = ControlPlane()
        request = PlanBatchRequest(
            pairs=(("source", "target"), ("target", "source")),
            manifest=video_text,
        )
        batch = control.dispatch(request)
        lines = list(control.plan_batch_stream(request))
        assert lines[:-1] == [item.payload() for item in batch.results]
        assert lines[-1]["summary"]["reachable"] == batch.reachable

    def test_batch_stream_reports_fatal_errors(self):
        control = ControlPlane()
        lines = list(
            control.plan_batch_stream(
                PlanBatchRequest(pairs=(("a", "b"),), spec="nope")
            )
        )
        assert lines == [
            {"error": {"code": "unknown-spec",
                       "message": "unknown spec digest 'nope'"}}
        ]


class TestVerifyPaths:
    def test_named_property_holds(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target",
                property_name="encoder specified", manifest=property_text,
            )
        )
        assert result.holds is True
        assert result.mode == "eager"

    def test_inline_formula(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target",
                formula="historically({one_of(E1, E2)})",
                manifest=property_text,
            )
        )
        assert result.holds is True
        assert result.property_name is None

    def test_violated_property_carries_a_counterexample(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target", property_name="no_e2",
                manifest=property_text,
            )
        )
        assert result.holds is False
        assert result.counterexample is not None
        assert result.violation_index is not None

    def test_unknown_property_envelope(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target", property_name="nope",
                manifest=property_text,
            )
        )
        assert result.code == "unknown-property"
        assert "known:" in result.message

    def test_bad_formula_envelope(self, property_text):
        result = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target", formula="historically(",
                manifest=property_text,
            )
        )
        assert result.code == "bad-property"


class TestLint:
    def test_lint_rendering_matches_direct_render(self, video_text):
        from repro.lint import lint_text, render_json

        result = ControlPlane().dispatch(
            LintRequest(sources=((None, video_text),), format="json")
        )
        report = lint_text(video_text)
        report.sort()
        assert result.rendered == render_json(report)
        assert result.failed is False

    def test_lint_failure_gate(self):
        result = ControlPlane().dispatch(
            LintRequest(sources=((None, "[components]\n"),))
        )
        assert result.failed is True
        assert result.summary["errors"] >= 1


GOOD_RECORD = (
    '{"action": "a", "cid": 1, "component": "", "process": "", '
    '"time": 1.0, "type": "CommRecord"}\n'
)

#: hostile second lines and the decoder's typed complaint about each
SHAPE_ERRORS = [
    ("3", "line 2: expected a JSON object, got a number"),
    ("[1, 2]", "line 2: expected a JSON object, got an array"),
    ('{"type": "CommRecord", "time": 1.0, "action": "a"}',
     "line 2: CommRecord record missing required field(s) 'cid'"),
    ('{"type": "ConfigCommitted", "time": 2.0, "configuration": 5, '
     '"step_id": "initial", "action_id": ""}',
     "line 2: ConfigCommitted field 'configuration' must be a JSON array "
     "of strings, got a number"),
]


class TestTraceCheck:
    def _trace_text(self, video_path, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "simulate", video_path, "--from", "source", "--to", "target",
            "--save-trace", str(trace),
        )
        assert code == 0
        return trace.read_text(encoding="utf-8")

    def test_inline_trace_check(self, video_path, property_text, tmp_path):
        text = self._trace_text(video_path, tmp_path)
        result = ControlPlane().dispatch(
            TraceCheckRequest(trace=text, ltl="encoder specified",
                              manifest=property_text)
        )
        assert result.ok is True
        assert result.safety_ok is True
        assert result.commits == 6
        assert result.property_check.holds is True

    def test_malformed_trace_envelope(self, property_text):
        result = ControlPlane().dispatch(
            TraceCheckRequest(trace="not json\n", manifest=property_text)
        )
        assert result.code == "bad-trace"
        assert result.message.startswith("malformed trace")

    @pytest.mark.parametrize("line, detail", SHAPE_ERRORS)
    def test_shape_errors_are_bad_trace(self, property_text, line, detail):
        result = ControlPlane().dispatch(
            TraceCheckRequest(trace=GOOD_RECORD + line + "\n",
                              manifest=property_text)
        )
        assert isinstance(result, ErrorEnvelope)
        assert (result.code, result.message) == (
            "bad-trace", f"malformed trace: {detail}"
        )

    @pytest.mark.parametrize("line, detail", SHAPE_ERRORS)
    def test_cli_reports_shape_errors(
        self, property_path, tmp_path, capsys, line, detail
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD_RECORD + line + "\n", encoding="utf-8")
        code, output = run_cli(
            "trace", "check", str(path), "--manifest", property_path
        )
        assert (code, output) == (2, "")
        assert capsys.readouterr().err == (
            f"error: malformed trace file {path}: {detail}\n"
        )


class TestRemovedEngineFields:
    """The size cap picks the engine; no request can pick one."""

    def test_plan_method_is_rejected(self, video_text):
        control = ControlPlane()
        warm = {"source": "source", "target": "target", "manifest": video_text}
        result = control.dispatch(plan_request_from_json(warm))
        assert result.method == "dijkstra"
        body = {"spec": result.digest, "source": "source", "target": "target"}
        control.plan_wire_store(body, result, to_wire(result))
        assert control.plan_wire_fast(body) == to_wire(result)
        # the warm wire cache never answers a body that names an engine
        assert control.plan_wire_fast({**body, "method": "dijkstra"}) is None
        with pytest.raises(RequestDecodeError) as excinfo:
            plan_request_from_json({**body, "method": "dijkstra"})
        assert str(excinfo.value) == "unknown request field(s): ['method']"
        with pytest.raises(TypeError):
            PlanRequest(source="source", target="target", method="dijkstra")

    def test_verify_paths_lazy_is_rejected(self, property_text):
        body = {"source": "source", "target": "target",
                "property": "encoder specified", "manifest": property_text}
        assert verify_paths_request_from_json(body).source == "source"
        with pytest.raises(RequestDecodeError) as excinfo:
            verify_paths_request_from_json({**body, "lazy": True})
        assert str(excinfo.value) == "unknown request field(s): ['lazy']"
        with pytest.raises(TypeError):
            VerifyPathsRequest(source="source", target="target", lazy=True)


class TestStats:
    def test_stats_reflect_traffic(self, video_text):
        control = ControlPlane()
        request = PlanRequest(source="source", target="target",
                              manifest=video_text)
        control.dispatch(request)
        control.dispatch(request)
        stats = control.dispatch(StatsRequest())
        assert stats.service["specs"] == 1
        assert stats.service["cold_plans"] == 1
        assert stats.service["warm_hits"] == 1
        (spec,) = stats.specs
        assert spec["configurations"] == ["source", "target"]
        assert "owned" not in spec


class TestCLIDispatchParity:
    """Acceptance pin: CLI JSON output is a dispatch call, byte for byte."""

    def test_plan_json_equals_direct_dispatch(self, video_path, video_text):
        code, output = run_cli(
            "plan", video_path, "--from", "source", "--to", "target", "--json"
        )
        assert code == 0
        direct = ControlPlane().dispatch(
            PlanRequest(source="source", target="target",
                        manifest=video_text, k=1)
        )
        assert output == to_json(direct) + "\n"

    def test_plan_json_error_parity(self, video_path, video_text):
        code, output = run_cli(
            "plan", video_path, "--from", "source", "--to", "nope", "--json"
        )
        assert code == 2
        direct = ControlPlane().dispatch(
            PlanRequest(source="source", target="nope", manifest=video_text)
        )
        assert isinstance(direct, ErrorEnvelope)
        assert output == to_json(direct) + "\n"

    def test_verify_paths_json_equals_direct_dispatch(
        self, property_path, property_text
    ):
        code, output = run_cli(
            "verify-paths", property_path, "--from", "source", "--to",
            "target", "--property", "encoder specified", "--json",
        )
        assert code == 0
        direct = ControlPlane().dispatch(
            VerifyPathsRequest(
                source="source", target="target",
                property_name="encoder specified", manifest=property_text,
            )
        )
        assert output == to_json(direct) + "\n"

    def test_trace_check_json_equals_direct_dispatch(
        self, video_path, property_path, property_text, tmp_path
    ):
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "simulate", video_path, "--from", "source", "--to", "target",
            "--save-trace", str(trace),
        )
        assert code == 0
        code, output = run_cli(
            "trace", "check", str(trace), "--manifest", property_path,
            "--ltl", "encoder specified", "--json",
        )
        assert code == 0
        direct = ControlPlane().dispatch(
            TraceCheckRequest(trace_path=str(trace), ltl="encoder specified",
                              manifest=property_text)
        )
        assert output == to_json(direct) + "\n"

    def test_wire_bytes_are_the_compact_envelope(self, video_text):
        response = ControlPlane().dispatch(
            PlanRequest(source="source", target="target", manifest=video_text)
        )
        assert json.loads(to_wire(response)) == envelope(response)
        assert json.loads(to_json(response)) == envelope(response)
