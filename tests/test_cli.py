"""Tests for the command-line interface."""

import io
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.core.planner import AdaptationPlanner
from repro.manifest import loads, video_manifest_text


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "video.manifest"
    path.write_text(video_manifest_text(), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheck:
    def test_valid_manifest(self, manifest_path):
        code, output = run_cli("check", manifest_path)
        assert code == 0
        assert "components: 7" in output
        assert "safe configurations: 8" in output
        assert "configuration source = {D1,D4,E1}: safe" in output

    def test_missing_file(self):
        code, _ = run_cli("check", "/nonexistent/x.manifest")
        assert code == 2

    def test_malformed_manifest(self, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("[components]\n", encoding="utf-8")
        code, _ = run_cli("check", str(bad))
        assert code == 2


class TestSafeConfigs:
    def test_prints_table1(self, manifest_path):
        code, output = run_cli("safe-configs", manifest_path)
        assert code == 0
        assert "0100101" in output and "1010010" in output
        assert output.count("\n") >= 9  # header + rule + 8 rows


class TestPlan:
    def test_map(self, manifest_path):
        code, output = run_cli(
            "plan", manifest_path, "--from", "source", "--to", "target"
        )
        assert code == 0
        assert "cost 50" in output

    def test_bits_and_members_accepted(self, manifest_path):
        code, output = run_cli(
            "plan", manifest_path, "--from", "0100101", "--to", "D3, D5, E2"
        )
        assert code == 0
        assert "cost 50" in output

    def test_k_best(self, manifest_path):
        code, output = run_cli(
            "plan", manifest_path, "--from", "source", "--to", "target", "--k", "3"
        )
        assert code == 0
        assert "3 best plans" in output

    def test_unsafe_endpoint_is_an_error(self, manifest_path):
        code, _ = run_cli(
            "plan", manifest_path, "--from", "E1", "--to", "target"
        )
        assert code == 2


class TestSag:
    def test_dot_output(self, manifest_path):
        code, output = run_cli("sag", manifest_path)
        assert code == 0
        assert output.startswith("digraph SAG")
        assert "n0100101" in output
        assert 'label="A17 (10)"' in output

    def test_highlighted_map(self, manifest_path):
        code, output = run_cli(
            "sag", manifest_path, "--highlight-map",
            "--from", "source", "--to", "target",
        )
        assert code == 0
        assert "color=red" in output

    def test_highlight_requires_endpoints(self, manifest_path):
        code, _ = run_cli("sag", manifest_path, "--highlight-map")
        assert code == 2


class TestSimulate:
    def test_clean_run(self, manifest_path):
        code, output = run_cli(
            "simulate", manifest_path, "--from", "source", "--to", "target"
        )
        assert code == 0
        assert "outcome: complete" in output
        assert "SAFE" in output

    def test_lossy_run_still_safe(self, manifest_path):
        code, output = run_cli(
            "simulate", manifest_path, "--from", "source", "--to", "target",
            "--loss", "0.15", "--seed", "3",
        )
        assert "SAFE" in output

    @pytest.mark.parametrize("backend", ("live",))
    def test_alternate_backends(self, manifest_path, backend):
        code, output = run_cli(
            "simulate", manifest_path, "--from", "source", "--to", "target",
            "--backend", backend, "--time-scale", "0.0005",
        )
        assert code == 0
        assert f"backend: {backend}" in output
        assert "outcome: complete" in output
        assert "SAFE" in output

    def test_loss_requires_sim_backend(self, manifest_path):
        code, _ = run_cli(
            "simulate", manifest_path, "--from", "source", "--to", "target",
            "--backend", "live", "--loss", "0.1",
        )
        assert code == 2

    def test_asyncio_backend_is_gone(self, manifest_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "simulate", manifest_path, "--from", "source", "--to", "target",
                "--backend", "aio",
            )
        assert exc.value.code == 2
        assert "invalid choice: 'aio'" in capsys.readouterr().err

    def test_save_trace_then_offline_check(self, manifest_path, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        code, output = run_cli(
            "simulate", manifest_path, "--from", "source", "--to", "target",
            "--save-trace", str(trace_file),
        )
        assert code == 0
        assert trace_file.exists()
        code, output = run_cli(
            "trace", "check", str(trace_file), "--manifest", manifest_path
        )
        assert code == 0
        assert "SAFE" in output
        assert "committed configurations: 6" in output

    def test_timeline_rendering(self, manifest_path):
        code, output = run_cli(
            "simulate", manifest_path, "--from", "source", "--to", "target",
            "--timeline",
        )
        assert code == 0
        assert "commits" in output
        assert "in-action A2" in output
        assert "handheld" in output


class TestTraceCheck:
    def test_malformed_trace_is_an_error(self, manifest_path, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "Martian", "time": 0.0}\n', encoding="utf-8")
        code, _ = run_cli("trace", "check", str(bad), "--manifest", manifest_path)
        assert code == 2

    def test_unsafe_trace_fails(self, manifest_path, tmp_path):
        unsafe = tmp_path / "unsafe.jsonl"
        # A committed configuration with no decoder for encoder E1.
        unsafe.write_text(
            '{"type": "ConfigCommitted", "time": 0.0, "configuration": ["E1"]}\n',
            encoding="utf-8",
        )
        code, output = run_cli(
            "trace", "check", str(unsafe), "--manifest", manifest_path
        )
        assert code == 1
        assert "UNSAFE" in output


class TestLint:
    FIXTURE = "tests/lint/fixtures/defective.manifest"

    def test_defective_fixture_fails_gate(self):
        code, output = run_cli("lint", self.FIXTURE, "--fail-on", "error")
        assert code == 1
        assert "SA105" in output and "SA403" in output

    def test_examples_pass_error_gate(self):
        code, output = run_cli(
            "lint", "examples/video.manifest", "examples/pipeline.manifest",
            "--fail-on", "error",
        )
        assert code == 0
        assert "0 error(s)" in output

    def test_fail_on_note_tightens_gate(self):
        code, _ = run_cli(
            "lint", "examples/pipeline.manifest", "--fail-on", "note"
        )
        assert code == 1

    def test_json_format(self):
        code, output = run_cli("lint", self.FIXTURE, "--format", "json")
        assert code == 1
        payload = json.loads(output)
        assert payload["summary"]["errors"] > 0

    def test_sarif_format(self):
        code, output = run_cli("lint", self.FIXTURE, "--format", "sarif")
        assert code == 1
        assert json.loads(output)["version"] == "2.1.0"

    def test_missing_file(self):
        code, _ = run_cli("lint", "/nonexistent/x.manifest")
        assert code == 2

    def test_multiple_files_merge(self):
        code, output = run_cli(
            "lint", self.FIXTURE, "examples/pipeline.manifest"
        )
        assert code == 1
        assert "defective.manifest" in output
        assert "pipeline.manifest" in output

    # examples/racing.manifest has warnings (SA601/SA603) and notes
    # (SA403) but no errors — each --fail-on level flips the gate
    # exactly where the documented exit-code contract says it should.
    @pytest.mark.parametrize(
        "fail_on, expected",
        [("error", 0), ("warning", 1), ("note", 1)],
    )
    def test_fail_on_matrix_racing(self, fail_on, expected):
        code, output = run_cli(
            "lint", "examples/racing.manifest", "--fail-on", fail_on
        )
        assert code == expected
        assert "SA601" in output and "SA603" in output
        assert "0 error(s), 3 warning(s), 5 note(s)" in output

    @pytest.mark.parametrize("fail_on", ["error", "warning", "note"])
    def test_fail_on_matrix_defective(self, fail_on):
        # errors trip the gate at every threshold
        code, output = run_cli(
            "lint", self.FIXTURE, "--fail-on", fail_on
        )
        assert code == 1
        assert "error:" in output

    @pytest.mark.parametrize("fail_on", ["error", "warning", "note"])
    def test_fail_on_matrix_clean(self, tmp_path, fail_on):
        clean = tmp_path / "clean.manifest"
        clean.write_text(
            "[components]\nB1 @ p1\nB2 @ p1\n"
            "[invariants]\nexclusive : one_of(B1, B2)\n"
            "[actions]\nswap : B1 -> B2 @ 1\nunswap : B2 -> B1 @ 1\n"
            "[configurations]\nstart = B1\ngoal = B2\n",
            encoding="utf-8",
        )
        code, output = run_cli(
            "lint", str(clean), "--fail-on", fail_on
        )
        assert code == 0
        assert "clean: 0 diagnostics" in output

    def test_check_reports_all_shape_errors_at_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.manifest"
        bad.write_text(
            "[components]\nA\nA\n\n[invariants]\nghost : B\n",
            encoding="utf-8",
        )
        code, _ = run_cli("check", str(bad))
        assert code == 2
        stderr = capsys.readouterr().err
        assert "SA105" in stderr and "SA101" in stderr


class TestLintFix:
    RACY = (
        "[components]\nFW @ edge\nCA @ core\n"
        "[invariants]\nguarded : CA -> FW\n"
        "[actions]\ndrop_fw : -FW @ 5\ndrop_cache : -CA @ 5\n"
        "[configurations]\nbaseline = FW, CA\n"
    )

    @pytest.fixture
    def racy_path(self, tmp_path):
        path = tmp_path / "racy.manifest"
        path.write_text(self.RACY, encoding="utf-8")
        return str(path)

    def test_fix_rewrites_the_file_and_clears_the_gate(self, racy_path):
        code, _ = run_cli("lint", racy_path, "--fail-on", "warning")
        assert code == 1
        code, output = run_cli(
            "lint", racy_path, "--fix", "--fail-on", "warning"
        )
        assert code == 0
        assert "1 fix(es) applied" in output
        text = open(racy_path, encoding="utf-8").read()
        assert "[conflicts]" in text

    def test_fix_is_idempotent(self, racy_path):
        run_cli("lint", racy_path, "--fix")
        after_first = open(racy_path, encoding="utf-8").read()
        code, output = run_cli("lint", racy_path, "--fix")
        assert "0 fix(es) applied" in output
        assert open(racy_path, encoding="utf-8").read() == after_first

    def test_diff_prints_the_rewrite(self, racy_path):
        code, output = run_cli("lint", racy_path, "--fix", "--diff")
        assert f"--- {racy_path}" in output
        assert "+[conflicts]" in output
        assert "+drop_cache_drop_fw : drop_cache drop_fw" in output

    def test_diff_requires_fix(self, racy_path):
        code, _ = run_cli("lint", racy_path, "--diff")
        assert code == 2

    def test_clean_files_are_left_untouched(self, tmp_path):
        path = tmp_path / "clean.manifest"
        original = (
            "[components]\nA @ p1\nB @ p1\n"
            "[actions]\nswap : A -> B @ 1\nunswap : B -> A @ 1\n"
            "[configurations]\nstart = A\n"
        )
        path.write_text(original, encoding="utf-8")
        code, output = run_cli("lint", str(path), "--fix", "--diff")
        assert code == 0
        assert "0 fix(es) applied" in output
        assert open(path, encoding="utf-8").read() == original


def test_fix_output_is_independent_of_the_hash_seed(tmp_path):
    """``--fix`` appends tied end-of-file edits in diagnostic order, so the
    rewritten file is byte-identical under every ``PYTHONHASHSEED``."""
    import os
    import shutil
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    fixed = {}
    for seed in ("0", "1"):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        for name in ("racing.manifest", "video.manifest"):
            shutil.copy(root / "examples" / name, work / name)
            subprocess.run(
                [sys.executable, "-m", "repro", "lint", "--fix", str(work / name)],
                env=env, check=True, capture_output=True,
            )
        fixed[seed] = {
            path.name: path.read_bytes() for path in sorted(work.iterdir())
        }
    assert fixed["0"] == fixed["1"]
    assert b"[conflicts]" in fixed["0"]["racing.manifest"]


class TestExampleManifest:
    def test_round_trips_through_check(self, tmp_path):
        code, text = run_cli("example-manifest")
        assert code == 0
        path = tmp_path / "emitted.manifest"
        path.write_text(text, encoding="utf-8")
        code, output = run_cli("check", str(path))
        assert code == 0
        assert "safe configurations: 8" in output


class TestServe:
    def test_workers_flag_is_an_argparse_error(self, monkeypatch, capsys):
        started = []
        monkeypatch.setattr(
            "repro.serve.http.run_server",
            lambda *args, **kwargs: started.append(kwargs) or 0,
        )
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--workers", "2"])
        assert exc.value.code == 2
        assert started == []
        assert "--workers" in capsys.readouterr().err


def above_cap():
    """Route every planner as if its spec exceeded the enumeration cap."""
    return mock.patch.object(AdaptationPlanner, "oversized", True)


class TestLazyPlanCLI:
    """The engine follows the spec's size: lazy routing above the cap."""

    @pytest.fixture
    def fleet_path(self):
        return str(Path(__file__).parent.parent / "examples" / "fleet30.manifest")

    def test_lazy_flag_matches_dijkstra(self, manifest_path):
        with above_cap():
            code, lazy_out = run_cli(
                "plan", manifest_path, "--from", "source", "--to", "target"
            )
        assert code == 0
        _, eager_out = run_cli(
            "plan", manifest_path, "--from", "source", "--to", "target"
        )
        assert lazy_out == eager_out  # identical plan, identical rendering
        assert "cost 50" in lazy_out

    @pytest.mark.parametrize("argv", [
        ("plan", "--method", "dijkstra"),
        ("plan", "--lazy"),
        ("verify-paths", "--property", "p", "--lazy"),
    ], ids=["plan --method", "plan --lazy", "verify-paths --lazy"])
    def test_engine_flags_are_argparse_errors(self, manifest_path, capsys, argv):
        command, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, manifest_path, "--from", "source", "--to", "target",
                  *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_oversized_manifest_routes_to_lazy_automatically(self, fleet_path):
        code, output = run_cli(
            "plan", fleet_path, "--from", "baseline", "--to", "canary"
        )
        assert code == 0
        assert "cost 25, 2 steps" in output

    def test_oversized_answers_k_best(self, fleet_path):
        code, output = run_cli(
            "plan", fleet_path, "--from", "baseline", "--to", "canary",
            "--k", "3", "--json",
        )
        assert code == 0
        result = json.loads(output)["result"]
        assert result["method"] == "lazy"
        manifest = loads(Path(fleet_path).read_text(encoding="utf-8"))
        planner = AdaptationPlanner(
            manifest.universe, manifest.invariants, manifest.actions
        )
        expected, complete = planner.lazy_plan_k(
            manifest.resolve_configuration("baseline"),
            manifest.resolve_configuration("canary"),
            3,
            max_expansions=None,
        )
        assert complete
        assert len(expected) == 3
        assert result["alternates"] == [
            {"actions": list(plan.action_ids), "cost": plan.total_cost}
            for plan in expected
        ]

    def test_lazy_reports_unreachable(self, manifest_path, capsys):
        # the one-way video SAG: target cannot reach source
        with above_cap():
            code, _ = run_cli(
                "plan", manifest_path, "--from", "target", "--to", "source"
            )
        assert code == 2
        assert "no safe adaptation path" in capsys.readouterr().err

    def test_oversized_manifest_lints_clean(self, fleet_path):
        code, output = run_cli("lint", fleet_path, "--fail-on", "error")
        assert code == 0
        assert "SA307" in output


PROPERTIES_SECTION = """
[properties]
encoder specified : historically({one_of(E1, E2)})
no_e2 : historically(!E2)
"""


@pytest.fixture
def property_manifest(tmp_path):
    path = tmp_path / "props.manifest"
    path.write_text(video_manifest_text() + PROPERTIES_SECTION, encoding="utf-8")
    return str(path)


class TestVerifyPaths:
    def test_holding_property_exits_zero(self, property_manifest):
        code, output = run_cli(
            "verify-paths", property_manifest, "--from", "source", "--to", "target",
            "--property", "encoder specified",
        )
        assert code == 0
        assert "HOLDS" in output
        assert "eager enumeration" in output

    def test_violated_property_exits_one_with_counterexample(
        self, property_manifest
    ):
        code, output = run_cli(
            "verify-paths", property_manifest, "--from", "source", "--to", "target",
            "--property", "no_e2",
        )
        assert code == 1
        assert "VIOLATED" in output
        assert "counterexample (minimized to the first violating prefix)" in output

    def test_exists_quantifier(self, property_manifest):
        code, output = run_cli(
            "verify-paths", property_manifest, "--from", "source", "--to", "target",
            "--property", "encoder specified", "--quantifier", "exists",
        )
        assert code == 0
        assert "HOLDS" in output

    def test_lazy_budget_exhaustion_exits_three(self):
        code, output = run_cli(
            "verify-paths", "examples/fleet30.manifest",
            "--from", "baseline", "--to", "canary",
            "--property", "service0 specified", "--max-expansions", "1",
        )
        assert code == 3
        assert "INCONCLUSIVE" in output

    def test_budget_is_ignored_below_the_cap(self, property_manifest):
        code, output = run_cli(
            "verify-paths", property_manifest, "--from", "source", "--to", "target",
            "--property", "encoder specified", "--max-expansions", "1",
        )
        assert code == 0
        assert "eager enumeration" in output

    def test_unknown_property_is_an_error(self, property_manifest):
        code, _ = run_cli(
            "verify-paths", property_manifest, "--from", "source", "--to", "target",
            "--property", "nope",
        )
        assert code == 2

    def test_bad_k_is_an_error(self, property_manifest):
        code, _ = run_cli(
            "verify-paths", property_manifest, "--from", "source", "--to", "target",
            "--property", "no_e2", "--k", "0",
        )
        assert code == 2


class TestTraceCheckLtl:
    @pytest.fixture
    def trace_file(self, property_manifest, tmp_path):
        path = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "simulate", property_manifest, "--from", "source", "--to", "target",
            "--save-trace", str(path),
        )
        assert code == 0
        return str(path)

    def test_holding_property(self, property_manifest, trace_file):
        code, output = run_cli(
            "trace", "check", trace_file, "--manifest", property_manifest,
            "--ltl", "encoder specified",
        )
        assert code == 0
        assert "property verdict: HOLDS" in output

    def test_violated_property_names_the_commit(
        self, property_manifest, trace_file
    ):
        code, output = run_cli(
            "trace", "check", trace_file, "--manifest", property_manifest,
            "--ltl", "no_e2",
        )
        assert code == 1
        assert "property verdict: VIOLATED at commit" in output

    def test_stream_flag_is_an_argparse_error(
        self, property_manifest, trace_file, capsys
    ):
        """Trace checks always stream; the flag that claimed to choose
        it selected nothing and is gone."""
        with pytest.raises(SystemExit) as exc:
            main(["trace", "check", trace_file, "--manifest", property_manifest,
                  "--ltl", "no_e2", "--stream"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --stream" in capsys.readouterr().err

    def test_unknown_property_is_an_error(self, property_manifest, trace_file):
        code, _ = run_cli(
            "trace", "check", trace_file, "--manifest", property_manifest,
            "--ltl", "nope",
        )
        assert code == 2
