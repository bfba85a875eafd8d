"""The benchmark's own tests (``python3 -m pytest perfbench``).

* a tiny run of every workload prints the result schema with every metric
  ``BENCHMARK.json`` names, untraced and traced;
* the answer checker flags deliberately corrupted responses;
* timings are scaled by the host speed in effect when they were taken;
* without the program's sources the benchmark fails fast, printing no result.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_smoke_schema(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-2000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_are_deterministic_in_the_seed():
    a, b = workloads.build("plan-churn", 3), workloads.build("plan-churn", 3)
    assert [[op.key for op in unit] for unit in a.units[:200]] == \
        [[op.key for op in unit] for unit in b.units[:200]]
    c = workloads.build("plan-churn", 4)
    assert [s.text() for s in a.specs.values()] != [s.text() for s in c.specs.values()]


def _served(spec, request):
    """Answer *request* through the real control plane, as wire bytes."""
    from repro.serve import ControlPlane, RegisterSpecRequest, to_wire
    from repro.serve import api

    control = ControlPlane()
    digest = control.dispatch(RegisterSpecRequest(spec.text())).digest
    body = dict(request.body, spec=digest)
    decoder = {
        "plan": api.plan_request_from_json,
        "verify": api.verify_paths_request_from_json,
        "trace_check": api.trace_check_request_from_json,
    }[request.kind]
    return to_wire(control.dispatch(decoder(body)))


def _mutate(body: bytes, edit) -> bytes:
    doc = json.loads(body)
    edit(doc["result"])
    return json.dumps(doc).encode()


def test_checker_flags_corrupted_plans():
    rng = random.Random(5)
    spec = workloads._named(gen.video_spec(2, rng, name="v"), rng, 10)
    oracle = reference.SpecOracle(spec)
    a, b = workloads.reachable_pairs(spec, oracle, rng, 1)[0]
    op = gen.plan_op("v", spec, a, b)
    good = _served(spec, op)
    src, dst = op.expect["source"], op.expect["target"]
    assert reference.check_plan_response(good, oracle, src, dst) is None

    def cost(plan):
        plan["plan"]["cost"] += 1

    def drop_step(plan):
        plan["plan"]["steps"].pop()

    def undeclared(plan):
        plan["plan"]["steps"][0]["action"] = "A99"

    def longer_path(plan):
        step = plan["plan"]["steps"][0]
        plan["plan"]["steps"].insert(0, dict(step))

    for corruption in (cost, drop_step, undeclared, longer_path):
        bad = _mutate(good, corruption)
        assert reference.check_plan_response(bad, oracle, src, dst), corruption.__name__
    error = json.dumps({"ok": False, "error": {"code": "internal"}}).encode()
    assert reference.check_plan_response(error, oracle, src, dst)


def test_checker_rejects_a_costlier_valid_plan():
    """A plan that is safe and well-formed but not minimal is wrong."""
    spec = workloads._video_aux(random.Random(1))
    oracle = reference.SpecOracle(spec)
    # A13 does in one composite step what single actions do for less
    plan = {"source": "{D1,D4,E1}", "target": "{D2,D5,E2}", "cost": 150.0, "steps": [
        {"action": "A13", "source": "{D1,D4,E1}", "target": "{D2,D5,E2}"}]}
    problem = oracle.check_plan(plan, frozenset({"D1", "D4", "E1"}),
                                frozenset({"D2", "D5", "E2"}))
    assert problem and "not optimal" in problem


def test_checker_flags_wrong_verdicts():
    rng = random.Random(2)
    spec = workloads._video_aux(rng)
    oracle = reference.SpecOracle(spec)
    a, b = workloads.reachable_pairs(spec, oracle, rng, 1)[0]
    for op in gen.verify_ops("video", spec, a, b):
        good = _served(spec, op)
        assert reference.check_verify_response(good, op.expect) is None
        flipped = _mutate(good, lambda r: r.update(holds=not r["holds"]))
        assert reference.check_verify_response(flipped, op.expect)
    jsonl, meta = gen.sim_trace("unsafe", 3, short=True)
    for op in workloads.trace_ops("video", {"t": (jsonl, meta)}):
        good = _served(spec, op)
        assert reference.check_trace_response(good, op.expect) is None
        flipped = _mutate(good, lambda r: r["safety"].update(ok=not r["safety"]["ok"]))
        assert reference.check_trace_response(flipped, op.expect)


def test_checker_flags_missing_lint_codes():
    from repro.serve import ControlPlane, LintRequest, to_wire

    rng = random.Random(9)
    text, expect = next(
        (t, e) for t, e in (gen.lint_variant(rng, i, small=True) for i in range(50))
        if e["required"]
    )
    good = to_wire(ControlPlane().dispatch(
        LintRequest(sources=((None, text),), format="json")))
    assert reference.check_lint_response(good, expect) is None
    dropped = sorted(expect["required"])[0]

    def drop(result):
        report = result["report"]
        report["diagnostics"] = [d for d in report["diagnostics"] if d["code"] != dropped]

    assert dropped in reference.check_lint_response(_mutate(good, drop), expect)


def test_lint_variants_produce_their_injected_codes():
    from repro.serve import ControlPlane, LintRequest, to_wire

    control = ControlPlane()
    rng = random.Random(11)
    for index in range(12):
        text, expect = gen.lint_variant(rng, index, small=True)
        body = to_wire(control.dispatch(LintRequest(sources=((None, text),), format="json")))
        assert reference.check_lint_response(body, expect) is None, (index, text)


def test_realize_checker_flags_wrong_outcomes():
    from realize import RealizeResult, check_realize

    ok = RealizeResult(1.0, "complete", True, True, True, 3.0, 10, 5, 0, 10, 0.001)
    request = gen.RealizeRequest(1, "none", 1, (0.5, 1.5))
    assert check_realize(request, ok) is None
    parked = RealizeResult(1.0, "await_user", False, True, True, 3.0, 10, 0, 0, 10, 0.001)
    assert check_realize(request, parked)
    assert check_realize(gen.RealizeRequest(1, "stuck", 1, (0.5, 1.5)), ok)
    unsafe = RealizeResult(1.0, "complete", True, True, False, 3.0, 10, 5, 0, 10, 0.001)
    assert check_realize(request, unsafe)


def test_chunked_percentile_keeps_a_slow_stretch_out():
    import run

    steady = [1.0] * 180 + [2.0] * 20
    values = steady * 9 + [50.0] * 200  # one stretch of a slow host
    value, chunks = run.chunked_percentile(values, 95)
    assert chunks == 10 and value == 2.0
    assert run.percentile(values, 95) == 50.0
    # too few samples beyond the percentile for two chunks: pooled
    assert run.chunked_percentile(steady, 95) == (run.percentile(steady, 95), 1)


def test_timings_are_scaled_by_the_host_speed_when_taken():
    import run

    ref = run.REFERENCE_CALIBRATION_S
    # the host runs at the reference speed for 10 s, then twice as slow
    readings = [(t / 2, [ref if t < 20 else 2 * ref, 4 * ref]) for t in range(41)]
    # all the work ran on the first of two cores
    speed = run.HostSpeed(readings, [100, 0])
    assert speed.at(3.0) == 1.0 and speed.at(17.0) == 2.0
    assert speed.at(-5.0) == 1.0 and speed.at(99.0) == 2.0
    assert run.HostSpeed(readings, [1, 1]).at(3.0) == 2.5
    # an operation twice as slow in the slow half reads the same scaled
    records = [run.OpRecord("plan", 0.001 * (1 if t < 10 else 2), t, t, t + 0.01)
               for t in range(20)]
    result = type("R", (), {"records": records, "start": 0.0, "elapsed": 20.0})()
    assert run.latencies(result, speed)["plan"] == [1.0] * 20
    assert run.latencies(result)["plan"] == [1.0] * 10 + [2.0] * 10
    # as many operations per second at the reference speed in either half
    slow_half = [run.OpRecord("plan", 0.0, 0, t, 10 + (t % 100) / 10)
                 for t in range(500)]
    fast_half = [run.OpRecord("plan", 0.0, 0, t, (t % 100) / 10) for t in range(1000)]
    result.records = fast_half + slow_half
    assert run.throughput(result, speed) == pytest.approx(100.0)
    assert run.throughput(result) == pytest.approx(75.0)


def test_the_calibrator_holds_lanes_waiting_to_start():
    import threading
    import time

    import run

    inputs = workloads.build("realize", 1)
    engine = run.Engine(inputs, type("S", (), {"digests": {}})(), iter(range(10)))
    engine.begin(True)  # a lane's exclusive op is running
    held = threading.Thread(target=engine.hold)
    held.start()
    while not engine._held:
        time.sleep(0.001)
    started = threading.Event()

    def lane():
        engine.begin(False)
        started.set()
        engine.end(False)

    waiting = threading.Thread(target=lane)
    waiting.start()
    engine.end(True)
    held.join(5)
    assert not held.is_alive() and not started.wait(0.2)
    engine.release()
    assert started.wait(5)
    waiting.join(5)


def test_calibration_work_is_timed_on_every_core():
    import run
    from wire import Cores

    cores = Cores()
    before = os.sched_getaffinity(0)
    readings = run.calibrate(cores)
    assert len(readings) == len(cores.all) and all(0 < r < 1.0 for r in readings)
    assert os.sched_getaffinity(0) == before
    assert len(run.busy_ticks(cores)) == len(cores.all)
    if len(cores.all) > 1:
        assert not cores.client & cores.server
        assert cores.client | cores.server == set(cores.all)


def test_idle_spinners_stop():
    from wire import Cores, IdleSpinners

    spinners = IdleSpinners(Cores())
    assert all(proc.poll() is None for proc in spinners.procs)
    spinners.stop()
    assert all(proc.poll() is not None for proc in spinners.procs)


def test_an_exhausted_schedule_is_flagged():
    import run

    inputs = workloads.build("realize", 1)
    inputs.units = inputs.units[:2]
    session = type("S", (), {"digests": {}})()
    engine = run.Engine(inputs, session, iter(range(10)))
    engine.next_unit(), engine.next_unit()
    assert not engine.exhausted
    engine.next_unit()
    assert engine.exhausted
    inputs.cyclic = True
    engine = run.Engine(inputs, session, iter(range(10)))
    for _ in range(5):
        engine.next_unit()
    assert not engine.exhausted


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "plan-hot", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
