"""The repo benchmark: one command, four workloads, every answer checked.

    python3 perfbench/run.py --workload plan-hot --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The server under test is the checkout's
own ``src/repro``, started as a user starts it; the benchmark refuses to run
(exit code 2, no result) when there is none.

``--trace 0`` measures for ``--seconds`` and prints every end-to-end
metric.  ``--trace 1`` splits ``--seconds`` into an untraced half and a
traced half on fresh processes with the same topology, and prints the
per-layer metrics, the tracing overhead (untraced over traced throughput)
and the unattributed share (end-to-end time no layer's self time covers).
The last line of stdout is the JSON result; the lines before it repeat
each metric with its sample count and its unscaled value: end-to-end
timings are reported at a reference speed of the host (``HostSpeed``).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import heapq
import itertools
import json
import math
import os
import shutil
import signal
import socket
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LANES = 2
SETUP_REPS = 5
#: tails and throughput are medians over at most this many chunks of a run
MAX_CHUNKS = 10
#: samples each chunk keeps beyond its percentile
MIN_BEYOND = 10
#: seconds between host-speed calibrations in the measured window
CALIBRATE_EVERY = 0.5
#: calibrations (centred on the one nearest an operation) whose median
#: gives the host's speed when the operation ran
SPEED_WINDOW = 5
#: ``calibration_work``'s time on the reference host (2-core Xeon, CPython
#: 3.11); every timing is reported as if the host ran at this speed
REFERENCE_CALIBRATION_S = 1.2e-3

#: end-to-end metric → (unit, op kind it times, percentile)
LATENCY_METRICS = {
    "plan_p50_ms": ("plan", 50), "plan_p90_ms": ("plan", 90),
    "register_p50_ms": ("register", 50), "register_p90_ms": ("register", 90),
    "lint_p50_ms": ("lint", 50), "lint_p90_ms": ("lint", 90),
    "verify_p50_ms": ("verify", 50), "verify_p90_ms": ("verify", 90),
    "trace_check_p50_ms": ("trace_check", 50), "trace_check_p90_ms": ("trace_check", 90),
    "realize_p50_ms": ("realize", 50), "realize_p99_ms": ("realize", 99),
}


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- host speed -----------------------------------------------------------------------

_CALIBRATION_DOC = {
    f"c{i}": {"on": i % 3 == 0, "cost": i * 1.5, "deps": [f"c{j}" for j in range(i % 5)]}
    for i in range(64)
}


class _Node:
    __slots__ = ("cost", "mask", "name")

    def __init__(self, cost: float, mask: int, name: str):
        self.cost, self.mask, self.name = cost, mask, name


def calibration_work(a: socket.socket, b: socket.socket) -> None:
    """A fixed slice of the kinds of work the server does: JSON round trips,
    sorting, small objects, a heap, bit masks, string building, and socket
    system calls (over the connected pair *a*, *b*).  Its code never
    changes, so its time measures only the host."""
    doc = _CALIBRATION_DOC
    for _ in range(6):
        back = json.loads(json.dumps(doc))
        order = sorted(back, key=lambda name: (back[name]["cost"], name))
        masks = {name: 1 << bit for bit, name in enumerate(order)}
        heap = []
        for name, item in back.items():
            node = _Node(item["cost"], masks[name], name)
            for dep in item["deps"]:
                node.mask ^= masks.get(dep, 0)
            heapq.heappush(heap, (node.cost, node.mask, node.name))
        while heap:
            heapq.heappop(heap)
        "".join(f"{name}={masks[name]:x};" for name in order).encode()
    payload = b"x" * 200
    for _ in range(150):
        a.send(payload)
        b.recv(4096)
        b.send(payload)
        a.recv(4096)


def calibrate(cores) -> List[float]:
    """Seconds ``calibration_work`` takes now on each of the benchmark's
    cores (``cores.all`` order), the median of three; one core can run
    slower than another for a whole run."""
    allowed = os.sched_getaffinity(0)
    per_core = []
    a, b = socket.socketpair()
    try:
        for core in cores.all:
            os.sched_setaffinity(0, {core})
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                calibration_work(a, b)
                times.append(time.perf_counter() - t0)
            per_core.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
        a.close()
        b.close()
    return per_core


def busy_ticks(cores) -> List[int]:
    """Clock ticks each core (``cores.all`` order) has spent running
    anything but niced processes (the idle spinners run at nice 19)."""
    busy = {}
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("cpu") and line[3].isdigit():
                fields = line.split()
                user, _nice, system, _idle, _iowait, irq, softirq = map(int, fields[1:8])
                busy[int(fields[0][3:])] = user + system + irq + softirq
    return [busy[core] for core in cores.all]


class HostSpeed:
    """How much slower than the reference host a pass's host ran, and when.

    The shared host changes speed by factors of 2–4, in steps, for minutes
    at a time; a timing divided by the slowdown in effect when it was taken
    measures the program rather than the host.  Each calibration's cores
    count by *weights*, the share of the pass's busy time spent on each:
    where the work ran, not where the client happened to calibrate."""

    def __init__(self, readings: List[Tuple[float, List[float]]], weights: List[float]):
        #: client clock of each calibration, and its slowdown smoothed over
        #: ``SPEED_WINDOW`` neighbours
        self.times = [t for t, _ in readings]
        total = sum(weights)
        weights = [w / total for w in weights] if total else [1 / len(weights)] * len(weights)
        raw = [sum(w * seconds for w, seconds in zip(weights, per_core))
               / REFERENCE_CALIBRATION_S for _, per_core in readings]
        half = SPEED_WINDOW // 2
        self.slowdowns = [statistics.median(raw[max(0, i - half):i + half + 1])
                          for i in range(len(raw))]

    def at(self, when: float) -> float:
        """The slowdown of the calibration nearest in time to *when*."""
        i = bisect.bisect_left(self.times, when)
        if i == len(self.times) or (i and when - self.times[i - 1] < self.times[i] - when):
            i -= 1
        return self.slowdowns[i]

    def median(self) -> float:
        return statistics.median(self.slowdowns)


# -- one pass: set-up, measured window, tear-down ---------------------------------


@dataclass(slots=True)
class OpRecord:
    kind: str
    latency: float
    rid: int
    #: client clock when the op was sent and when its answer was in
    start: float
    done: float
    failure: str = ""


@dataclass
class PassResult:
    #: each set-up's time
    setups: List[float]
    #: client clock at the start of the window, and the window's length
    start: float
    elapsed: float
    records: List[OpRecord]
    #: op key → response body → count (HTTP answers, checked after the run)
    answers: Dict[tuple, Counter]
    realize: List[dict]
    stats_before: dict
    stats_after: dict
    server_rss_mb: float
    worker_rss_mb: float
    tracebacks: int
    exhausted: bool
    #: (client clock, ``calibrate()`` reading) through the window
    calibrations: List[Tuple[float, List[float]]] = field(default_factory=list)
    #: ``busy_ticks()`` over the window
    busy: List[int] = field(default_factory=list)
    server_spans: Optional[list] = None
    worker_spans: List[list] = field(default_factory=list)
    rid_range: Tuple[int, int] = (0, 0)

    @property
    def speed(self) -> HostSpeed:
        return HostSpeed(self.calibrations, self.busy)


class Session:
    """Server + one realize worker per lane, started and registered.

    The two halves start one after the other and are timed apart:
    ``server_setup_s`` (spawn the server, wait until it is ready, register
    the initial specs) and ``worker_setup_s`` (spawn the workers, which
    build their clusters and warm their planners)."""

    def __init__(self, inputs, cores, span_dir: Optional[str]):
        from wire import Connection, RealizeWorker, ServerProcess

        self.server = None
        self.workers: List = []
        try:
            started = time.perf_counter()
            self.workers = [RealizeWorker(ROOT, cores.worker(i), span_dir)
                            for i in range(LANES)]
            for worker in self.workers:
                worker.wait_ready()
            self.worker_setup_s = time.perf_counter() - started
            started = time.perf_counter()
            self.server = ServerProcess(ROOT, cores.server, span_dir)
            address = self.server.wait_ready()
            self.digests: Dict[str, str] = {}
            conn = Connection(address)
            for key in inputs.initial:
                status, body = conn.request(
                    "POST", "/v1/specs", inputs.specs[key].text().encode("utf-8"),
                    content_type="text/plain")
                doc = json.loads(body)
                if status != 200 or not doc.get("ok"):
                    raise RuntimeError(f"set-up: registering {key} failed: {body[:300]!r}")
                self.digests[key] = doc["result"]["digest"]
            conn.close()
            self.server_setup_s = time.perf_counter() - started
        except BaseException:
            self.close()
            raise
        self.address = address

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        for worker in self.workers:
            worker.stop()


def _stats(address) -> dict:
    from wire import Connection

    conn = Connection(address)
    try:
        status, body = conn.request("GET", "/v1/stats")
    finally:
        conn.close()
    return json.loads(body)["result"]


class Engine:
    """Closed loop: each lane runs whole units, one op at a time."""

    def __init__(self, inputs, session: Session, rids):
        self.session = session
        self.rids = rids
        self._units = itertools.cycle(inputs.units)
        self._left = len(inputs.units)
        self._cyclic = inputs.cyclic
        #: the schedule ran out and started again where repeats change the
        #: mix (fresh bodies, pairs or simulator seeds become cached ones)
        self.exhausted = False
        self._lock = threading.Lock()
        self.digests = dict(session.digests)
        self.deadline = 0.0
        self._gate = threading.Condition()
        self._active = 0
        self._exclusive = False
        #: the calibrator is waiting for, or has, every lane held at the gate
        self._held = False

    def next_unit(self):
        with self._lock:
            self._left -= 1
            if self._left < 0 and not self._cyclic:
                self.exhausted = True
            return next(self._units)

    def begin(self, exclusive: bool) -> None:
        """Admit one op; an exclusive one waits until it runs alone."""
        with self._gate:
            while self._exclusive or self._held:
                self._gate.wait()
            if exclusive:
                self._exclusive = True
                while self._active:
                    self._gate.wait()
            else:
                self._active += 1

    def end(self, exclusive: bool) -> None:
        with self._gate:
            if exclusive:
                self._exclusive = False
            else:
                self._active -= 1
            self._gate.notify_all()

    def hold(self) -> None:
        """Hold every lane at the gate once its current op or exclusive
        burst ends; lanes waiting to start one wait behind the hold."""
        with self._gate:
            self._held = True
            while self._exclusive or self._active:
                self._gate.wait()

    def release(self) -> None:
        with self._gate:
            self._held = False
            self._gate.notify_all()

    def lane(self, index: int, out: dict, barrier: threading.Barrier) -> None:
        from wire import Connection

        conn = Connection(self.session.address)
        worker = self.session.workers[index]
        sink = _LaneSink()
        barrier.wait()
        try:
            while time.perf_counter() < self.deadline:
                unit = self.next_unit()
                # a unit of exclusive ops (a background burst) runs alone as
                # a whole; otherwise each op is admitted on its own
                whole = all(op.exclusive for op in unit)
                if whole:
                    self.begin(True)
                try:
                    for op in unit:
                        if time.perf_counter() >= self.deadline:
                            break
                        if not whole:
                            self.begin(op.exclusive)
                        try:
                            if op.kind == "realize":
                                self._realize(op, worker, sink)
                            elif op.kind == "warmup":
                                self._warmup(op, conn, sink)
                            else:
                                self._request(op, conn, sink)
                        finally:
                            if not whole:
                                self.end(op.exclusive)
                finally:
                    if whole:
                        self.end(True)
        finally:
            conn.close()
            out[index] = (sink, time.perf_counter())

    def _realize(self, op, worker, sink: "_LaneSink") -> None:
        from wire import TransportError

        rid = next(self.rids)
        request = op.body
        message = {"rid": rid, "request": [
            request.groups, request.fault, request.seed, list(request.jitter),
            request.resume, request.fault_group]}
        t0 = time.perf_counter()
        try:
            reply = json.loads(worker.call(message))
        except TransportError as exc:
            t1 = time.perf_counter()
            sink.records.append(OpRecord("realize", t1 - t0, rid, t0, t1, str(exc)))
            return
        t1 = time.perf_counter()
        if "error" in reply:
            sink.records.append(OpRecord("realize", t1 - t0, rid, t0, t1, reply["error"]))
            return
        result = reply["ok"]
        result["request"] = request
        sink.realized.append(result)
        # the worker's own clock around ``adapt_to``, not the pipe round trip
        sink.records.append(OpRecord("realize", result["wall_ms"] / 1e3, rid, t0, t1))

    def _warmup(self, op, conn, sink: "_LaneSink") -> None:
        """Untimed; recorded only if it fails."""
        from wire import TransportError

        t0 = time.perf_counter()
        try:
            status, reply = conn.request("GET", op.path)
        except TransportError as exc:
            status, reply = 0, str(exc).encode()
        if status != 200:
            t1 = time.perf_counter()
            sink.records.append(OpRecord(
                op.kind, t1 - t0, 0, t0, t1, f"HTTP {status}: {reply[:200]!r}"))

    def _request(self, op, conn, sink: "_LaneSink") -> None:
        from wire import TransportError
        from workloads import encode

        rid = next(self.rids)
        wire = sink.wire_cache.get(id(op))
        if wire is None:
            wire = encode(op, self.digests.get(op.spec, ""))
            if op.kind != "evict" or op.spec in self.digests:
                sink.wire_cache[id(op)] = wire
        method, path, body, ctype = wire
        t0 = time.perf_counter()
        try:
            status, reply = conn.request(method, path, body, rid, ctype)
        except TransportError as exc:
            t1 = time.perf_counter()
            sink.records.append(OpRecord(op.kind, t1 - t0, rid, t0, t1, str(exc)))
            return
        t1 = time.perf_counter()
        failure = "" if status == 200 else f"HTTP {status}: {reply[:200]!r}"
        sink.records.append(OpRecord(op.kind, t1 - t0, rid, t0, t1, failure))
        if status == 200:
            sink.answers[op.key][reply] += 1
            if op.kind == "register" and op.spec not in self.digests:
                self.digests[op.spec] = json.loads(reply)["result"]["digest"]


class _LaneSink:
    """What one lane measured: records, distinct answers, realizations."""

    def __init__(self) -> None:
        self.records: List[OpRecord] = []
        #: op key → response body → count (checked after the run)
        self.answers: Dict[tuple, Counter] = defaultdict(Counter)
        self.realized: List[dict] = []
        self.wire_cache: Dict[int, tuple] = {}


def run_pass(inputs, seconds: float, rids, cores,
             span_dir: Optional[str] = None) -> PassResult:
    """Set up, measure for *seconds*, tear down; traced when *span_dir* is
    given (spans are written there and read back)."""
    traced = span_dir is not None
    setups, calibrations = [], []
    session = None
    for rep in range(1 if traced else SETUP_REPS):
        if session is not None:
            session.close()
        session = Session(inputs, cores, span_dir)
        setups.append(session.worker_setup_s if inputs.workload == "realize"
                      else session.server_setup_s)
    try:
        stats_before = _stats(session.address)
        engine = Engine(inputs, session, rids)
        first_rid = next(rids)
        out: Dict[int, tuple] = {}
        barrier = threading.Barrier(LANES + 1)
        threads = [threading.Thread(target=engine.lane, args=(i, out, barrier))
                   for i in range(LANES)]
        for thread in threads:
            thread.start()
        # the client's own collector stays out of the measured window: the
        # records it keeps would make each full collection slower than the last
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            busy = busy_ticks(cores)
            start = time.perf_counter()
            engine.deadline = start + seconds
            barrier.wait()
            # calibrate while both lanes are held at the gate, so that the
            # reading times the host and not the lanes' contention
            due = start + CALIBRATE_EVERY / 2
            while True:
                time.sleep(max(0.0, due - time.perf_counter()))
                if time.perf_counter() >= engine.deadline:
                    break
                engine.hold()
                try:
                    calibrations.append((time.perf_counter(), calibrate(cores)))
                finally:
                    engine.release()
                due += CALIBRATE_EVERY
            for thread in threads:
                thread.join()
            busy = [after - before for before, after in zip(busy, busy_ticks(cores))]
            calibrations.append((time.perf_counter(), calibrate(cores)))
        finally:
            # ends the lanes at once if the window ends early (SIGTERM)
            engine.deadline = 0.0
            barrier.abort()
            gc.enable()
            gc.unfreeze()
        end = max(out[i][1] for i in range(LANES))
        last_rid = next(rids)
        stats_after = _stats(session.address)
        records, realized = [], []
        answers: Dict[tuple, Counter] = defaultdict(Counter)
        for index in range(LANES):
            sink = out[index][0]
            records += sink.records
            realized += sink.realized
            for key, bodies in sink.answers.items():
                answers[key].update(bodies)
        server_rss = session.server.peak_rss_mb()
        worker_rss = max(worker.peak_rss_mb() for worker in session.workers)
        worker_spans = [worker.spans(f"worker{i}")
                        for i, worker in enumerate(session.workers)] if traced else []
        tracebacks = session.server.tracebacks_between(start, end) + sum(
            worker.tracebacks_between(start, end) for worker in session.workers)
    finally:
        session.close()
    return PassResult(
        setups=setups, start=start, elapsed=end - start,
        records=records, answers=answers, realize=realized, stats_before=stats_before,
        stats_after=stats_after, server_rss_mb=server_rss, worker_rss_mb=worker_rss,
        tracebacks=tracebacks, exhausted=engine.exhausted, calibrations=calibrations,
        busy=busy,
        server_spans=session.server.spans() if traced else None,
        worker_spans=worker_spans, rid_range=(first_rid, last_rid),
    )


# -- answer checking ----------------------------------------------------------------


def check_answers(inputs, result: PassResult) -> Tuple[int, List[str]]:
    """Wrong answers among the recorded ones (count, first reasons)."""
    import reference
    from realize import check_realize

    ops = {}
    for unit in inputs.units:
        for op in unit:
            ops.setdefault(op.key, op)
    oracles: Dict[str, object] = {}
    wrong, reasons = 0, []
    for key, bodies in result.answers.items():
        op = ops[key]
        for body, count in bodies.items():
            error = None
            if op.kind == "plan":
                if op.spec not in oracles:
                    oracles[op.spec] = reference.SpecOracle(inputs.specs[op.spec])
                error = reference.check_plan_response(
                    body, oracles[op.spec], op.expect["source"], op.expect["target"])
            elif op.kind == "register":
                error = reference.check_register_response(body, op.expect)
            elif op.kind == "evict":
                error = reference.check_evict_response(body)
            elif op.kind == "lint":
                error = reference.check_lint_response(body, op.expect)
            elif op.kind == "verify":
                error = reference.check_verify_response(body, op.expect)
            elif op.kind == "trace_check":
                error = reference.check_trace_response(body, op.expect)
            if error:
                wrong += count
                reasons.append(f"{op.kind} {key[1:]}: {error}")
    for item in result.realize:
        error = check_realize(item["request"], _RealizeView(item))
        if error:
            wrong += 1
            reasons.append(f"realize {item['request']}: {error}")
    return wrong, reasons


class _RealizeView:
    def __init__(self, doc: dict):
        self.__dict__.update(doc)


# -- metrics --------------------------------------------------------------------------


def latencies(result: PassResult, speed: Optional[HostSpeed] = None
              ) -> Dict[str, List[float]]:
    """op kind → latencies in ms, in the order the ops were sent; each
    divided by the host's slowdown when it was sent, given *speed*."""
    out: Dict[str, List[float]] = defaultdict(list)
    for record in sorted(result.records, key=lambda r: r.start):
        slow = speed.at(record.start) if speed else 1.0
        out[record.kind].append(record.latency * 1e3 / slow)
    return out


def chunked_percentile(values: List[float], p: float) -> Tuple[float, int]:
    """The median, over consecutive equal chunks of *values*, of each
    chunk's *p*-th percentile, and the number of chunks.

    A stretch in which the host runs slow then moves one chunk's reading,
    not the result.  Each chunk keeps at least ``MIN_BEYOND`` samples beyond
    its percentile; too few samples for two chunks give one, the pooled
    percentile."""
    beyond = len(values) * (100.0 - p) / 100.0
    chunks = max(1, min(MAX_CHUNKS, int(beyond // MIN_BEYOND)))
    size = len(values) / chunks
    readings = [percentile(values[round(i * size):round((i + 1) * size)], p)
                for i in range(chunks)]
    return statistics.median(readings), chunks


def throughput(result: PassResult, speed: Optional[HostSpeed] = None) -> float:
    """Median over ``MAX_CHUNKS`` equal slices of the window of the
    operations completed per second in each; each multiplied by the host's
    slowdown in the middle of its slice, given *speed*."""
    width = result.elapsed / MAX_CHUNKS
    done = Counter(min(MAX_CHUNKS - 1, int((r.done - result.start) / width))
                   for r in result.records)
    return statistics.median(
        done[i] / width * (speed.at(result.start + (i + 0.5) * width) if speed else 1.0)
        for i in range(MAX_CHUNKS))


def end_to_end(result: PassResult, workload: str) -> Dict[str, Tuple[float, str, str]]:
    """metric → (value, unit, sample note).

    Timings are scaled to the reference host's speed (``HostSpeed``); the
    notes keep the unscaled readings."""
    speed = result.speed
    lat, raw_lat = latencies(result, speed), latencies(result)
    setup = statistics.median(result.setups)
    metrics: Dict[str, Tuple[float, str, str]] = {
        "setup_s": (setup / speed.median(), "s",
                    f"median of {SETUP_REPS}; unscaled {setup:.6g}"),
        "throughput_ops_s": (throughput(result, speed), "1/s",
                             f"n={len(result.records)} in {MAX_CHUNKS} slices; "
                             f"unscaled {throughput(result):.6g}"),
        "peak_rss_mb": (
            result.worker_rss_mb if workload == "realize" else result.server_rss_mb,
            "MB", "n=1"),
    }
    for name, (kind, p) in LATENCY_METRICS.items():
        values = lat.get(kind, [])
        value, chunks = chunked_percentile(values, p) if values else (0.0, 0)
        unscaled = chunked_percentile(raw_lat[kind], p)[0] if values else 0.0
        metrics[name] = (value, "ms",
                         f"n={len(values)} in {chunks} chunks; unscaled {unscaled:.6g}")
    blocked = [item["blocked"] for item in result.realize]
    metrics["disruption_sim_units"] = (
        statistics.fmean(blocked) if blocked else 0.0, "sim", f"n={len(blocked)}")
    return metrics


def _delta(result: PassResult, section: str, name: str) -> float:
    return (result.stats_after[section].get(name, 0)
            - result.stats_before[section].get(name, 0))


#: spans whose durations feed a p50
P50_SPANS = ("api.decode", "api.to_wire", "registry.register", "planner.plan",
             "planner.lazy_plan", "csr.spt", "ltl.verify", "lint.lint_text")
#: ``control.dispatch`` op attribute → metric suffix
DISPATCH_OPS = {"PlanRequest": "plan", "RegisterSpecRequest": "register",
                "EvictSpecRequest": "evict", "LintRequest": "lint",
                "VerifyPathsRequest": "verify", "TraceCheckRequest": "trace_check"}


class _Aggregate:
    """One pass over each process's spans of the traced window."""

    def __init__(self, low: int, high: int):
        import tracing

        self.window = (low, high)
        self.layer_ms: Dict[str, float] = {layer: 0.0 for layer in tracing.LAYERS}
        self.count: Counter = Counter()
        self.total_ms: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.request_child_ms: Dict[int, float] = {}
        self.attrs: Dict[str, List[dict]] = defaultdict(list)

    def add(self, spans, server: bool) -> None:
        import tracing

        low, high = self.window
        child_ns: Dict[int, int] = defaultdict(int)
        for name, start, end, sid, parent, rid in spans:
            if not low <= rid < high:
                continue
            duration = end - start
            if parent:
                child_ns[parent] += duration
            children = child_ns.pop(sid, 0)
            self.layer_ms[tracing.layer_of(name)] += max(0, duration - children) / 1e6
            base = name.split("#", 1)[0]
            if server and base == "http.request":
                self.request_child_ms[rid] = children / 1e6
            if not server and base not in ("safety.feed", "sim.run", "exec.replan"):
                continue  # the worker's planner answers from its warm cache
            self.count[name] += 1
            self.total_ms[base] += duration / 1e6
            if base in P50_SPANS:
                self.durations[base].append(duration / 1e6)
            extra = spans.attrs.get(sid)
            if extra is not None:
                self.attrs[base].append(dict(extra, ms=duration / 1e6))


def per_layer(traced: PassResult, untraced: PassResult
              ) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics from the traced pass (see NOTES.md for the table),
    and report lines for the numbers kept out of the result."""
    agg = _Aggregate(*traced.rid_range)
    agg.add(traced.server_spans, server=True)
    for spans in traced.worker_spans:
        agg.add(spans, server=False)
    count, total, attrs = agg.count, agg.total_ms, agg.attrs

    def p50(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, Tuple[float, str]] = {}
    # serve.http: round trip minus the time the request's child spans cover
    http_self = [r.latency * 1e3 - agg.request_child_ms[r.rid] for r in traced.records
                 if r.kind != "realize" and r.rid in agg.request_child_ms]
    m["http.self_ms_p50"] = (p50(http_self), "ms")
    m["http.fast_hit_ratio"] = (ratio(_delta(traced, "server", "fast_hits"),
                                      _delta(traced, "server", "served")), "ratio")
    m["http.rejected"] = (_delta(traced, "server", "rejected_overload")
                          + _delta(traced, "server", "rejected_deadline"), "count")
    m["api.decode_ms_p50"] = (p50(agg.durations["api.decode"]), "ms")
    m["api.to_wire_ms_p50"] = (p50(agg.durations["api.to_wire"]), "ms")
    by_op: Dict[str, List[float]] = defaultdict(list)
    for doc in attrs["control.dispatch"]:
        by_op[DISPATCH_OPS.get(doc["op"], "other")].append(doc["ms"])
    for op in DISPATCH_OPS.values():
        m[f"control.dispatch_ms_p50.{op}"] = (p50(by_op[op]), "ms")
    for cache in ("plan", "lint"):
        name = f"control.{cache}_wire_fast"
        hits = count[name + "#hit"]
        m[f"control.{cache}_wire_hit_ratio"] = (ratio(hits, hits + count[name]), "ratio")
    created = count["registry.register#hit"]
    m["registry.register_ms_p50"] = (p50(agg.durations["registry.register"]), "ms")
    m["registry.created_ratio"] = (
        ratio(created, created + count["registry.register"]), "ratio")
    m["registry.evictions"] = (_delta(traced, "service", "evictions"), "count")
    warm, cold, lazy = (_delta(traced, "service", k)
                        for k in ("warm_hits", "cold_plans", "lazy_plans"))
    m["service.warm_ratio"] = (ratio(warm, warm + cold + lazy), "ratio")
    m["service.cold_plans"] = (cold, "count")
    m["service.lazy_plans"] = (lazy, "count")
    spt = count["csr.spt"]
    m["planner.plan_ms_p50"] = (p50(agg.durations["planner.plan"]), "ms")
    m["planner.spt_builds"] = (spt, "count")
    m["planner.plans_per_spt"] = (ratio(count["planner.plan"], spt), "ratio")
    m["planner.lazy_plan_ms_p50"] = (p50(agg.durations["planner.lazy_plan"]), "ms")
    m["planner.lazy_expanded_nodes"] = (
        sum(doc["expanded"] for doc in attrs["planner.lazy_plan"]), "count")
    fresh = attrs["space.enumerate"]  # attributes only on fresh enumerations
    m["space.enumerate_ms"] = (sum(doc["ms"] for doc in fresh), "ms")
    m["space.safe_configs"] = (sum(doc["safe"] for doc in fresh), "count")
    transports = Counter(doc["transport"] for doc in fresh)
    for transport in ("serial", "shm-plane", "pickled-masks", "plane-cache"):
        m[f"space.transport.{transport}"] = (transports[transport], "count")
    m["sag.build_ms"] = (total["sag.build"], "ms")
    m["sag.edges"] = (sum(doc["edges"] for doc in attrs["sag.build"]), "count")
    m["csr.spt_ms_p50"] = (p50(agg.durations["csr.spt"]), "ms")
    m["parallel.pool_spinups"] = (sum(1 for doc in fresh if doc["spinup"]), "count")
    verifies = attrs["ltl.verify"]
    m["ltl.compile_ms"] = (total["ltl.compile"], "ms")
    m["ltl.verify_ms_p50"] = (p50(agg.durations["ltl.verify"]), "ms")
    m["ltl.paths_checked"] = (sum(doc["paths"] for doc in verifies), "count")
    m["ltl.incomplete_ratio"] = (
        ratio(sum(1 for doc in verifies if not doc["complete"]), len(verifies)), "ratio")
    lints = attrs["lint.lint_text"]
    m["lint.lint_ms_p50"] = (p50(agg.durations["lint.lint_text"]), "ms")
    m["lint.scan_ms"] = (total["lint.scan"], "ms")
    m["lint.interference_ms"] = (total["lint.interference"], "ms")
    m["lint.render_ms"] = (total["lint.render"], "ms")
    m["lint.inconclusive_ratio"] = (
        ratio(sum(1 for doc in lints if doc["inconclusive"]), len(lints)), "ratio")
    m["trace.decode_us_per_record"] = (
        ratio(total["trace.decode"] * 1e3, count["trace.decode"]), "us")
    m["safety.feed_us_per_record"] = (
        ratio(total["safety.feed"] * 1e3, count["safety.feed"]), "us")
    realized = traced.realize
    m["sim.events"] = (sum(r["events"] for r in realized), "count")
    m["sim.run_ms"] = (total["sim.run"], "ms")
    m["exec.replans"] = (count["exec.replan"], "count")
    m["exec.rollbacks"] = (sum(r["rolled_back"] for r in realized), "count")
    m["exec.steps_committed"] = (sum(r["committed"] for r in realized), "count")
    m["realize.success_ratio"] = (
        ratio(sum(1 for r in realized if r["status"] == "complete"), len(realized)), "ratio")
    m["obs.publish_us_per_record"] = (
        ratio(sum(r["observer_seconds"] for r in realized) * 1e6,
              sum(r["observer_records"] for r in realized)), "us")
    # self time per layer against the end-to-end time of every op measured
    e2e_ms = sum(r.latency for r in traced.records) * 1e3
    for layer, ms in agg.layer_ms.items():
        m[f"self_share.{layer}"] = (ratio(ms, e2e_ms), "ratio")
    m["tracing.unattributed_share"] = (
        1.0 - ratio(sum(agg.layer_ms.values()), e2e_ms), "ratio")
    # each pass's throughput at the reference host's speed, so that the host
    # changing speed between the two passes does not read as overhead
    m["tracing.overhead_ratio"] = (
        ratio(len(untraced.records) / untraced.elapsed * untraced.speed.median(),
              len(traced.records) / traced.elapsed * traced.speed.median()), "ratio")
    # 0 on every run at default settings (serial enumeration): reported, but
    # not as a result metric, where a time reading the same every run is void
    notes = [f"# parallel.chunk_wait_ms = {sum(doc['chunk_wait_ms'] for doc in fresh):g} ms"]
    return m, notes


# -- entry point ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so that every process started
    # below is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    inputs = workloads.build(args.workload, args.seed)
    rids = itertools.count(1)
    from wire import Cores, IdleSpinners

    cores = Cores()
    # every thread of the client (lanes, pipe readers) inherits this
    os.sched_setaffinity(0, cores.client)
    spinners = IdleSpinners(cores)
    try:
        if args.trace:
            base = run_pass(inputs, args.seconds / 2, rids, cores)
            span_dir = tempfile.mkdtemp(prefix=".perfbench-spans-", dir=ROOT)
            try:
                results = [base, run_pass(inputs, args.seconds / 2, rids, cores, span_dir)]
                metrics, notes = per_layer(results[1], base)
            finally:
                shutil.rmtree(span_dir, ignore_errors=True)
            print("\n".join(notes))
            report = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
        else:
            results = [run_pass(inputs, args.seconds, rids, cores)]
            report = end_to_end(results[0], args.workload)
    finally:
        spinners.stop()
    attempted = failed = 0
    for result in results:
        wrong, reasons = check_answers(inputs, result)
        refused = [r.failure for r in result.records if r.failure]
        attempted += len(result.records)
        failed += wrong + len(refused) + result.tracebacks
        for reason in (reasons + refused)[:10]:
            print(f"FAILED {reason}")
        if result.tracebacks:
            print(f"FAILED {result.tracebacks} traceback(s) on stderr while measuring")
        if result.exhausted:
            failed += 1
            print("FAILED the schedule ran out and started again; its pools are "
                  "too small for this program's speed")
    if not args.trace:
        plans = len([r for r in results[0].records if r.kind == "plan"])
        hits = (_delta(results[0], "server", "fast_hits")
                - _delta(results[0], "service", "lint_hits"))
        print(f"# plan wire-cache hit share: {hits:.0f}/{plans}")
        speed, busy = results[0].speed, results[0].busy
        per_core = zip(*(reading for _, reading in results[0].calibrations))
        print(f"# host slowdown against the reference: median {speed.median():.4f}, "
              f"{min(speed.slowdowns):.4f}-{max(speed.slowdowns):.4f} over "
              f"{len(speed.slowdowns)} calibrations; per core "
              + ", ".join(f"{statistics.median(r) / REFERENCE_CALIBRATION_S:.4f}"
                          f" (busy share {b / max(1, sum(busy)):.2f})"
                          for r, b in zip(per_core, busy)))
    for name, (value, unit, note) in report.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
