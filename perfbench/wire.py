"""The server under test as a subprocess, and a minimal keep-alive client.

The server is started exactly as a user starts it (``python -m repro serve
--port 0``, default settings), or through ``serve_traced.py`` for the traced
run; each lane's realizations run in a ``realize_worker.py`` process.  Its stdout and stderr are drained by reader threads: stdout carries
the ``serving on`` line (the traced bootstrap saves its spans to ``PERFBENCH_SPANS`` at exit);
stderr is kept so tracebacks printed while the benchmark measures count as
failed operations.  ``Cores`` says where each process runs, and
``IdleSpinners`` keeps the cores awake while the benchmark measures.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

READY_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


def _child_env(root: Path, span_dir: Optional[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PERFBENCH_SPANS", None)
    if span_dir is not None:
        env["PERFBENCH_SPANS"] = span_dir
    return env


class ServerProcess:
    """``repro serve`` on a free port; :meth:`wait_ready` returns its address."""

    def __init__(self, root: Path, cores: set, span_dir: Optional[str] = None):
        if span_dir is not None:
            cmd = [sys.executable, str(Path(__file__).parent / "serve_traced.py")]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.span_dir = span_dir
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=_child_env(root, span_dir), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # still starting the interpreter: every thread it makes inherits this
        os.sched_setaffinity(self.proc.pid, cores)
        self.stdout_lines: List[bytes] = []
        self.stderr_lines: List[Tuple[float, bytes]] = []
        self._ready = threading.Event()
        self.address: Optional[Tuple[str, int]] = None
        self._readers = [
            threading.Thread(target=self._read_stdout, daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
        ]
        for reader in self._readers:
            reader.start()

    def wait_ready(self) -> Tuple[str, int]:
        if not self._ready.wait(READY_TIMEOUT) or self.address is None:
            self.stop()
            raise RuntimeError("server did not report its address: " + self.stderr_tail())
        return self.address

    def stderr_tail(self) -> str:
        text = b"".join(line for _, line in self.stderr_lines)
        return text[-2000:].decode("utf-8", "replace")

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            if self.address is None:
                match = re.search(rb"serving on http://([\d.]+):(\d+)", line)
                if match:
                    self.address = (match.group(1).decode(), int(match.group(2)))
                    self._ready.set()
                    continue
            self.stdout_lines.append(line)
        self._ready.set()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append((time.perf_counter(), line))
        self._ready.set()

    def tracebacks_between(self, start: float, end: float) -> int:
        return sum(
            1 for t, line in self.stderr_lines
            if start <= t <= end and line.startswith(b"Traceback")
        )

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process (peak resident set)."""
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        _terminate(self.proc)
        for reader in self._readers:
            reader.join(STOP_TIMEOUT)

    def spans(self):
        """The traced bootstrap's spans (after :meth:`stop`)."""
        from tracing import Spans

        return Spans(self.span_dir, "server")


class RealizeWorker:
    """``realize_worker.py`` driven over its stdin/stdout (see there)."""

    def __init__(self, root: Path, cores: set, span_dir: Optional[str] = None):
        cmd = [sys.executable, str(Path(__file__).parent / "realize_worker.py")]
        self.span_dir = span_dir
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=_child_env(root, span_dir), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        os.sched_setaffinity(self.proc.pid, cores)
        self.stderr_lines: List[Tuple[float, bytes]] = []
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append((time.perf_counter(), line))

    def wait_ready(self) -> None:
        line = self.proc.stdout.readline()
        if line.strip() != b"READY":
            self.stop()
            text = b"".join(l for _, l in self.stderr_lines)[-2000:]
            raise RuntimeError("realize worker failed: " + text.decode("utf-8", "replace"))

    def call(self, message) -> bytes:
        self.proc.stdin.write(json.dumps(message).encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise TransportError("realize worker exited")
        return line

    def tracebacks_between(self, start: float, end: float) -> int:
        return sum(
            1 for t, line in self.stderr_lines
            if start <= t <= end and line.startswith(b"Traceback")
        )

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def spans(self, stem: str):
        """The traced worker's spans, saved under *stem*."""
        from tracing import Spans

        self.call({"save_spans": stem})
        return Spans(self.span_dir, stem)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            _terminate(self.proc)
        self.proc.stdout.close()
        self._reader.join(STOP_TIMEOUT)


#: a busy loop at the lowest priority that ends once its parent is gone
_SPIN = """\
import os
import sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.nice(19)
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    pass
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class Cores:
    """Which cores each process of the benchmark may run on.

    The client (every lane) gets the last core and the server the others:
    left to the scheduler, the two landed on one core in some runs and on
    two in others, and a warm plan's median moved by half between the two
    placements.  Realization worker *i* gets core *i* (modulo the count).
    On a single core nothing is pinned."""

    def __init__(self) -> None:
        self.all = sorted(os.sched_getaffinity(0))
        split = len(self.all) > 1
        self.client = set(self.all[-1:] if split else self.all)
        self.server = set(self.all[:-1] if split else self.all)

    def worker(self, index: int) -> set:
        return {self.all[index % len(self.all)]}


class IdleSpinners:
    """One busy loop on each core, run only when the core has nothing else
    to do.

    On a virtual host an idle core halts, and waking it for the next request
    costs a hypervisor round trip whose length depends on the other guests of
    the machine: without the spinners, 5-10 % of sub-millisecond requests
    took 3-5 times their median, and how many did moved from run to run.
    ``SCHED_IDLE`` gives way to any runnable process, so the spinners take
    no time from the program; nice 19 books their time apart in /proc/stat."""

    def __init__(self, cores: Cores) -> None:
        self.procs: List[subprocess.Popen] = []
        try:
            for core in cores.all:
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-c", _SPIN, str(core)], stdin=subprocess.DEVNULL))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        for proc in self.procs:
            _terminate(proc)


def _terminate(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(STOP_TIMEOUT)


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


class TransportError(Exception):
    pass


class Connection:
    """One HTTP/1.1 keep-alive connection (requests always carry a body
    length and responses always a Content-Length)."""

    def __init__(self, address: Tuple[str, int], timeout: float = 60.0):
        self.address = address
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self._buf = sock, b""
        return sock

    def request(self, method: str, path: str, body: bytes = b"", rid: int = 0,
                content_type: str = "application/json") -> Tuple[int, bytes]:
        sock = self.sock or self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            f"X-Request-Id: {rid}\r\n\r\n"
        ).encode("ascii")
        try:
            sock.sendall(head + body)
            return self._read_response()
        except (OSError, ValueError) as exc:
            self.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc

    def _read_response(self) -> Tuple[int, bytes]:
        sock = self.sock
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ValueError("connection closed before the response head")
            buf += chunk
        head = buf[:end].decode("latin-1")
        status = int(head.split(" ", 2)[1])
        length = 0
        keep_alive = True
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        body_start = end + 4
        while len(buf) - body_start < length:
            chunk = sock.recv(max(65536, length - (len(buf) - body_start)))
            if not chunk:
                raise ValueError("connection closed mid-body")
            buf += chunk
        body = buf[body_start:body_start + length]
        self._buf = buf[body_start + length:]
        if not keep_alive:
            self.close()
        return status, body

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock, self._buf = None, b""
