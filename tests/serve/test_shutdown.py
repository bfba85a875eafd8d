"""``repro serve`` shuts down cleanly on SIGTERM with idle keep-alive clients."""

import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_sigterm_with_idle_keep_alive_connection_exits_cleanly():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        banner = proc.stdout.readline().decode()
        port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
        with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
            client.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            reply = b""
            while not reply.endswith(b'{"ok":true}'):
                chunk = client.recv(4096)
                assert chunk, f"connection closed early: {reply!r}"
                reply += chunk
            assert b"Connection: keep-alive" in reply
            # the connection now sits idle in the server's request read
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert b"Traceback" not in stderr, stderr.decode()
