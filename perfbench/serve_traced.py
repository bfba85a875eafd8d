"""Traced-run bootstrap: the server with span recorders around each layer.

Run from the checkout root with ``PYTHONPATH=src``.  It installs the
wrappers from ``tracing.py``, then starts the server exactly as ``python -m
repro serve --port 0`` does (default settings).  On SIGTERM the server
drains and returns; the spans recorded meanwhile are saved in the
directory named by ``PERFBENCH_SPANS``.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    recorder = tracing.Recorder()
    tracing.install_server(recorder)
    try:
        return repro_main(["serve", "--port", "0"])
    finally:
        recorder.save(os.environ["PERFBENCH_SPANS"], "server")


if __name__ == "__main__":
    sys.exit(main())
