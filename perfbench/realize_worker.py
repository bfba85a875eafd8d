"""Realization worker: one process that realizes MAPs on the sim backend.

Each benchmark lane owns one worker, so realizations run in a process of
their own (the benchmark's HTTP client never shares an interpreter lock
with them) and the realize workload's peak RSS is this process's.  Protocol
over stdin/stdout, one JSON document per line:

* the worker builds and warms its planners, then prints ``READY``;
* ``{"rid": n, "request": [...]}`` → ``{"ok": {...}}`` or ``{"error": ...}``;
* ``{"save_spans": stem}`` → ``"saved"`` once the recorded spans are
  written under ``PERFBENCH_SPANS``.

With ``PERFBENCH_SPANS`` set, spans are recorded around the realization
layers.
"""

import dataclasses
import json
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import realize  # noqa: E402
import tracing  # noqa: E402
from gen import RealizeRequest  # noqa: E402


def main() -> int:
    recorder = None
    span_dir = os.environ.get("PERFBENCH_SPANS")
    if span_dir:
        recorder = tracing.Recorder()
        tracing.install_core(recorder)
        tracing.install_realize(recorder)
    realizer = realize.Realizer()
    realizer.warm()
    out = sys.stdout
    out.write("READY\n")
    out.flush()
    for line in sys.stdin:
        message = json.loads(line)
        if "save_spans" in message:
            recorder.save(span_dir, message["save_spans"])
            out.write('"saved"\n')
        else:
            fields = message["request"]
            fields[3] = tuple(fields[3])
            if recorder is not None:
                recorder.current.set((0, message["rid"]))
            try:
                result = realizer.run(RealizeRequest(*fields))
                out.write(json.dumps({"ok": dataclasses.asdict(result)}) + "\n")
            except Exception as exc:  # noqa: BLE001 - reported as a failed op
                traceback.print_exc()
                out.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
