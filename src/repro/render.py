"""ASCII rendering: per-process adaptation timelines, and plain tables.

Turns a :class:`~repro.trace.Trace` into a human-readable lane diagram —
one lane per process, showing blocked intervals, in-actions, rollbacks,
and corruption, with configuration commits as global markers.  Used by
the CLI (``repro simulate --timeline``) and handy in test failures.

Example output::

    t=50.0   [commit plan1/0#0: A2 -> {D2,D4,E1}]
    handheld ├──█ A2 ██──────────────────
    laptop   ├────────█ A17 █────────────
    server   ├───────────────█ A1 █──────

:func:`format_table` renders the fixed-width tables the CLI and the
benchmarks print, so every report looks alike.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.obs import Observer
from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    ConfigCommitted,
    CorruptionRecord,
    NoteRecord,
    RollbackRecord,
    Trace,
    TraceRecord,
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width table with a header rule, GitHub-markdown-ish."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [render_row(list(headers))]
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


def format_record(record: TraceRecord) -> Optional[str]:
    """One event-log line for a record, or None for records not rendered
    (communication traffic is too chatty for the event log)."""
    if isinstance(record, ConfigCommitted):
        members = "{" + ",".join(sorted(record.configuration)) + "}"
        tag = f"commit {record.step_id}"
        if record.action_id:
            tag += f" ({record.action_id})"
        return f"t={record.time:9.2f}  {tag}: {members}"
    if isinstance(record, BlockRecord):
        verb = "blocked" if record.blocked else "resumed"
        return f"t={record.time:9.2f}    {record.process}: {verb}"
    if isinstance(record, AdaptationApplied):
        delta = []
        if record.removes:
            delta.append("-" + ",".join(sorted(record.removes)))
        if record.adds:
            delta.append("+" + ",".join(sorted(record.adds)))
        return (
            f"t={record.time:9.2f}    {record.process}: in-action "
            f"{record.action_id} [{' '.join(delta) or 'no local delta'}]"
        )
    if isinstance(record, RollbackRecord):
        return (
            f"t={record.time:9.2f}    {record.process}: ROLLBACK "
            f"{record.action_id}"
        )
    if isinstance(record, CorruptionRecord):
        return (
            f"t={record.time:9.2f}    {record.process}: CORRUPTION "
            f"{record.detail}"
        )
    if isinstance(record, NoteRecord):
        return f"t={record.time:9.2f}  note: {record.text}"
    return None


def render_events(trace: Trace, width: int = 72) -> str:
    """Chronological event log, one line per protocol-relevant record."""
    lines: List[str] = []
    for record in trace:
        line = format_record(record)
        if line is not None:
            lines.append(line)
    return "\n".join(lines)


class EventStreamSink(Observer):
    """Streaming event log: tails a live run over the observation bus.

    Each published record is formatted with :func:`format_record` and
    written to *stream* (or handed to *emit*) as it happens — the same
    lines ``render_events`` produces post-hoc, but printed while the run
    is in flight (``repro simulate --tail``).  :meth:`finish` returns the
    full formatted log collected so far.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        emit: Optional[Callable[[str], None]] = None,
    ):
        self._stream = stream
        self._emit = emit
        self._lines: List[str] = []

    @property
    def name(self) -> str:
        return "events"

    def feed(self, record: TraceRecord) -> None:
        line = format_record(record)
        if line is None:
            return
        self._lines.append(line)
        if self._emit is not None:
            self._emit(line)
        if self._stream is not None:
            self._stream.write(line + "\n")
            self._stream.flush()

    @property
    def lines(self) -> Tuple[str, ...]:
        return tuple(self._lines)

    def finish(self) -> str:
        return "\n".join(self._lines)


def render_timeline(trace: Trace, width: int = 64) -> str:
    """Per-process lane diagram of blocked intervals and in-actions.

    Time is scaled to *width* columns between the first and last record;
    ``█`` marks blocked spans, ``A``/``R`` the instants of in-actions and
    rollbacks, ``!`` corruption, ``|`` commits (on the global lane).
    """
    records = list(trace)
    if not records:
        return "(empty trace)"
    t0 = records[0].time
    t1 = max(r.time for r in records)
    span = max(t1 - t0, 1e-9)

    def col(time: float) -> int:
        return min(width - 1, int((time - t0) / span * (width - 1)))

    processes: List[str] = []
    for record in records:
        process = getattr(record, "process", None)
        if process and process not in processes:
            processes.append(process)
    lanes: Dict[str, List[str]] = {p: ["─"] * width for p in processes}
    global_lane = ["·"] * width

    block_start: Dict[str, float] = {}
    for record in records:
        if isinstance(record, BlockRecord):
            if record.blocked:
                block_start[record.process] = record.time
            else:
                start = block_start.pop(record.process, record.time)
                lane = lanes[record.process]
                for column in range(col(start), col(record.time) + 1):
                    if lane[column] == "─":
                        lane[column] = "█"
        elif isinstance(record, AdaptationApplied):
            lanes[record.process][col(record.time)] = "A"
        elif isinstance(record, RollbackRecord):
            lanes[record.process][col(record.time)] = "R"
        elif isinstance(record, CorruptionRecord):
            lanes[record.process][col(record.time)] = "!"
        elif isinstance(record, ConfigCommitted):
            global_lane[col(record.time)] = "|"
    # a process still blocked at trace end keeps its bar to the edge
    for process, start in block_start.items():
        lane = lanes[process]
        for column in range(col(start), width):
            if lane[column] == "─":
                lane[column] = "█"

    name_width = max((len(p) for p in processes), default=6)
    lines = [
        f"{'commits'.ljust(name_width)} {''.join(global_lane)}",
    ]
    for process in processes:
        lines.append(f"{process.ljust(name_width)} {''.join(lanes[process])}")
    lines.append(
        f"{''.ljust(name_width)} t={t0:g} .. t={t1:g} "
        f"(█ blocked, A in-action, R rollback, ! corruption, | commit)"
    )
    return "\n".join(lines)
