"""Execution traces shared by the simulator, live runtime, and checker.

The paper's safety definition is a property of executions: dependency
relationships must hold in every (committed) configuration, and for every
critical-communication identifier CID the extracted action sequence
``S_CID`` must belong to the CCS language.  Everything that executes
adaptations in this library — the discrete-event simulator, the threaded
live runtime, and the baseline strategies — emits the same typed trace
records so one checker (:mod:`repro.safety`) can judge them all.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache as _lru_cache
from typing import (
    TYPE_CHECKING,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle with repro.obs)
    from repro.obs import ObservationBus


@dataclass(frozen=True)
class TraceRecord:
    """Base record: everything is timestamped with simulation/wall time."""

    time: float


@dataclass(frozen=True)
class ConfigCommitted(TraceRecord):
    """The global configuration reached a new committed value.

    Emitted when an adaptation step completes (and once at system start).
    Between two commits the system is either quiescent or mid-step with the
    affected processes blocked — the paper's atomicity assumption.
    """

    configuration: FrozenSet[str]
    step_id: str = "initial"
    action_id: str = ""


@dataclass(frozen=True)
class CommRecord(TraceRecord):
    """One atomic action of a critical communication segment.

    ``cid`` is the paper's critical communication identifier (a natural
    number identifying the segment instance, e.g. a packet sequence
    number); ``action`` names the atomic action (e.g. ``"encode"``).
    """

    cid: int
    action: str
    component: str = ""
    process: str = ""


@dataclass(frozen=True)
class AdaptationApplied(TraceRecord):
    """A local in-action executed on a process (structure altered)."""

    process: str
    action_id: str
    removes: FrozenSet[str]
    adds: FrozenSet[str]


@dataclass(frozen=True)
class BlockRecord(TraceRecord):
    """A process blocked (``blocked=True``) or resumed (``False``)."""

    process: str
    blocked: bool


@dataclass(frozen=True)
class CorruptionRecord(TraceRecord):
    """Application-level evidence of unsafe adaptation (e.g. a frame whose
    checksum failed because it was encrypted under a scheme with no matching
    decoder present)."""

    process: str
    detail: str
    cid: Optional[int] = None


@dataclass(frozen=True)
class RollbackRecord(TraceRecord):
    """A process rolled back a (partially) applied step."""

    process: str
    action_id: str


@dataclass(frozen=True)
class NoteRecord(TraceRecord):
    """Free-form annotation (protocol milestones, debugging)."""

    text: str


R = TypeVar("R", bound=TraceRecord)

# All concrete record types, for (de)serialization.
_RECORD_TYPES = (
    ConfigCommitted,
    CommRecord,
    AdaptationApplied,
    BlockRecord,
    CorruptionRecord,
    RollbackRecord,
    NoteRecord,
)


class Trace:
    """Append-only ordered sequence of trace records.

    Thread-safe: the live runtime appends from the manager receive-loop
    thread, timer threads, and per-agent host threads concurrently, and
    callers may iterate mid-run.  All mutation happens under an internal
    lock and every read path (iteration, filtering, serialization) works
    on an atomic :meth:`snapshot`.

    A trace may carry an attached :class:`~repro.obs.ObservationBus`:
    every appended record is *published* to the bus under the append
    lock, so streaming observers (incremental safety checking, metrics,
    live rendering, online enforcement) see the exact record sequence in
    trace order — on every backend, from every emitter.  A publishing
    observer that raises (the enforcement tripwire) aborts the append's
    caller, but the record itself is already recorded: the trace keeps
    the evidence of the violation that tripped it.
    """

    def __init__(
        self,
        records: Iterable[TraceRecord] = (),
        bus: "Optional[ObservationBus]" = None,
    ):
        self._records: List[TraceRecord] = list(records)
        self._lock = threading.RLock()
        # Seed records predate the bus attachment and are NOT published;
        # use attach_bus(replay=True) to stream history to late joiners.
        self._bus: "Optional[ObservationBus]" = bus

    @property
    def bus(self) -> "Optional[ObservationBus]":
        """The attached observation bus, if any."""
        return self._bus

    def attach_bus(self, bus: "Optional[ObservationBus]", replay: bool = False) -> None:
        """Attach (or with ``None`` detach) an observation bus.

        With ``replay=True`` every record already in the trace is
        published first, so observers joining a run in flight see the
        full history before any live record.
        """
        with self._lock:
            self._bus = bus
            if bus is not None and replay:
                for record in self._records:
                    bus.publish(record)

    def append(self, record: TraceRecord) -> None:
        with self._lock:
            self._records.append(record)
            if self._bus is not None:
                self._bus.publish(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        with self._lock:
            for record in records:
                self._records.append(record)
                if self._bus is not None:
                    self._bus.publish(record)

    def snapshot(self) -> Tuple[TraceRecord, ...]:
        """Atomic copy of the records appended so far."""
        with self._lock:
            return tuple(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def of_type(self, record_type: Type[R]) -> Tuple[R, ...]:
        """All records of a given type, in trace order."""
        return tuple(r for r in self.snapshot() if isinstance(r, record_type))

    def comm_sequence(self, cid: int) -> Tuple[str, ...]:
        """The paper's ``S_CID``: atomic actions of one segment, in order."""
        return tuple(
            r.action
            for r in self.snapshot()
            if isinstance(r, CommRecord) and r.cid == cid
        )

    def cids(self) -> Tuple[int, ...]:
        """All critical-communication identifiers seen, in first-seen order."""
        seen: List[int] = []
        known = set()
        for record in self.snapshot():
            if isinstance(record, CommRecord) and record.cid not in known:
                known.add(record.cid)
                seen.append(record.cid)
        return tuple(seen)

    def committed_configurations(self) -> Tuple[FrozenSet[str], ...]:
        return tuple(r.configuration for r in self.of_type(ConfigCommitted))

    def final_configuration(self) -> Optional[FrozenSet[str]]:
        commits = self.of_type(ConfigCommitted)
        return commits[-1].configuration if commits else None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Trace({len(self)} records)"

    # -- persistence ------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize to JSON lines (one record per line, type-tagged).

        Traces are the audit artifact of an adaptation; persisting them
        lets the safety checker run offline/after the fact.
        """
        import dataclasses
        import json

        lines = []
        for record in self.snapshot():
            payload = {"type": type(record).__name__}
            for field_info in dataclasses.fields(record):
                value = getattr(record, field_info.name)
                if isinstance(value, frozenset):
                    value = sorted(value)
                elif isinstance(value, tuple):
                    value = list(value)
                payload[field_info.name] = value
            lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Inverse of :meth:`to_jsonl`."""
        return cls(iter_jsonl(text.splitlines()))


#: JSON's own whitespace (RFC 8259): all that may follow a record on its line
_JSON_WS = " \t\n\r"

_JSON_KINDS = {
    dict: "an object", list: "an array", str: "a string", int: "a number",
    float: "a number", bool: "a boolean", type(None): "null",
}


def iter_jsonl(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """Decode trace records from JSON lines, one at a time.

    Accepts any iterable of lines — including an open file handle — so a
    persisted trace can stream through the incremental checker
    (``repro trace check``) without ever materializing the
    record list.  Blank lines are skipped.

    Each line is decoded on its own, driven by a per-type table built once
    from the record declarations (:func:`_decoder`):

    * the stdlib C scanner parses the line from index 0, and its value is
      kept only when nothing but JSON whitespace follows it.  Any other
      line (blank, indented, BOM-prefixed, trailing data, bad syntax)
      takes ``json.loads``, so it is skipped or fails exactly as a plain
      per-line ``json.loads`` decoder would;
    * a payload carrying exactly its type's declared fields becomes the
      record directly (``FrozenSet`` fields coerced from their arrays);
      one with omitted defaulted fields or unknown extra fields (which
      are ignored) goes through the dataclass constructor.

    Lines are never batched into one JSON array: a line holding two
    records next to two half-record lines would then decode to the right
    count of wrong records instead of failing.

    Every malformed line raises ``ValueError`` naming its line number
    (JSON syntax errors keep ``json``'s own message): an unknown record
    type, a value that is not a JSON object, a missing required field, a
    set field that is not an array of strings, or nesting too deep to
    parse.
    """
    import json

    scan, table = _decoder()
    new = object.__new__
    set_attr = object.__setattr__
    for line_no, line in enumerate(lines, start=1):
        try:
            payload, end = scan(line, 0)
        except (StopIteration, ValueError, TypeError, RecursionError):
            end = -1  # json.loads below skips the line or reports it
        if end != len(line) and (end < 0 or line[end:].strip(_JSON_WS)):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except RecursionError:
                raise ValueError(
                    f"line {line_no}: JSON nested too deeply"
                ) from None
        if type(payload) is not dict:
            raise ValueError(
                f"line {line_no}: expected a JSON object, got "
                f"{_JSON_KINDS[type(payload)]}"
            )
        type_name = payload.pop("type", None)
        builder = table.get(type_name) if type(type_name) is str else None
        if builder is None:
            raise ValueError(f"line {line_no}: unknown record type {type_name!r}")
        klass, names, set_fields, _ = builder
        if payload.keys() == names:
            if set_fields:
                _coerce_sets(klass, set_fields, payload, line_no)
            record = new(klass)
            set_attr(record, "__dict__", payload)
            yield record
        else:
            yield _build_record(builder, payload, line_no)


@_lru_cache(maxsize=None)
def _decoder():
    """The C JSON scanner and, per record type name, its builder.

    A builder is ``(class, field names, FrozenSet field names, required
    field names)``, read once from the dataclass declarations so that
    decoding a record does no ``typing`` or ``dataclasses`` work.
    """
    import dataclasses
    import json
    import typing

    table = {}
    for klass in _RECORD_TYPES:
        hints = typing.get_type_hints(klass)
        fields = dataclasses.fields(klass)
        table[klass.__name__] = (
            klass,
            frozenset(f.name for f in fields),
            tuple(
                f.name for f in fields
                if typing.get_origin(hints[f.name]) is frozenset
            ),
            tuple(
                f.name for f in fields
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ),
        )
    return json.scanner.make_scanner(json.JSONDecoder()), table


def _coerce_sets(klass, set_fields, payload: dict, line_no: int) -> None:
    """Turn each present ``FrozenSet`` field's array of strings into a frozenset."""
    for name in set_fields:
        if name not in payload:
            continue
        value = payload[name]
        if type(value) is list and all(type(m) is str for m in value):
            payload[name] = frozenset(value)
            continue
        if type(value) is list:
            stray = next(m for m in value if type(m) is not str)
            kind = f"an array holding {_JSON_KINDS[type(stray)]}"
        else:
            kind = _JSON_KINDS[type(value)]
        raise ValueError(
            f"line {line_no}: {klass.__name__} field {name!r} must be a "
            f"JSON array of strings, got {kind}"
        )


def _build_record(builder, payload: dict, line_no: int) -> TraceRecord:
    """The general path: declared fields only, defaults for omitted ones."""
    klass, names, set_fields, required = builder
    kwargs = {name: value for name, value in payload.items() if name in names}
    missing = [name for name in required if name not in kwargs]
    if missing:
        raise ValueError(
            f"line {line_no}: {klass.__name__} record missing required "
            f"field(s) {', '.join(map(repr, missing))}"
        )
    _coerce_sets(klass, set_fields, kwargs, line_no)
    return klass(**kwargs)
