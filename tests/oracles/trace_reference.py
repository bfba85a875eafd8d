"""Reference JSON-lines trace decoder (slow oracle).

:func:`iter_jsonl` is the decoder :mod:`repro.trace` ran before the
per-type decoder table: one ``json.loads`` per line, a per-call registry
dict, and per-field ``typing`` coercion through :func:`_field_hints`
before the frozen-dataclass ``__init__``.  It is kept verbatim as the
semantics the product decoder is pinned to
(``tests/test_trace_decoder_oracle.py``), and as the reference column of
the decode row in ``benchmarks/bench_obs_overhead.py``.

The one deliberate difference: shape failures (a line that is not a JSON
object, a missing required field, a set field that is not an array of
strings, nesting too deep to parse) escape this decoder as
``AttributeError``/``TypeError``/``RecursionError`` or pass through to
the checker, where the product raises ``ValueError("line N: …")``.
"""

from __future__ import annotations

from functools import lru_cache as _lru_cache
from typing import Iterable, Iterator, Tuple, Type

from repro.trace import _RECORD_TYPES, TraceRecord


def iter_jsonl(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """Decode trace records from JSON lines, one at a time.

    Accepts any iterable of lines — including an open file handle — so a
    persisted trace can stream through the incremental checker
    (``repro trace check``) without ever materializing the
    record list.  Blank lines are skipped; unknown record types raise
    ``ValueError`` with the offending line number.
    """
    import json

    registry = {klass.__name__: klass for klass in _RECORD_TYPES}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        payload = json.loads(line)
        type_name = payload.pop("type", None)
        klass = registry.get(type_name)
        if klass is None:
            raise ValueError(f"line {line_no}: unknown record type {type_name!r}")
        yield _decode_record(klass, payload)


@_lru_cache(maxsize=None)
def _field_hints(klass: Type[TraceRecord]) -> Tuple[Tuple[str, object], ...]:
    """Resolved (name, type) pairs for a record class's dataclass fields."""
    import dataclasses
    import typing

    hints = typing.get_type_hints(klass)
    return tuple((f.name, hints.get(f.name)) for f in dataclasses.fields(klass))


def _decode_record(klass: Type[TraceRecord], payload: dict) -> TraceRecord:
    """Build a record from a JSON payload, coercing by declared field type.

    JSON has no frozenset/tuple, so container fields round-trip through
    lists; each list is coerced back to whatever the dataclass field
    actually declares (``FrozenSet`` → frozenset, ``Tuple`` → tuple,
    ``List`` stays a list) instead of being blanket-converted.
    """
    import typing

    kwargs = {}
    for name, hint in _field_hints(klass):
        if name not in payload:
            continue
        value = payload[name]
        if isinstance(value, list) and hint is not None:
            origin = typing.get_origin(hint) or hint
            if origin is frozenset:
                value = frozenset(value)
            elif origin in (tuple, set):
                value = origin(value)
        kwargs[name] = value
    return klass(**kwargs)
