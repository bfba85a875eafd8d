"""The table-driven trace decoder against the per-line ``json.loads`` one.

:func:`repro.trace.iter_jsonl` scans each line with the C JSON scanner
and builds records from a per-type table;
:func:`tests.oracles.trace_reference.iter_jsonl` is the decoder it
replaced.  On random records of every type, serialized by
:meth:`Trace.to_jsonl` and then mangled (CRLF endings, blank and
whitespace-only lines, padding, a BOM, extra and omitted fields,
truncation, trailing data), both must yield equal records of identical
types, field values and instance dicts included, and fail with the same exception type and
message.  Shape failures are the one deliberate difference: the
reference lets them escape as ``AttributeError``/``TypeError`` or
passes them on to the checker, the product raises ``ValueError``.
"""

import dataclasses
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    NoteRecord,
    RollbackRecord,
    Trace,
    iter_jsonl,
)
from tests.oracles import trace_reference

times = st.floats(allow_nan=False)
names = st.text(max_size=6)
name_sets = st.frozensets(names, max_size=4)
cids = st.integers(min_value=-(2**40), max_value=2**40)

records = st.one_of(
    st.builds(ConfigCommitted, time=times, configuration=name_sets,
              step_id=names, action_id=names),
    st.builds(CommRecord, time=times, cid=cids, action=names,
              component=names, process=names),
    st.builds(AdaptationApplied, time=times, process=names, action_id=names,
              removes=name_sets, adds=name_sets),
    st.builds(BlockRecord, time=times, process=names, blocked=st.booleans()),
    st.builds(CorruptionRecord, time=times, process=names, detail=names,
              cid=st.none() | cids),
    st.builds(RollbackRecord, time=times, process=names, action_id=names),
    st.builds(NoteRecord, time=times, text=names),
)

#: per-line mutations; the JSON-level ones re-serialize the payload
MUTATIONS = (
    "none", "blank-before", "spaces-before", "pad", "extra-field",
    "omit-defaults", "extra-and-omit", "truncate", "trailing-data", "crlf",
)


def _mutate(line: str, mutation: str, cut: int) -> str:
    if mutation == "blank-before":
        return "\n" + line
    if mutation == "spaces-before":
        return " \t \n" + line
    if mutation == "pad":
        return "  " + line + " \t"
    if mutation == "crlf":
        return line + "\r"
    if mutation == "extra-field":
        payload = json.loads(line)
        payload["x_extra"] = [1, {"nested": None}]
        return json.dumps(payload, sort_keys=True)
    if mutation in ("omit-defaults", "extra-and-omit"):
        payload = json.loads(line)
        if mutation == "extra-and-omit":
            payload["x_extra"] = "x"
        payload.pop("step_id", None)
        if payload.get("cid", 0) is None:
            del payload["cid"]
        return json.dumps(payload, sort_keys=True)
    if mutation == "truncate":
        return line[: cut % len(line)]
    if mutation == "trailing-data":
        return line + (" x", "{}", ' {"type": "NoteRecord"}')[cut % 3]
    return line


def _run(decoder, lines):
    """Records decoded before any failure, and the failure itself."""
    out = []
    try:
        for record in decoder(lines):
            out.append(record)
    except Exception as exc:  # noqa: BLE001 — compared below
        return out, exc
    return out, None


def _shape(record):
    return (type(record),) + tuple(
        type(getattr(record, f.name)) for f in dataclasses.fields(record)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(records, st.sampled_from(MUTATIONS),
                  st.integers(min_value=0, max_value=10**6)),
        max_size=12,
    ),
    st.sampled_from(("\n", "\r\n")),
    st.booleans(),
)
def test_product_decoder_matches_the_reference(rows, newline, bom):
    text = Trace([record for record, _, _ in rows]).to_jsonl()
    lines = [
        _mutate(line, mutation, cut)
        for line, (_, mutation, cut) in zip(text.splitlines(), rows)
    ]
    if bom and lines:
        lines[0] = "﻿" + lines[0]
    # split as a file handle opened with newline="" splits
    stream = list(io.StringIO(newline.join(lines) + newline, newline=""))
    got, got_exc = _run(iter_jsonl, stream)
    want, want_exc = _run(trace_reference.iter_jsonl, stream)
    assert got == want
    assert [_shape(r) for r in got] == [_shape(r) for r in want]
    assert [vars(r) for r in got] == [vars(r) for r in want]
    assert type(got_exc) is type(want_exc)
    assert str(got_exc) == str(want_exc)


@pytest.mark.parametrize(
    "line, reference_error, message",
    [
        ("3", AttributeError,
         "line 1: expected a JSON object, got a number"),
        ("[1, 2]", TypeError,
         "line 1: expected a JSON object, got an array"),
        ('{"type": "CommRecord", "time": 1.0, "action": "a"}', TypeError,
         "line 1: CommRecord record missing required field(s) 'cid'"),
        ('{"type": ["CommRecord"], "time": 1.0}', TypeError,
         "line 1: unknown record type ['CommRecord']"),
    ],
)
def test_shape_failures_are_typed_where_the_reference_escapes(
    line, reference_error, message
):
    with pytest.raises(reference_error):
        list(trace_reference.iter_jsonl([line]))
    with pytest.raises(ValueError) as caught:
        list(iter_jsonl([line]))
    assert str(caught.value) == message


def test_non_array_set_field_no_longer_reaches_the_checker():
    line = ('{"type": "ConfigCommitted", "time": 0.0, "configuration": 5, '
            '"step_id": "initial", "action_id": ""}')
    (record,) = trace_reference.iter_jsonl([line])
    assert record.configuration == 5  # the checker then fails on it
    with pytest.raises(ValueError, match="line 1: ConfigCommitted field "
                       "'configuration' must be a JSON array of strings"):
        list(iter_jsonl([line]))
