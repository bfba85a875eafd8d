"""Unit tests for the trace model."""

from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    CommRecord,
    ConfigCommitted,
    CorruptionRecord,
    NoteRecord,
    RollbackRecord,
    Trace,
)


def make_trace():
    trace = Trace()
    trace.append(ConfigCommitted(time=0.0, configuration=frozenset({"A"})))
    trace.append(CommRecord(time=1.0, cid=7, action="send"))
    trace.append(CommRecord(time=2.0, cid=8, action="send"))
    trace.append(CommRecord(time=3.0, cid=7, action="receive"))
    trace.append(
        ConfigCommitted(time=4.0, configuration=frozenset({"B"}), step_id="s1",
                        action_id="A1")
    )
    return trace


class TestTrace:
    def test_append_iter_len(self):
        trace = make_trace()
        assert len(trace) == 5
        assert len(list(trace)) == 5

    def test_extend(self):
        trace = Trace()
        trace.extend([NoteRecord(time=0.0, text="x"), NoteRecord(time=1.0, text="y")])
        assert len(trace) == 2

    def test_of_type(self):
        trace = make_trace()
        assert len(trace.of_type(CommRecord)) == 3
        assert len(trace.of_type(ConfigCommitted)) == 2
        assert trace.of_type(BlockRecord) == ()

    def test_comm_sequence_extracts_s_cid(self):
        trace = make_trace()
        assert trace.comm_sequence(7) == ("send", "receive")
        assert trace.comm_sequence(8) == ("send",)
        assert trace.comm_sequence(99) == ()

    def test_cids_first_seen_order(self):
        assert make_trace().cids() == (7, 8)

    def test_committed_configurations(self):
        assert make_trace().committed_configurations() == (
            frozenset({"A"}),
            frozenset({"B"}),
        )

    def test_final_configuration(self):
        assert make_trace().final_configuration() == frozenset({"B"})
        assert Trace().final_configuration() is None

    def test_constructor_accepts_records(self):
        records = [NoteRecord(time=0.0, text="hello")]
        assert len(Trace(records)) == 1


class TestThreadSafety:
    def test_concurrent_append_and_iterate(self):
        import threading

        trace = Trace()
        stop = threading.Event()
        errors = []

        def writer(worker):
            i = 0
            while not stop.is_set():
                trace.append(NoteRecord(time=float(i), text=f"w{worker}"))
                i += 1

        def reader():
            while not stop.is_set():
                try:
                    for _ in trace:  # snapshot-based: must never raise
                        pass
                    trace.of_type(NoteRecord)
                    trace.to_jsonl()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert not errors
        assert len(trace) > 0

    def test_snapshot_is_stable_copy(self):
        trace = make_trace()
        snap = trace.snapshot()
        trace.append(NoteRecord(time=10.0, text="later"))
        assert len(snap) == 5
        assert len(trace.snapshot()) == 6


class TestRecordTypes:
    def test_records_are_frozen(self):
        record = CommRecord(time=1.0, cid=1, action="send")
        import dataclasses
        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            record.cid = 2  # type: ignore[misc]

    def test_adaptation_applied_fields(self):
        record = AdaptationApplied(
            time=1.0, process="p", action_id="A1",
            removes=frozenset({"X"}), adds=frozenset({"Y"}),
        )
        assert record.removes == frozenset({"X"})

    def test_corruption_optional_cid(self):
        record = CorruptionRecord(time=1.0, process="p", detail="bad")
        assert record.cid is None

    def test_rollback_record(self):
        record = RollbackRecord(time=2.0, process="p", action_id="A3")
        assert record.action_id == "A3"


class TestSerialization:
    def full_trace(self):
        trace = make_trace()
        trace.append(BlockRecord(time=5.0, process="p", blocked=True))
        trace.append(
            AdaptationApplied(
                time=6.0, process="p", action_id="A1",
                removes=frozenset({"X"}), adds=frozenset({"Y", "Z"}),
            )
        )
        trace.append(CorruptionRecord(time=7.0, process="q", detail="bad", cid=3))
        trace.append(RollbackRecord(time=8.0, process="p", action_id="A1"))
        trace.append(NoteRecord(time=9.0, text="done"))
        return trace

    def test_jsonl_round_trip(self):
        trace = self.full_trace()
        restored = Trace.from_jsonl(trace.to_jsonl())
        assert list(restored) == list(trace)

    def test_jsonl_is_line_oriented(self):
        text = self.full_trace().to_jsonl()
        import json

        for line in text.splitlines():
            payload = json.loads(line)
            assert "type" in payload and "time" in payload

    def test_blank_lines_skipped(self):
        trace = make_trace()
        text = "\n\n" + trace.to_jsonl() + "\n\n"
        assert len(Trace.from_jsonl(text)) == len(trace)

    def test_unknown_type_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            Trace.from_jsonl('{"type": "Martian", "time": 0.0}')

    def test_list_fields_coerced_by_declared_type(self):
        # frozenset fields come back as frozensets; a plain-list payload
        # for a str field is left alone (no blanket list→frozenset).
        restored = Trace.from_jsonl(
            '{"type": "AdaptationApplied", "time": 1.0, "process": "p", '
            '"action_id": "A1", "removes": ["X"], "adds": ["Y", "Z"]}'
        )
        record = list(restored)[0]
        assert record.removes == frozenset({"X"})
        assert record.adds == frozenset({"Y", "Z"})
        assert isinstance(record.adds, frozenset)

    def test_unknown_payload_fields_ignored(self):
        # Forward compatibility: readers skip fields they don't know.
        restored = Trace.from_jsonl(
            '{"type": "NoteRecord", "time": 0.0, "text": "x", "bogus": 1}'
        )
        assert list(restored)[0].text == "x"

    def test_checker_works_on_restored_trace(self):
        from repro.core.invariants import InvariantSet
        from repro.safety import check_safe

        trace = self.full_trace()
        restored = Trace.from_jsonl(trace.to_jsonl())
        invariants = InvariantSet.of("A | B")
        original = check_safe(trace, invariants)
        again = check_safe(restored, invariants)
        assert original.ok == again.ok
        assert len(original.violations) == len(again.violations)


class TestShapeErrors:
    """Hostile lines fail as ``ValueError("line N: …")``, never deeper."""

    GOOD = (
        '{"type": "CommRecord", "time": 1.0, "cid": 1, "action": "a", '
        '"component": "", "process": ""}\n'
    )

    def decode(self, bad_line):
        import pytest

        from repro.trace import iter_jsonl

        with pytest.raises(ValueError) as caught:
            list(iter_jsonl([self.GOOD, bad_line]))
        return str(caught.value)

    def test_scalar_line(self):
        assert self.decode("3\n") == (
            "line 2: expected a JSON object, got a number"
        )

    def test_array_line(self):
        assert self.decode("[1, 2]\n") == (
            "line 2: expected a JSON object, got an array"
        )

    def test_null_and_string_lines(self):
        assert self.decode("null\n").endswith("got null")
        assert self.decode('"x"\n').endswith("got a string")

    def test_missing_required_field(self):
        assert self.decode(
            '{"type": "CommRecord", "time": 1.0, "action": "a"}\n'
        ) == "line 2: CommRecord record missing required field(s) 'cid'"

    def test_set_field_not_an_array(self):
        assert self.decode(
            '{"type": "ConfigCommitted", "time": 0.0, "configuration": 5, '
            '"step_id": "initial", "action_id": ""}\n'
        ) == (
            "line 2: ConfigCommitted field 'configuration' must be a JSON "
            "array of strings, got a number"
        )

    def test_set_field_with_non_string_members(self):
        # the generic path (step_id omitted) checks the same rule
        message = self.decode(
            '{"type": "AdaptationApplied", "time": 0.0, "process": "p", '
            '"action_id": "A1", "removes": [], "adds": [["X"]]}\n'
        )
        assert message == (
            "line 2: AdaptationApplied field 'adds' must be a JSON array of "
            "strings, got an array holding an array"
        )
        assert self.decode(
            '{"type": "ConfigCommitted", "time": 0.0, "configuration": '
            '["A", 1], "step_id": "initial", "action_id": ""}\n'
        ).endswith("got an array holding a number")

    def test_unhashable_type_tag(self):
        assert self.decode('{"type": ["CommRecord"], "time": 0.0}\n') == (
            "line 2: unknown record type ['CommRecord']"
        )

    def test_nesting_too_deep(self):
        depth = 100_000
        assert self.decode("[" * depth + "]" * depth + "\n") == (
            "line 2: JSON nested too deeply"
        )

    def test_syntax_errors_keep_the_json_message(self):
        import json

        import pytest

        from repro.trace import iter_jsonl

        for bad in ("not json\n", '{"type": "NoteRecord"} x\n', "﻿{}\n"):
            with pytest.raises(json.JSONDecodeError) as caught:
                list(iter_jsonl([bad]))
            with pytest.raises(json.JSONDecodeError) as expected:
                json.loads(bad)
            assert str(caught.value) == str(expected.value)


class TestDecodePaths:
    def test_exact_payload_builds_an_equal_frozen_record(self):
        import dataclasses

        import pytest

        record = list(Trace.from_jsonl(
            '{"type": "ConfigCommitted", "time": 0.0, "configuration": '
            '["B", "A"], "step_id": "s", "action_id": "A1"}'
        ))[0]
        assert record == ConfigCommitted(
            time=0.0, configuration=frozenset({"A", "B"}), step_id="s",
            action_id="A1",
        )
        assert type(record.configuration) is frozenset
        assert hash(record) == hash(dataclasses.replace(record))
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.time = 1.0

    def test_omitted_defaults_are_filled(self):
        record = list(Trace.from_jsonl(
            '{"type": "ConfigCommitted", "time": 0.0, "configuration": ["A"]}'
        ))[0]
        assert record.step_id == "initial" and record.action_id == ""

    def test_indented_and_crlf_lines_decode(self):
        text = make_trace().to_jsonl()
        mangled = "\r\n".join("  " + line + " \t" for line in text.splitlines())
        assert list(Trace.from_jsonl(mangled)) == list(make_trace())

    def test_lines_are_not_joined_into_one_array(self):
        # "[" + ",".join(lines) + "]" parses these four lines as three
        # records; decoded line by line the first line is malformed
        import json

        import pytest

        from repro.trace import iter_jsonl

        first, second = make_trace().to_jsonl().splitlines()[:2]
        lines = [
            first + ", " + second + "\n",
            '{"type": "NoteRecord"\n',
            '"time": 0.0, "text": "x"}\n',
        ]
        joined = json.loads("[" + ",".join(lines) + "]")
        assert len(joined) == 3
        with pytest.raises(json.JSONDecodeError, match="Extra data"):
            list(iter_jsonl(lines))
