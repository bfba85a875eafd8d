"""The shared-memory counter block behind fleet-wide ``/v1/stats``."""

import pytest

from repro.serve.counters import FIELDS, CounterBlock


def test_counter_block_publish_row_aggregate():
    with CounterBlock(3) as block:
        block.publish(0, {"served": 5, "specs": 2})
        block.publish(2, {"served": 7, "lint_hits": 1})
        assert block.row(0)["served"] == 5
        assert block.row(1)["served"] == 0
        totals = block.aggregate()
        assert totals["served"] == 12
        assert totals["specs"] == 2
        assert totals["lint_hits"] == 1
        assert totals["workers"] == 3
        assert set(FIELDS) <= set(totals)


def test_counter_block_republish_overwrites_row():
    with CounterBlock(1) as block:
        block.publish(0, {"served": 5})
        block.publish(0, {"served": 6})
        assert block.aggregate()["served"] == 6


def test_counter_block_attach_by_name_sees_owner_writes():
    with CounterBlock(2) as owner:
        peer = CounterBlock(2, name=owner.name)
        try:
            owner.publish(0, {"served": 3})
            peer.publish(1, {"served": 4})
            assert peer.aggregate()["served"] == 7
            assert owner.aggregate()["served"] == 7
        finally:
            peer.close()


def test_counter_block_rejects_bad_row_index():
    with CounterBlock(1) as block:
        with pytest.raises(IndexError):
            block.publish(1, {"served": 1})


def test_counter_block_ignores_unknown_fields():
    with CounterBlock(1) as block:
        block.publish(0, {"served": 1, "not_a_field": 99})
        assert "not_a_field" not in block.aggregate()
