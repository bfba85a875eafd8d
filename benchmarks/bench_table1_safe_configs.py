"""Experiment T1 — Table 1: the safe configuration set.

Regenerates the paper's Table 1 (eight safe configurations over
``(D5,D4,D3,D2,D1,E2,E1)``) from the §5.1 invariants and checks it is
*exactly* the published set, then benchmarks the enumeration step of the
detection & setup phase.
"""

import pytest

from benchmarks.conftest import report
from repro.apps.video.system import video_invariants, video_universe
from repro.bench import format_table
from repro.core.space import SafeConfigurationSpace

TABLE1 = {
    "0100101": "{D1,D4,E1}",
    "1100101": "{D1,D4,D5,E1}",
    "1101001": "{D2,D4,D5,E1}",
    "1101010": "{D2,D4,D5,E2}",
    "1110010": "{D3,D4,D5,E2}",
    "0101001": "{D2,D4,E1}",
    "1001010": "{D2,D5,E2}",
    "1010010": "{D3,D5,E2}",
}


def enumerate_safe_set():
    space = SafeConfigurationSpace(video_universe(), video_invariants())
    return space.to_table()


def test_table1_safe_configuration_set(benchmark):
    rows = benchmark(enumerate_safe_set)
    got = dict(rows)
    assert got == TABLE1, "safe configuration set diverges from Table 1"
    report(
        "Table 1 — safe configuration set (regenerated)",
        format_table(["bit vector", "configuration"], rows),
    )
    benchmark.extra_info["safe_configurations"] = len(rows)


def test_table1_enumeration_scales_with_restriction(benchmark):
    """Backtracking over the handheld decoders alone, the rest pinned to
    the source's values (:meth:`SafeConfigurationSpace.extensions`, the
    enumerator behind every collaborative set's projections): it must
    agree with the full sweep on the pinned slice."""
    universe = video_universe()
    space = SafeConfigurationSpace(universe, video_invariants())
    source = universe.from_bits("0100101")
    free = ("D1", "D2", "D3")
    free_mask = universe.mask_of_names(free)
    pinned = universe.mask_of(source) & ~free_mask

    def restricted():
        return space.extensions(free, pinned, universe.full_mask ^ free_mask)

    masks = benchmark(restricted)
    slice_ = {universe.to_bits(universe.from_mask(mask)) for mask in masks}
    assert slice_ == {"0100101", "0101001"}
    assert slice_ == {
        bits for bits in TABLE1
        if universe.mask_of(universe.from_bits(bits)) & ~free_mask == pinned
    }
