"""Benchmark support: workload generators (and :func:`format_table`,
re-exported from :mod:`repro.render` for the benchmarks and examples)."""

from repro.bench.workloads import (
    RandomSystem,
    random_system,
    replicated_video_system,
    service_fleet_system,
)
from repro.render import format_table

__all__ = [
    "RandomSystem",
    "random_system",
    "replicated_video_system",
    "service_fleet_system",
    "format_table",
]
