"""Benchmark support: workload generators and table rendering."""

from repro.bench.workloads import (
    RandomSystem,
    random_system,
    replicated_video_system,
    service_fleet_system,
)
from repro.bench.tables import format_table

__all__ = [
    "RandomSystem",
    "random_system",
    "replicated_video_system",
    "service_fleet_system",
    "format_table",
]
