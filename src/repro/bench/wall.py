"""The wall-clock benchmark + obs overhead gate (``repro bench --wall``).

Every other BENCH baseline reports *modeled* (virtual-clock) numbers;
this one measures real time: serial vs micro-batched vs sharded wall
throughput on the 6-way bench workload, a span-attributed hotspot table
from one profiled run, and the span profiler's own overhead —

* ``disabled`` — the cost of the ``if prof.enabled:`` guards an
  unprofiled run pays, computed as (measured guard-pair ns) × (crossings
  an enabled run records) over the serial baseline wall time. This is
  the ≤3% budget CI hard-gates on: it is a property of the code, stable
  across runner load.
* ``enabled`` — the full profiler's wall cost relative to the baseline.
  Reported for information; not gated (profiling is opt-in).

``BENCH_wall.json`` commits the numbers together with the tolerances
``benchmarks/check_wall_regression.py`` applies; wall-throughput drift
is gated warn-only (shared CI runners are noisy), the overhead budget
is not. Real time depends on the machine, so the file records the one
it was measured on (``machine``: core count, Python version, platform).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.errors import ParallelError
from repro.obs.profile import (
    ProfileSnapshot,
    disabled_overhead_fraction,
    noop_overhead_ns,
)
from repro.parallel.bench import bench_spec
from repro.parallel.engine import ParallelConfig, ParallelEngine

WALL_SCHEMA_VERSION = 2
WALL_DEFAULT_OUT = "BENCH_wall.json"
WALL_DEFAULT_ARRIVALS = 6_000
WALL_DEFAULT_REPEATS = 3
WALL_DEFAULT_SHARDS = 4
WALL_DEFAULT_BATCH = 64
HOTSPOT_ROWS = 10

# Committed alongside the measurements; the regression gate reads them
# from the baseline file, so tightening the budget is a one-line diff.
WALL_TOLERANCES: Dict[str, float] = {
    # Hard gate: disabled-profiler guard overhead must stay under 3%.
    "disabled_overhead_max": 0.03,
    # Warn-only gate: relative wall-seconds drift per mode vs baseline.
    "wall_rel_tol": 0.60,
}


@dataclass
class WallPoint:
    """One execution mode's wall measurement."""

    mode: str                      # serial | batched | sharded
    shards: int
    batch_size: int
    backend: str
    wall_seconds: float            # median over repeats
    wall_seconds_all: List[float]
    throughput: float              # source updates per wall second
    source_updates: int


@dataclass
class WallReport:
    """The full wall benchmark: modes + hotspots + overhead."""

    workload: str
    arrivals: int
    repeats: int
    points: List[WallPoint] = field(default_factory=list)
    overhead: Dict[str, float] = field(default_factory=dict)
    hotspots: List[dict] = field(default_factory=list)
    tolerances: Dict[str, float] = field(default_factory=dict)
    machine: Dict[str, object] = field(default_factory=dict)


def machine_block() -> Dict[str, object]:
    """The machine a wall measurement ran on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _measure(spec, parallel: ParallelConfig, repeats: int):
    """Median wall seconds (plus all samples) for one mode."""
    walls: List[float] = []
    last = None
    for _ in range(repeats):
        last = ParallelEngine(parallel).run(spec)
        walls.append(last.wall_seconds)
    return walls, last


def hotspot_table(snapshot: ProfileSnapshot, rows: int = HOTSPOT_ROWS):
    """Top span names by self wall time, with dual-clock percentiles."""
    table = []
    for aggregate in sorted(
        snapshot.aggregates().values(),
        key=lambda a: a.self_ns,
        reverse=True,
    )[:rows]:
        table.append(
            {
                "span": aggregate.name,
                "count": aggregate.count,
                "self_ms": aggregate.self_ns / 1e6,
                "inclusive_ms": aggregate.wall_ns / 1e6,
                "p50_us": aggregate.quantile_ns(0.50) / 1e3,
                "p95_us": aggregate.quantile_ns(0.95) / 1e3,
                "p99_us": aggregate.quantile_ns(0.99) / 1e3,
                "virtual_ms": aggregate.virtual_us / 1e3,
            }
        )
    return table


def run_wall_bench(
    arrivals: int = WALL_DEFAULT_ARRIVALS,
    repeats: int = WALL_DEFAULT_REPEATS,
    shards: int = WALL_DEFAULT_SHARDS,
    batch_size: int = WALL_DEFAULT_BATCH,
    backend: str = "process",
) -> WallReport:
    """Measure serial vs batched vs sharded wall time + obs overhead."""
    if repeats < 1:
        raise ParallelError(f"repeats must be >= 1, got {repeats}")
    base = bench_spec(arrivals)
    report = WallReport(
        workload="fig9-6way(window=48)",
        arrivals=arrivals,
        repeats=repeats,
        tolerances=dict(WALL_TOLERANCES),
        machine=machine_block(),
    )

    serial_walls, serial_run = _measure(
        base, ParallelConfig(1, "serial"), repeats
    )
    baseline = statistics.median(serial_walls)
    report.points.append(
        WallPoint(
            mode="serial",
            shards=1,
            batch_size=1,
            backend="serial",
            wall_seconds=baseline,
            wall_seconds_all=serial_walls,
            throughput=serial_run.source_updates / baseline,
            source_updates=serial_run.source_updates,
        )
    )

    batched_walls, batched_run = _measure(
        replace(base, batch_size=batch_size),
        ParallelConfig(1, "serial"),
        repeats,
    )
    batched_wall = statistics.median(batched_walls)
    report.points.append(
        WallPoint(
            mode="batched",
            shards=1,
            batch_size=batch_size,
            backend="serial",
            wall_seconds=batched_wall,
            wall_seconds_all=batched_walls,
            throughput=batched_run.source_updates / batched_wall,
            source_updates=batched_run.source_updates,
        )
    )

    sharded_walls, sharded_run = _measure(
        base, ParallelConfig(shards, backend), repeats
    )
    sharded_wall = statistics.median(sharded_walls)
    report.points.append(
        WallPoint(
            mode="sharded",
            shards=shards,
            batch_size=1,
            backend=backend,
            wall_seconds=sharded_wall,
            wall_seconds_all=sharded_walls,
            throughput=sharded_run.source_updates / sharded_wall,
            source_updates=sharded_run.source_updates,
        )
    )

    # One profiled serial run: hotspots + the crossing count the
    # disabled-overhead model needs (guard sites fire identically
    # whether or not the profiler records).
    profiled_walls, profiled_run = _measure(
        replace(base, profile=True), ParallelConfig(1, "serial"), 1
    )
    telemetry = profiled_run.merged_telemetry()
    snapshot = telemetry.profile
    if snapshot is None:
        raise ParallelError("profiled bench run produced no span snapshot")
    report.hotspots = hotspot_table(snapshot)
    pair_ns = noop_overhead_ns()
    report.overhead = {
        "baseline_wall_seconds": baseline,
        "enabled_wall_seconds": profiled_walls[0],
        "enabled_overhead_fraction": profiled_walls[0] / baseline - 1.0,
        "span_crossings": snapshot.crossings,
        "noop_pair_ns": pair_ns,
        "disabled_overhead_fraction": disabled_overhead_fraction(
            snapshot.crossings, baseline, per_pair_ns=pair_ns
        ),
    }
    return report


def format_wall_report(report: WallReport) -> str:
    """Human-readable wall benchmark summary."""
    lines = [
        f"wall-clock benchmark — {report.workload}, "
        f"{report.arrivals} arrivals, median of {report.repeats}",
        "machine: " + json.dumps(report.machine, sort_keys=True),
        f"{'mode':<10} | {'config':<16} | {'wall s':>8} | {'upd/s':>10}",
    ]
    for point in report.points:
        config = (
            f"shards={point.shards}"
            if point.mode == "sharded"
            else f"batch={point.batch_size}"
        )
        if point.mode == "sharded":
            config += f" ({point.backend})"
        lines.append(
            f"{point.mode:<10} | {config:<16} | "
            f"{point.wall_seconds:>8.3f} | {point.throughput:>10,.0f}"
        )
    overhead = report.overhead
    lines.append(
        f"profiler overhead: disabled "
        f"{overhead['disabled_overhead_fraction']:.3%} "
        f"({overhead['span_crossings']:,} guard pairs × "
        f"{overhead['noop_pair_ns']:.0f} ns), enabled "
        f"{overhead['enabled_overhead_fraction']:+.1%}"
    )
    lines.append(
        f"{'span':<24} | {'count':>7} | {'self ms':>8} | "
        f"{'p50 us':>7} | {'p95 us':>8} | {'virt ms':>8}"
    )
    for row in report.hotspots:
        lines.append(
            f"{row['span']:<24} | {row['count']:>7,} | "
            f"{row['self_ms']:>8.1f} | {row['p50_us']:>7.1f} | "
            f"{row['p95_us']:>8.1f} | {row['virtual_ms']:>8.1f}"
        )
    return "\n".join(lines)


def wall_to_json(report: WallReport) -> str:
    """The committed BENCH_wall.json payload."""
    return json.dumps(
        {
            "schema_version": WALL_SCHEMA_VERSION,
            "benchmark": "wall",
            "workload": report.workload,
            "arrivals": report.arrivals,
            "repeats": report.repeats,
            "points": [
                {
                    "mode": p.mode,
                    "shards": p.shards,
                    "batch_size": p.batch_size,
                    "backend": p.backend,
                    "wall_seconds": p.wall_seconds,
                    "wall_seconds_all": p.wall_seconds_all,
                    "throughput": p.throughput,
                    "source_updates": p.source_updates,
                }
                for p in report.points
            ],
            "overhead": report.overhead,
            "hotspots": report.hotspots,
            "tolerances": report.tolerances,
            "machine": report.machine,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"
