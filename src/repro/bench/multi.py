"""The shared-vs-isolated multi-query benchmark (``repro bench --multi``).

Hosts N identical star queries two ways over the identical update
stream and compares memory and cache effectiveness at a fixed *global*
memory quota:

- **shared** — one :class:`~repro.multi.engine.MultiQueryEngine`: each
  stream ingested once, caches with matching key/predicate signatures
  deduplicated into inter-query shared stores, the whole quota
  arbitrated globally.
- **isolated** — N independent adaptive engines, each with its own
  window copies and caches and a 1/N slice of the same quota.

Both configurations emit byte-identical per-query deltas (the
equivalence suite proves this; the bench re-checks ``outputs_emitted``
per query as a cheap tripwire), so the comparison isolates exactly what
the paper's Section 4.4 sharing argument predicts: the shared
configuration holds *strictly fewer* cache bytes (each shared store
materialized once) at an equal-or-better aggregate hit rate (one
query's misses warm the store its siblings probe). CI asserts both.

All numbers are virtual time (the deterministic cost model), so the
report is hardware-independent and ``BENCH_multi.json`` is committable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.api import EngineConfig, Session
from repro.core.acaching import ACachingConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.driver import Driver
from repro.errors import ConfigError
from repro.multi.engine import MultiQueryEngine
from repro.streams.workloads import fig9_workload

MULTI_SCHEMA_VERSION = 1
MULTI_DEFAULT_OUT = "BENCH_multi.json"
MULTI_DEFAULT_QUERIES = 3
MULTI_DEFAULT_ARRIVALS = 6_000
MULTI_BENCH_RELATIONS = 3
MULTI_BENCH_WINDOW = 24
MULTI_BENCH_BUDGET = 1 << 20          # 1 MiB global quota
# The adaptive defaults pace re-optimization on virtual *seconds*, which
# short deterministic runs never reach; the repo's experiments pace on
# update counts instead so caches actually attach.
_REOPT_INTERVAL_UPDATES = 1_200
_PROFILING_PHASE_UPDATES = 200


@dataclass
class MultiConfigPoint:
    """One hosting configuration's measurement."""

    mode: str                     # "shared" | "isolated"
    queries: int
    cache_bytes: int              # distinct physical store bytes
    window_bytes: int             # relation window bytes (shared: one copy)
    aggregate_hit_rate: float
    modeled_cost_us: float        # summed virtual engine time
    shared_store_count: int       # stores with > 1 using query
    outputs_per_query: Dict[str, int] = field(default_factory=dict)


@dataclass
class MultiBenchReport:
    """The shared-vs-isolated comparison at one global quota."""

    workload: str
    queries: int
    arrivals: int
    budget_bytes: int
    shared: MultiConfigPoint = None
    isolated: MultiConfigPoint = None

    @property
    def cache_bytes_saved(self) -> int:
        return self.isolated.cache_bytes - self.shared.cache_bytes

    @property
    def hit_rate_delta(self) -> float:
        return (
            self.shared.aggregate_hit_rate
            - self.isolated.aggregate_hit_rate
        )


def _tuned_config(budget_bytes: int) -> EngineConfig:
    return EngineConfig(
        tuning=ACachingConfig(
            reoptimizer=ReoptimizerConfig(
                reopt_interval_updates=_REOPT_INTERVAL_UPDATES,
                profiling_phase_updates=_PROFILING_PHASE_UPDATES,
                memory_budget_bytes=budget_bytes,
            )
        )
    )


def _query_ids(queries: int) -> List[str]:
    return [f"q{i + 1}" for i in range(queries)]


def run_multi_bench(
    queries: int = MULTI_DEFAULT_QUERIES,
    arrivals: int = MULTI_DEFAULT_ARRIVALS,
    budget_bytes: int = MULTI_BENCH_BUDGET,
) -> MultiBenchReport:
    """Measure shared vs isolated hosting of ``queries`` identical stars.

    The isolated baseline splits the global quota evenly; the shared
    engine arbitrates the whole quota across all tenants. Both process
    the same deterministic update stream.
    """
    if queries < 2:
        raise ConfigError(f"multi bench needs >= 2 queries, got {queries}")
    if arrivals <= 0:
        raise ConfigError(f"arrivals must be positive, got {arrivals}")
    if budget_bytes < queries:
        raise ConfigError(
            f"budget_bytes must cover every tenant, got {budget_bytes}"
        )

    stream = fig9_workload(MULTI_BENCH_RELATIONS, window=MULTI_BENCH_WINDOW)
    updates = list(stream.updates(arrivals))
    ids = _query_ids(queries)

    # -- shared: one engine, one quota, one copy of each window --------
    engine = MultiQueryEngine(budget_bytes=budget_bytes)
    for query_id in ids:
        engine.register(
            query_id,
            fig9_workload(MULTI_BENCH_RELATIONS, window=MULTI_BENCH_WINDOW),
            _tuned_config(budget_bytes),
        )
    shared_outputs: Dict[str, int] = dict.fromkeys(ids, 0)

    def count(_update, per_query) -> None:
        for query_id, deltas in per_query.items():
            shared_outputs[query_id] += len(deltas)

    Driver(engine, count).run(updates)
    snapshot = engine.snapshot()
    shared = MultiConfigPoint(
        mode="shared",
        queries=queries,
        cache_bytes=snapshot["cache_bytes"],
        window_bytes=snapshot["window_bytes"],
        aggregate_hit_rate=engine.aggregate_hit_rate(),
        modeled_cost_us=engine.modeled_cost_us(),
        shared_store_count=snapshot["shared_stores"],
        outputs_per_query=shared_outputs,
    )

    # -- isolated: N engines, each a 1/N quota slice and own windows ---
    slice_bytes = budget_bytes // queries
    iso_cache = iso_windows = 0
    iso_probes = iso_hits = 0
    iso_cost = 0.0
    iso_outputs: Dict[str, int] = {}
    for query_id in ids:
        session = Session.adaptive(
            fig9_workload(MULTI_BENCH_RELATIONS, window=MULTI_BENCH_WINDOW),
            _tuned_config(slice_bytes),
        )
        deltas = session.run(updates=iter(updates))
        plan = session.plan
        iso_outputs[query_id] = len(deltas)
        iso_cache += plan.memory_in_use()
        iso_windows += sum(
            relation.memory_bytes
            for relation in plan.executor.relations.values()
        )
        iso_probes += plan.ctx.metrics.cache_probes
        iso_hits += plan.ctx.metrics.cache_hits
        iso_cost += plan.ctx.clock.now_us
    isolated = MultiConfigPoint(
        mode="isolated",
        queries=queries,
        cache_bytes=iso_cache,
        window_bytes=iso_windows,
        aggregate_hit_rate=iso_hits / iso_probes if iso_probes else 0.0,
        modeled_cost_us=iso_cost,
        shared_store_count=0,
        outputs_per_query=iso_outputs,
    )

    return MultiBenchReport(
        workload=stream.name,
        queries=queries,
        arrivals=arrivals,
        budget_bytes=budget_bytes,
        shared=shared,
        isolated=isolated,
    )


def _point_payload(point: MultiConfigPoint) -> dict:
    return {
        "mode": point.mode,
        "queries": point.queries,
        "cache_bytes": point.cache_bytes,
        "window_bytes": point.window_bytes,
        "aggregate_hit_rate": round(point.aggregate_hit_rate, 4),
        "modeled_cost_us": round(point.modeled_cost_us, 1),
        "shared_store_count": point.shared_store_count,
        "outputs_per_query": dict(sorted(point.outputs_per_query.items())),
    }


def multi_bench_to_json(report: MultiBenchReport) -> str:
    """Serialize a multi-bench report (schema in benchmarks/README.md)."""
    payload = {
        "kind": "multi_bench",
        "schema_version": MULTI_SCHEMA_VERSION,
        "workload": report.workload,
        "queries": report.queries,
        "arrivals": report.arrivals,
        "budget_bytes": report.budget_bytes,
        "shared": _point_payload(report.shared),
        "isolated": _point_payload(report.isolated),
        "cache_bytes_saved": report.cache_bytes_saved,
        "hit_rate_delta": round(report.hit_rate_delta, 4),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_multi_bench_report(report: MultiBenchReport) -> str:
    """Human-readable shared-vs-isolated table for the CLI."""
    lines = [
        f"multi-query bench — {report.queries}x {report.workload}, "
        f"{report.arrivals} arrivals, "
        f"{report.budget_bytes} bytes global quota",
        "=" * 72,
        f"{'mode':>9} | {'cache bytes':>11} | {'window bytes':>12} | "
        f"{'hit rate':>8} | {'shared stores':>13}",
    ]
    for point in (report.shared, report.isolated):
        lines.append(
            f"{point.mode:>9} | {point.cache_bytes:>11,} | "
            f"{point.window_bytes:>12,} | "
            f"{point.aggregate_hit_rate:>8.3f} | "
            f"{point.shared_store_count:>13}"
        )
    lines.append(
        f"shared saves {report.cache_bytes_saved:,} cache bytes at "
        f"{report.hit_rate_delta:+.3f} aggregate hit rate"
    )
    return "\n".join(lines)
