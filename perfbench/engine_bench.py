"""The three in-process workloads: star6-serial, churn-batch64, star6-sharded2.

A run's seed derives several input streams (see :func:`sub_seeds`). A
pass builds a fresh engine (not timed) and feeds it one whole
pre-generated stream. Each stream's first pass is its verification pass:
every update's deltas are checked against the oracle, and it is not timed
(it also warms the interpreter up). The run then repeats timed passes over
the streams in turn until ``--seconds`` have gone by and every stream has
had the same number of them; those check every update's delta count and
the full multiset of every 16th update, between the timed calls. Every
pass over a stream sees the same input, so its virtual clock is
deterministic and passes differ only in wall time.
Averaging over several streams keeps a run's figures from hanging on one
stream's cache decisions, and per-stream medians over passes keep them
from hanging on a burst of load from other processes on the machine.
"""

from __future__ import annotations

import gc
import os
import time
from array import array
from functools import partial
from typing import Callable, Dict, List, Optional

from common import (
    WORK, hwm_kb, median, percentile, rss_kb, setup_times, stream_digest,
)
from inputs import churn_workload, generate, query_shape, star_workload
from oracle import Checker, WindowedJoinOracle, expected_digests
import tracing

from repro.api import Session
from repro.parallel.bench import (
    BENCH_SYNC_EVERY, bench_engine_config, bench_engine_spec,
)
from repro.streams.events import DeltaBatch

STAR_VARIANTS = 4
CHURN_VARIANTS = 4
SHARDED_VARIANTS = 2            # its passes are the longest
STAR_ARRIVALS = 12_000          # ~23k updates per pass
CHURN_ARRIVALS = 2_000          # ~3.8k updates, ~0.5M deltas per pass
SHARDED_ARRIVALS = 6_000        # ~11.5k updates per pass
CHURN_BATCH = 64
SHARDS = 2
# Timed passes compare every update's delta count and the full multiset
# of every SAMPLE_EVERY-th update; verification passes compare all.
SAMPLE_EVERY = 16
SETUP_REPEATS = 5


class PassStats:
    __slots__ = ("variant", "wall", "updates", "virtual_us", "p50", "p99",
                 "metrics", "cache_bytes", "reorders")

    def __init__(self, variant, wall, updates, virtual_us, p50, p99,
                 metrics=None, cache_bytes=0, reorders=0):
        self.variant = variant
        self.wall = wall
        self.updates = updates
        self.virtual_us = virtual_us
        self.p50 = p50
        self.p99 = p99
        self.metrics = metrics
        self.cache_bytes = cache_bytes
        self.reorders = reorders


class Variant:
    """One seeded input stream with its oracle checker."""

    def __init__(self, index: int, workload, updates, checker: Checker):
        self.index = index
        self.workload = workload
        self.updates = updates
        self.total = len(updates)
        self.checker = checker
        self.units = updates
        self.passes = 0                 # timed passes so far
        self.verified: Optional[PassStats] = None


class EngineRun:
    """What every in-process workload reports back to run.py."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.variants: List[Variant] = []
        self.passes: List[PassStats] = []
        self.setup: List[float] = []
        self.gen_s = 0.0
        self.digest = ""
        self.peak_rss_mb = 0.0
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []

    @property
    def attempted(self) -> int:
        return sum(v.checker.attempted for v in self.variants)

    @property
    def failed(self) -> int:
        return sum(v.checker.failed for v in self.variants)

    @property
    def first_failure(self) -> Optional[str]:
        return next((v.checker.first_failure for v in self.variants
                     if v.checker.first_failure), None)

    @property
    def corruption_caught(self) -> bool:
        return all(v.checker.corruption_caught() for v in self.variants)

    def _rate(self, q: float) -> float:
        """All streams' updates over the sum of each stream's q-quantile
        pass wall time (q=0.5: typical pass; q=0.75: a slow one)."""
        updates = wall = 0.0
        for variant in self.variants:
            walls = sorted(p.wall for p in self.passes
                           if p.variant == variant.index)
            updates += variant.total
            wall += percentile(walls, q)
        return updates / wall

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": median(self.setup),
            "throughput_ups": self._rate(0.50),
            "latency_p50_ms": median(p.p50 for p in self.passes) * 1e3,
            "latency_p99_ms": median(p.p99 for p in self.passes) * 1e3,
            "sustained_ups": self._rate(0.75),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def next_variant(self) -> Variant:
        return min(self.variants, key=lambda v: v.passes)

    def done(self, deadline: float) -> bool:
        counts = {v.passes for v in self.variants}
        return time.perf_counter() >= deadline and len(counts) == 1

    def first_pass(self) -> PassStats:
        """Stream 0's verification pass (its counts are deterministic)."""
        return self.variants[0].verified


def sub_seeds(seed: int, count: int) -> List[int]:
    """Stream seeds for one run, ten apart: the churn scenario seeds its
    four generators with ``seed .. seed + 3``, so adjacent seeds would
    share generators and their streams would not vary independently."""
    return [seed * 100 + 10 * k for k in range(count)]


def _freeze_inputs() -> None:
    """Move the benchmark's inputs and oracle digests out of the garbage
    collector's reach, so a collection inside a timed call traverses the
    engine's own heap only, as it would in a process that streams its
    input instead of holding it."""
    gc.collect()
    gc.freeze()


def _add_variant(run: EngineRun, workload, updates) -> Variant:
    schemas, predicates, windows = query_shape(workload)
    oracle = WindowedJoinOracle(schemas, predicates, windows)
    checker = Checker(expected_digests(oracle, updates), oracle.relations)
    variant = Variant(len(run.variants), workload, updates, checker)
    run.variants.append(variant)
    return variant


def _digest(run: EngineRun) -> None:
    run.digest = stream_digest(
        (u.relation, int(u.sign), u.row.rid, u.row.values)
        for v in run.variants for u in v.updates)


def _dump_spans(run: EngineRun, buffers) -> None:
    path = os.path.join(WORK, "spans", f"{run.name}-seed{run.seed}.tsv")
    run.notes.append(
        f"wrote {tracing.write_spans(path, buffers)} spans to {path}")


def _engine_layers(run: EngineRun, agg, counts, traced_wall: float,
                   untraced_wall: float) -> None:
    """Per-layer table: counts from stream 0's first untraced pass (the
    program's own counters), times from the traced pass over stream 0."""
    first = run.first_pass()
    m = first.metrics
    layers = run.layers
    layers["streams.gen_s"] = run.gen_s
    layers["relations.calls"] = tracing.layer_calls(
        agg, "relations.insert", "relations.delete", "relations.matching")
    layers["relations.self_ms"] = tracing.layer_self_ms(
        agg, "relations.insert", "relations.delete", "relations.matching")
    layers["operators.join_calls"] = tracing.layer_calls(
        agg, "operators.join")
    layers["operators.join_self_ms"] = tracing.layer_self_ms(
        agg, "operators.join", "operators.pipeline")
    layers["operators.rows_out"] = counts.get("operators.rows_out", 0.0)
    memo_calls = counts.get("memo_calls", 0.0)
    layers["operators.memo_hit_ratio"] = (
        counts.get("memo_hits", 0.0) / memo_calls if memo_calls else 0.0)
    layers["caching.probe_calls"] = float(m.cache_probes)
    layers["caching.hit_ratio"] = (
        m.cache_hits / m.cache_probes if m.cache_probes else 0.0)
    layers["caching.probe_self_ms"] = tracing.layer_self_ms(
        agg, "caching.probe")
    layers["caching.maintain_calls"] = float(
        tracing.layer_calls(agg, "caching.maintain"))
    layers["caching.maintain_self_ms"] = tracing.layer_self_ms(
        agg, "caching.maintain")
    layers["caching.bytes"] = float(first.cache_bytes)
    layers["core.reoptimize_calls"] = float(
        tracing.layer_calls(agg, "core.reoptimize"))
    layers["core.reoptimize_ms"] = (
        agg.get("core.reoptimize", (0, 0.0, 0.0))[1] * 1e3)
    layers["core.caches_added"] = float(m.caches_added)
    layers["core.caches_dropped"] = float(m.caches_dropped)
    layers["core.profiled_tuples"] = float(m.profiled_tuples)
    layers["core.hooks_self_ms"] = tracing.layer_self_ms(
        agg, "core.after_update", "core.acaching")
    layers["ordering.reorders"] = float(first.reorders)
    layers["ordering.self_ms"] = tracing.layer_self_ms(
        agg, "ordering.maybe_reorder")
    layers["mjoin.self_ms"] = tracing.layer_self_ms(
        agg, "mjoin.process", "mjoin.process_batch")
    layers["mjoin.outputs"] = float(m.outputs_emitted)
    layers["engine.virtual_us_per_update"] = first.virtual_us / first.updates
    layers["engine.wall_us_per_update"] = untraced_wall / first.updates * 1e6
    root = agg.get("bench.pass", (0, traced_wall, traced_wall))
    layers["bench.unattributed_share"] = root[2] / root[1] if root[1] else 0.0
    layers["bench.tracing_overhead"] = traced_wall / untraced_wall


# ----------------------------------------------------------------------
# star6-serial and churn-batch64: Session.process / process_batch
# ----------------------------------------------------------------------

def _engine_pass(session, variant: Variant, lat: array,
                 batched: bool) -> PassStats:
    """One pass of ``session`` over ``variant``'s stream."""
    checker = variant.checker
    first = variant.verified is None
    clock = time.perf_counter
    wall = 0.0
    position = 0
    process = session.process_batch if batched else session.process
    for unit in variant.units:
        started = clock()
        out = process(unit)
        elapsed = clock() - started
        wall += elapsed
        if batched:
            for deltas in out:
                lat[position] = elapsed
                checker.check(position, deltas,
                              full=first or position % SAMPLE_EVERY == 0)
                position += 1
        else:
            lat[position] = elapsed
            checker.check(position, out,
                          full=first or position % SAMPLE_EVERY == 0)
            position += 1
    ordered = sorted(lat[:position])
    plan = session.plan
    orderer = getattr(plan, "orderer", None)
    return PassStats(
        variant=variant.index,
        wall=wall,
        updates=position,
        virtual_us=session.ctx.clock.now_us,
        p50=percentile(ordered, 0.50),
        p99=percentile(ordered, 0.99),
        metrics=session.ctx.metrics,
        cache_bytes=plan.memory_in_use(),
        reorders=orderer.reorders if orderer is not None else 0,
    )


def _run_in_process(run: EngineRun, make_session: Callable, batch: int,
                    seconds: float, trace: bool) -> None:
    if batch > 1:
        for variant in run.variants:
            variant.units = [
                DeltaBatch(variant.updates[i:i + batch])
                for i in range(0, len(variant.updates), batch)
            ]
    lat = array("d", bytes(8 * max(v.total for v in run.variants)))
    _freeze_inputs()

    def one_pass(variant: Variant) -> PassStats:
        session = make_session(variant.workload)
        session.plan                              # build outside timing
        return _engine_pass(session, variant, lat, batch > 1)

    for variant in run.variants:
        variant.verified = one_pass(variant)
    deadline = time.perf_counter() + seconds
    while not run.done(deadline):
        variant = run.next_variant()
        run.passes.append(one_pass(variant))
        variant.passes += 1
    run.peak_rss_mb = hwm_kb() / 1024.0
    for variant in run.variants:
        virtuals = {p.virtual_us for p in run.passes
                    if p.variant == variant.index}
        virtuals.add(variant.verified.virtual_us)
        if len(virtuals) != 1:
            run.notes.append(f"stream {variant.index}: virtual clock "
                             f"differed between passes: {sorted(virtuals)}")
    if trace:
        _traced_pass(run, make_session, batch > 1)


def _traced_pass(run: EngineRun, make_session, batched: bool) -> None:
    """Stream 0 once more, with every layer wrapper recording spans."""
    variant = run.variants[0]
    tracer = tracing.Tracer()
    tracing.install_engine_wrappers(tracer)
    session = make_session(variant.workload)
    session.plan
    process = session.process_batch if batched else session.process
    try:
        tracer.enabled = True
        started = time.perf_counter()
        with tracer.span("bench.pass"):
            position = 0
            for unit in variant.units:
                tracer.current_update = position
                out = process(unit)
                position += len(out) if batched else 1
        traced_wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    untraced = median(p.wall for p in run.passes if p.variant == 0)
    _engine_layers(run, tracer.self_times(), tracer.counts, traced_wall,
                   untraced)
    _dump_spans(run, [("main", tracer.export())])


def _prepare(run: EngineRun, setup_kind: str, variants: int,
             build) -> None:
    """Set-up timings, then every stream and its oracle digests."""
    run.setup = setup_times([setup_kind], SETUP_REPEATS)
    for sub_seed in sub_seeds(run.seed, variants):
        workload, arrivals = build(sub_seed)
        updates, seconds = generate(workload, arrivals)
        run.gen_s += seconds
        _add_variant(run, workload, updates)
    _digest(run)


def run_star_serial(seed: int, seconds: float, trace: bool) -> EngineRun:
    run = EngineRun("star6-serial", seed)
    _prepare(run, "serial", STAR_VARIANTS,
             lambda s: (star_workload(s), STAR_ARRIVALS))
    _run_in_process(
        run, lambda w: Session.adaptive(w, bench_engine_config()),
        1, seconds, trace)
    return run


def run_churn_batch(seed: int, seconds: float, trace: bool) -> EngineRun:
    run = EngineRun("churn-batch64", seed)
    _prepare(run, "churn", CHURN_VARIANTS,
             lambda s: (churn_workload(s, CHURN_ARRIVALS), CHURN_ARRIVALS))
    _run_in_process(
        run,
        lambda w: Session.adaptive(
            w, bench_engine_config(batch_size=CHURN_BATCH)),
        CHURN_BATCH, seconds, trace)
    return run


# ----------------------------------------------------------------------
# star6-sharded2: ParallelEngine over a recorded trace
# ----------------------------------------------------------------------

_SHARD_TRACER: Optional[tracing.Tracer] = None


def _sharded_run_shard(original, *args, **kwargs):
    """Worker-side wrapper around ``run_shard``: measures the worker's own
    RSS growth and, when tracing, ships its span buffer back on the
    result. Forked workers inherit it with the module global."""
    tracer = _SHARD_TRACER
    before = rss_kb()
    if tracer is not None and tracer.enabled:
        tracer.reset()
        with tracer.span("parallel.run_shard"):
            result = original(*args, **kwargs)
        result.perfbench_spans = tracer.export()
    else:
        result = original(*args, **kwargs)
    result.perfbench_rss_kb = hwm_kb() - before
    return result


class _ShardSummary:
    """The counts a finished sharded run leaves behind (no deltas)."""

    def __init__(self, result):
        self.stats = [r.stats for r in result.results]
        self.source_updates = result.source_updates
        self.epochs = len(result.cache_plans)


def _check_merged(checker: Checker, merged, total: int, first: bool) -> None:
    """Group merged (seq, index, delta) triples by seq and check every
    stream position once, positions with no deltas included."""
    by_seq: Dict[int, list] = {}
    for seq, _index, delta in merged:
        by_seq.setdefault(seq, []).append(delta)
    for seq in range(total):
        checker.check(seq, by_seq.get(seq, ()),
                      full=first or seq % SAMPLE_EVERY == 0)


def run_star_sharded(seed: int, seconds: float, trace: bool) -> EngineRun:
    global _SHARD_TRACER
    from repro.parallel.adaptivity import AdaptivityConfig
    from repro.parallel.spec import ExperimentSpec
    from repro.scenarios.trace import load_trace_workload, record_trace

    run = EngineRun("star6-sharded2", seed)
    run.setup = setup_times(["sharded"], SETUP_REPEATS)
    os.makedirs(WORK, exist_ok=True)
    specs = []
    try:
        for k, sub_seed in enumerate(sub_seeds(seed, SHARDED_VARIANTS)):
            started = time.perf_counter()
            path = os.path.join(WORK, f"star6-{os.getpid()}-{k}.trace.jsonl")
            specs.append(ExperimentSpec(
                workload_factory=partial(load_trace_workload, path),
                arrivals=SHARDED_ARRIVALS,
                engine=bench_engine_spec(),
                output_mode="deltas",
                adaptivity=AdaptivityConfig(
                    sync_every_updates=BENCH_SYNC_EVERY),
            ))
            record_trace(star_workload(sub_seed), SHARDED_ARRIVALS, path)
            replayed = load_trace_workload(path)
            updates = list(replayed.updates(SHARDED_ARRIVALS))
            run.gen_s += time.perf_counter() - started
            _add_variant(run, replayed, updates)
        _digest(run)
        for variant in run.variants:
            variant.updates = variant.units = ()
        _sharded_passes(run, specs, seconds, trace)
    finally:
        _SHARD_TRACER = None
        for spec in specs:
            try:
                os.remove(spec.workload_factory.args[0])
            except OSError:
                pass
    return run


def _sharded_passes(run: EngineRun, specs, seconds: float,
                    trace: bool) -> None:
    import repro.parallel.engine as parallel_engine
    from repro.parallel.engine import ParallelConfig, ParallelEngine

    engine = ParallelEngine(ParallelConfig(SHARDS, "process"))
    original = parallel_engine.run_shard
    parallel_engine.run_shard = partial(_sharded_run_shard, original)
    merge_ms: List[float] = []
    worker_kb: List[int] = []
    summary = None
    clock = time.perf_counter
    _freeze_inputs()
    try:
        def one_pass(variant: Variant) -> PassStats:
            nonlocal summary
            t0 = clock()
            result = engine.run(specs[variant.index])
            t1 = clock()
            merged = result.merged_deltas()
            t2 = clock()
            _check_merged(variant.checker, merged, variant.total,
                          variant.verified is None)
            del merged
            worker_kb.append(sum(
                getattr(r, "perfbench_rss_kb", 0) for r in result.results))
            if summary is None and variant.index == 0:
                summary = _ShardSummary(result)
            merge_ms.append((t2 - t1) * 1e3)
            return PassStats(
                variant=variant.index, wall=t2 - t0,
                updates=result.source_updates,
                virtual_us=max(r.stats.clock_us for r in result.results),
                p50=t2 - t0, p99=t2 - t0)

        for variant in run.variants:
            variant.verified = one_pass(variant)
        merge_ms.clear()
        deadline = clock() + seconds
        while not run.done(deadline):
            variant = run.next_variant()
            run.passes.append(one_pass(variant))
            variant.passes += 1
        run.peak_rss_mb = (hwm_kb() + max(worker_kb)) / 1024.0
        if trace:
            _traced_sharded(run, engine, specs[0], summary, merge_ms)
    finally:
        parallel_engine.run_shard = original


def _traced_sharded(run: EngineRun, engine, spec, summary: _ShardSummary,
                    merge_ms: List[float]) -> None:
    global _SHARD_TRACER
    tracer = tracing.Tracer()
    tracing.install_engine_wrappers(tracer)
    tracing.install_parallel_wrappers(tracer)
    _SHARD_TRACER = tracer
    try:
        tracer.enabled = True
        started = time.perf_counter()
        with tracer.span("bench.pass"):
            result = engine.run(spec)
            result.merged_deltas()
        traced_wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    buffers = [("main", tracer.export())] + [
        (f"shard{r.stats.shard}", r.perfbench_spans)
        for r in result.results if hasattr(r, "perfbench_spans")
    ]
    del result
    agg = tracing.merge_aggregates(tracing.aggregate(b) for _, b in buffers)
    counts: Dict[str, float] = {}
    for _, buffer in buffers:
        for key, value in buffer["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    # Counts come from the untraced first pass over stream 0.
    stats = summary.stats

    class _Merged:
        cache_probes = sum(s.cache_probes for s in stats)
        cache_hits = sum(s.cache_hits for s in stats)
        caches_added = sum(s.caches_added for s in stats)
        caches_dropped = sum(s.caches_dropped for s in stats)
        profiled_tuples = sum(s.profiled_tuples for s in stats)
        outputs_emitted = sum(s.outputs_emitted for s in stats)

    first = run.first_pass()
    first.metrics = _Merged
    first.cache_bytes = sum(s.memory_bytes for s in stats)
    first.reorders = int(counts.get("ordering.reorders", 0))
    untraced = median(p.wall for p in run.passes if p.variant == 0)
    _engine_layers(run, agg, counts, traced_wall, untraced)
    processed = sum(s.updates_processed for s in stats)
    # Virtual cost per processed update, summed over the shards' clocks.
    run.layers["engine.virtual_us_per_update"] = (
        sum(s.clock_us for s in stats) / processed)
    per_shard = [s.updates_processed for s in stats]
    run.layers["parallel.shard_updates_max_over_mean"] = (
        max(per_shard) / (sum(per_shard) / len(per_shard)))
    run.layers["parallel.replayed_over_routed"] = (
        len(stats) * summary.source_updates / processed)
    run.layers["parallel.epochs"] = float(summary.epochs)
    run.layers["parallel.merge_ms"] = median(merge_ms)
    _dump_spans(run, buffers)
