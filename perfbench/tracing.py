"""The traced run: spans around calls into the program's public functions.

Wrappers are installed on the program's classes from this file, for the
traced pass only, and removed afterwards. A span records (name, start,
end, parent, update id); spans are held in flat arrays in memory and
written out once the run ends. A span's self time is its duration minus
the time its child spans cover. Shard workers forked by the process
backend inherit the installed wrappers; each worker starts a fresh span
buffer and ships it back on its shard result.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


class Tracer:
    """Flat in-memory span buffer with a call stack for parent links."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.current_update = -1
        self._restore: List[Tuple[type, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.update = array("i")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.update.append(self.current_update)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        cls: type,
        attr: str,
        span: str,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Replace ``cls.attr`` with a span-recording wrapper."""
        original = cls.__dict__[attr]
        name_id = self.name_id(span)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = original
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        self.enabled = False
        for cls, attr, original in reversed(self._restore):
            setattr(cls, attr, original)
        self._restore.clear()

    def span(self, name: str):
        """A context manager for the benchmark's own spans."""
        return _Span(self, self.name_id(name))

    # ------------------------------------------------------------------
    # export and aggregation
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """A picklable copy of the buffer (shipped back from workers)."""
        return {
            "names": list(self.names),
            "name": self.name.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "parent": self.parent.tobytes(),
            "update": self.update.tobytes(),
            "counts": dict(self.counts),
        }

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        return aggregate(self.export())


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id
        self.index = -1

    def __enter__(self):
        self.index = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


def _arrays(buffer: dict):
    name, start, end = array("i"), array("d"), array("d")
    parent, update = array("i"), array("i")
    name.frombytes(buffer["name"])
    start.frombytes(buffer["start"])
    end.frombytes(buffer["end"])
    parent.frombytes(buffer["parent"])
    update.frombytes(buffer["update"])
    return name, start, end, parent, update


def aggregate(buffer: dict) -> Dict[str, Tuple[int, float, float]]:
    """span name -> (calls, inclusive seconds, self seconds)."""
    name, start, end, parent, _ = _arrays(buffer)
    duration = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(duration)
    for index, up in enumerate(parent):
        if up >= 0:
            child[up] += duration[index]
    out: Dict[str, List[float]] = {}
    names = buffer["names"]
    for index, name_id in enumerate(name):
        row = out.setdefault(names[name_id], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration[index]
        row[2] += duration[index] - child[index]
    return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


def merge_aggregates(parts) -> Dict[str, Tuple[int, float, float]]:
    total: Dict[str, List[float]] = {}
    for part in parts:
        for key, (calls, incl, own) in part.items():
            row = total.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += own
    return {k: (int(v[0]), v[1], v[2]) for k, v in total.items()}


def write_spans(path: str, buffers: List[Tuple[str, dict]]) -> int:
    """Write every buffer's spans as TSV; returns the span count."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("process\tspan\tname\tstart_s\tend_s\tparent\tupdate\n")
        for process, buffer in buffers:
            name, start, end, parent, update = _arrays(buffer)
            names = buffer["names"]
            lines = [
                f"{process}\t{i}\t{names[name[i]]}\t{start[i]:.9f}\t"
                f"{end[i]:.9f}\t{parent[i]}\t{update[i]}\n"
                for i in range(len(name))
            ]
            handle.writelines(lines)
            written += len(lines)
    return written


# ----------------------------------------------------------------------
# the program's public calls, grouped by src/repro module (= layer)
# ----------------------------------------------------------------------

def _count_rows(tracer: Tracer, result) -> None:
    tracer.counts["operators.rows_out"] += len(result[0])


def _count_memo(tracer: Tracer, result) -> None:
    tracer.counts["memo_calls"] += 1
    if result is not None:
        tracer.counts["memo_hits"] += 1


def _count_reorders(tracer: Tracer, result) -> None:
    tracer.counts["ordering.reorders"] += len(result)


def install_engine_wrappers(tracer: Tracer) -> None:
    """Wrap the engine layers' public calls (relations .. api)."""
    from repro.api import Session
    from repro.caching.cache import Cache
    from repro.caching.global_cache import GlobalCache
    from repro.core.acaching import ACaching
    from repro.core.reoptimizer import Reoptimizer
    from repro.mjoin.executor import MJoinExecutor
    from repro.operators.base import BatchProbeMemo
    from repro.operators.join_op import JoinOperator
    from repro.operators.pipeline import Pipeline
    from repro.ordering.agreedy import AGreedyOrderer
    from repro.relations.relation import Relation

    tracer.wrap(Relation, "insert", "relations.insert")
    tracer.wrap(Relation, "delete", "relations.delete")
    tracer.wrap(Relation, "matching", "relations.matching")
    tracer.wrap(JoinOperator, "apply", "operators.join")
    tracer.wrap(Pipeline, "process", "operators.pipeline", _count_rows)
    tracer.wrap(BatchProbeMemo, "get", "operators.memo_get", _count_memo)
    tracer.wrap(Cache, "probe", "caching.probe")
    tracer.wrap(Cache, "maintain_insert", "caching.maintain")
    tracer.wrap(Cache, "maintain_delete", "caching.maintain")
    tracer.wrap(GlobalCache, "maintain_insert", "caching.maintain")
    tracer.wrap(GlobalCache, "maintain_delete", "caching.maintain")
    tracer.wrap(Reoptimizer, "after_update", "core.after_update")
    tracer.wrap(Reoptimizer, "reoptimize", "core.reoptimize")
    tracer.wrap(ACaching, "process", "core.acaching")
    tracer.wrap(ACaching, "process_batch", "core.acaching")
    tracer.wrap(AGreedyOrderer, "maybe_reorder", "ordering.maybe_reorder",
                _count_reorders)
    tracer.wrap(MJoinExecutor, "process", "mjoin.process")
    tracer.wrap(MJoinExecutor, "process_batch", "mjoin.process_batch")
    tracer.wrap(Session, "process", "api.session")
    tracer.wrap(Session, "process_batch", "api.session")


def install_parallel_wrappers(tracer: Tracer) -> None:
    from repro.parallel.engine import ParallelEngine, ParallelRun
    from repro.parallel.stats import StatsMerger

    tracer.wrap(ParallelEngine, "run", "parallel.engine_run")
    tracer.wrap(ParallelRun, "merged_deltas", "parallel.merge")
    tracer.wrap(StatsMerger, "merge", "parallel.merge")


def layer_self_ms(agg: Dict[str, Tuple[int, float, float]],
                  *spans: str) -> float:
    return sum(agg.get(s, (0, 0.0, 0.0))[2] for s in spans) * 1e3


def layer_calls(agg: Dict[str, Tuple[int, float, float]], *spans: str) -> int:
    return sum(agg.get(s, (0, 0.0, 0.0))[0] for s in spans)
