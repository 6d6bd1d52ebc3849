"""The drive loop: how every runner feeds an update stream into an engine.

A-Caching processes all updates in one global order (§3.1) and changes
its plan only at update boundaries (§4.5). Sessions, throughput series,
shards, the chaos and crash harnesses and the benches all feed a stream
into an engine by the same rule, written once here:

* updates are buffered into micro-batches of ``batch_size``; 1 is an
  ordinary size (a one-update batch is charge-identical to ``process``);
* with a :class:`~repro.recovery.manager.Recorder`, each update is
  journaled before the engine sees it;
* each batch goes through ``engine.process_batch`` and every
  ``(update, deltas)`` pair is handed to the caller's sink;
* at each batch boundary the recorder counts the batch as processed and
  checkpoints if due, carrying the caller's ``runner_state()``.

A caller that needs an extra safe point — the start of a measured span,
a series sample, an epoch barrier — calls :meth:`Driver.flush` there.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.errors import ConfigError
from repro.streams.events import DeltaBatch, OutputDelta, Update


class Driver:
    """Feeds updates into one engine in batches; see the module docstring.

    ``sink(update, deltas)`` receives each update with its result deltas
    (for a multi-query engine, its per-query delta lists).
    """

    def __init__(
        self,
        engine,
        sink: Optional[Callable[[Update, object], None]] = None,
        batch_size: int = 1,
        recorder=None,
        runner_state: Optional[Callable[[], dict]] = None,
    ):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.engine = engine
        self.sink = sink
        self.batch_size = batch_size
        self.recorder = recorder
        self.runner_state = runner_state
        self._pending: List[Update] = []

    def feed(self, update: Update) -> None:
        """Journal ``update`` and buffer it; a full batch is processed."""
        if self.recorder is not None:
            self.recorder.log(update)
        self._pending.append(update)
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Process the buffered updates now: a batch boundary."""
        pending = self._pending
        if not pending:
            return
        batch = DeltaBatch(pending)
        pending.clear()
        results = self.engine.process_batch(batch)
        sink = self.sink
        if sink is not None:
            for update, deltas in zip(batch.updates, results):
                sink(update, deltas)
        recorder = self.recorder
        if recorder is not None:
            recorder.mark_processed(len(batch))
            if recorder.due():
                recorder.checkpoint(
                    batch[-1].seq,
                    self.runner_state() if self.runner_state else None,
                )

    def run(self, updates: Iterable[Update]) -> None:
        """Feed a whole stream, then flush the trailing partial batch."""
        for update in updates:
            self.feed(update)
        self.flush()


def drive(
    engine, updates: Iterable[Update], batch_size: int = 1, recorder=None
) -> List[OutputDelta]:
    """Run ``updates`` through ``engine``; returns all result deltas."""
    outputs: List[OutputDelta] = []
    Driver(
        engine,
        lambda _update, deltas: outputs.extend(deltas),
        batch_size,
        recorder,
    ).run(updates)
    return outputs
