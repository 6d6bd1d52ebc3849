"""The one drive loop, and the Session paths that journal through it."""

import os
from functools import partial

import pytest

from repro.api import (
    DurabilityConfig,
    EngineConfig,
    Session,
    ShardingConfig,
    build_adaptive_engine,
)
from repro.engine.driver import Driver, drive
from repro.errors import ConfigError
from repro.recovery.manager import Recorder, RecoveryConfig
from repro.recovery.snapshot import CheckpointStore
from repro.recovery.wal import read_wal
from repro.streams.workloads import fig9_workload, three_way_chain

FACTORY = partial(fig9_workload, 3, window=24)


class CountingEngine:
    """Records every batch it is handed; echoes each update back."""

    def __init__(self):
        self.batches = []

    def process_batch(self, batch):
        self.batches.append([update.seq for update in batch])
        return [[update.seq] for update in batch]


def updates(count):
    return list(three_way_chain().updates(count))[:count]


def test_batch_size_one_processes_each_update_on_feed():
    engine = CountingEngine()
    driver = Driver(engine)
    for update in updates(3):
        driver.feed(update)
        assert engine.batches[-1] == [update.seq]


def test_flush_is_an_extra_batch_boundary():
    engine = CountingEngine()
    driver = Driver(engine, batch_size=8)
    stream = updates(5)
    for update in stream[:3]:
        driver.feed(update)
    driver.flush()
    driver.flush()  # nothing pending: no empty batch
    for update in stream[3:]:
        driver.feed(update)
    driver.flush()
    assert engine.batches == [
        [u.seq for u in stream[:3]], [u.seq for u in stream[3:]]
    ]


def test_drive_matches_per_update_process():
    stream = list(three_way_chain().updates(300))
    by_update = build_adaptive_engine(three_way_chain())
    expected = [d for u in stream for d in by_update.process(u)]
    for batch_size in (1, 7):
        engine = build_adaptive_engine(three_way_chain())
        assert drive(engine, stream, batch_size) == expected
        assert engine.ctx.metrics.updates_processed == len(stream)


def test_recorder_journals_and_checkpoints_at_batch_boundaries(tmp_path):
    engine = build_adaptive_engine(three_way_chain())
    recorder = Recorder(
        engine, RecoveryConfig(wal_dir=str(tmp_path), checkpoint_interval=50)
    )
    states = []

    def runner_state():
        states.append(engine.ctx.metrics.updates_processed)
        return {"processed": states[-1]}

    stream = updates(120)
    Driver(engine, None, 16, recorder, runner_state).run(stream)
    recorder.close()
    journaled, torn, _ = read_wal(recorder.config.wal_path)
    assert not torn
    assert [u.seq for u in journaled] == [u.seq for u in stream]
    # Batches of 16 with a checkpoint due every 50 updates: the first
    # boundary past 50 is 64, the next due one is the 8-update tail at
    # 120. runner_state is taken for those checkpoints only.
    assert states == [64, 120]
    assert recorder.checkpoints == 2


def test_series_journals_when_wal_dir_is_set(tmp_path):
    wal_dir = str(tmp_path / "journal")
    session = Session.adaptive(
        FACTORY,
        EngineConfig(
            durability=DurabilityConfig(
                wal_dir=wal_dir, checkpoint_interval=200
            )
        ),
    )
    points = session.series(arrivals=1500, sample_every_updates=500)
    assert points
    config = session.config.recovery()
    assert os.path.getsize(config.wal_path) > 0
    journaled, torn, _ = read_wal(config.wal_path)
    assert not torn
    assert len(journaled) == session.ctx.metrics.updates_processed
    assert CheckpointStore(config.checkpoint_dir).seqs()


def test_unsupervised_execute_with_wal_dir_is_a_config_error(tmp_path):
    session = Session.adaptive(
        FACTORY,
        EngineConfig(
            sharding=ShardingConfig(shards=2),
            durability=DurabilityConfig(wal_dir=str(tmp_path)),
        ),
    )
    with pytest.raises(ConfigError, match="supervision"):
        session.execute(300)
    assert os.listdir(tmp_path) == []


def test_sharded_series_with_wal_dir_is_a_config_error(tmp_path):
    session = Session.adaptive(
        FACTORY,
        EngineConfig(
            sharding=ShardingConfig(shards=2),
            durability=DurabilityConfig(wal_dir=str(tmp_path)),
        ),
    )
    with pytest.raises(ConfigError, match="wal_dir"):
        session.series(arrivals=300)
