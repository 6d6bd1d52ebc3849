"""Times the program's set-up once and prints the seconds.

Run as a fresh interpreter by the benchmark (``SRC`` on PYTHONPATH):
``python3 perfbench/setup_probe.py serial|churn|sharded``. Set-up is
importing ``repro`` and building the engine (or, for ``sharded``, the
parallel engine and its experiment spec), the way a user starts a run.
"""

import sys
import time

started = time.perf_counter()
from repro.api import Session  # noqa: E402
from repro.parallel.bench import (  # noqa: E402
    BENCH_SYNC_EVERY, bench_engine_config, bench_engine_spec,
)
from repro.streams.workloads import fig9_workload  # noqa: E402

kind = sys.argv[1]
if kind == "serial":
    Session.adaptive(fig9_workload(6, window=48), bench_engine_config()).plan
elif kind == "churn":
    from repro.scenarios.library import SCENARIOS, build_scenario_workload

    workload = build_scenario_workload(SCENARIOS["key_skew_churn"], 4000)
    Session.adaptive(workload, bench_engine_config(batch_size=64)).plan
elif kind == "sharded":
    from functools import partial

    from repro.parallel.adaptivity import AdaptivityConfig
    from repro.parallel.engine import ParallelConfig, ParallelEngine
    from repro.parallel.partitioner import scheme_for_workload
    from repro.parallel.spec import ExperimentSpec

    ParallelEngine(ParallelConfig(2, "process"))
    spec = ExperimentSpec(
        workload_factory=partial(fig9_workload, 6, window=48),
        arrivals=16_000,
        engine=bench_engine_spec(),
        output_mode="deltas",
        adaptivity=AdaptivityConfig(sync_every_updates=BENCH_SYNC_EVERY),
    )
    scheme_for_workload(spec.workload_factory(), 2)
    spec.engine.build(spec.workload_factory())
else:
    raise SystemExit(f"unknown set-up kind {kind!r}")
print(f"{time.perf_counter() - started:.9f}")
