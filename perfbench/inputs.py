"""Input streams, generated from the benchmark seed before any timing.

Both streams are built with the program's own public generators
(``repro.streams`` and the scenario library), so generation time is the
``streams`` layer's and is reported as ``streams.gen_s``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.scenarios.library import SCENARIOS, build_scenario_workload
from repro.streams.generators import SequentialValues, StreamSpec
from repro.streams.workloads import Workload, fig9_workload

STAR_N = 6
STAR_WINDOW = 48
# Per-stream key offsets are drawn from range(STAR_MAX_OFFSET): well under
# the smallest window (48), so every seed keeps Figure 9's overlap shape.
# Wider offsets make the engine's cache choices, and so its speed, swing
# more from seed to seed (IQR 12% of the median at 4, 7% at 2).
STAR_MAX_OFFSET = 2


def star_workload(seed: int) -> Workload:
    """Fig. 9 6-way star (window 48) with seed-drawn key offsets."""
    workload = fig9_workload(STAR_N, window=STAR_WINDOW)
    rng = random.Random(seed)
    for name in workload.graph.relations:
        multiplicity = workload.rates[name]
        workload.specs[name] = StreamSpec(
            name, ("A",),
            {"A": SequentialValues(
                multiplicity, offset=rng.randrange(STAR_MAX_OFFSET))},
        )
    return workload


def churn_workload(seed: int, arrivals: int) -> Workload:
    """The ``key_skew_churn`` library scenario, seeded by the benchmark."""
    scenario = dict(SCENARIOS["key_skew_churn"], seed=seed)
    return build_scenario_workload(scenario, arrivals)


def generate(workload: Workload, arrivals: int) -> Tuple[list, float]:
    """Materialize ``arrivals`` stream tuples; returns (updates, seconds)."""
    started = time.perf_counter()
    updates = list(workload.updates(arrivals))
    return updates, time.perf_counter() - started


def query_shape(workload) -> Tuple[Dict[str, Tuple[str, ...]],
                                   List[Tuple[str, str, str, str]],
                                   Dict[str, int]]:
    """Schemas, equi-join predicates and window sizes, as plain values.

    Read from the workload's public attributes so the oracle can be built
    without touching any engine structure.
    """
    schemas = {
        name: tuple(schema.attributes)
        for name, schema in workload.graph.schemas.items()
    }
    predicates = [
        (p.left.relation, p.left.attribute, p.right.relation,
         p.right.attribute)
        for p in workload.graph.base_predicates
    ]
    return schemas, predicates, dict(workload.windows)
