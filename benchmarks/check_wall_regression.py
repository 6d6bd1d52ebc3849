#!/usr/bin/env python
"""The wall-clock perf-regression gate (compares BENCH_wall.json runs).

    python benchmarks/check_wall_regression.py fresh.json \
        [--baseline BENCH_wall.json] [--warn-only]

Two checks, with deliberately different teeth:

* **Profiler overhead** (hard failure, never downgraded): the fresh
  run's measured disabled-profiler guard cost must stay within the
  baseline's committed ``disabled_overhead_max`` budget (3%). This is a
  property of the instrumentation code — guard-pair cost × crossing
  count over the run's wall time — so it is stable even on noisy
  shared runners.
* **Wall throughput drift** (``--warn-only`` downgrades to warnings):
  each mode's median wall seconds must stay within ``wall_rel_tol`` of
  the committed baseline. Shared CI runners routinely swing real wall
  time by tens of percent, so CI pins this to warn-only; run without
  the flag on quiet hardware to make drift a failure.

Schema versions 1 and 2 are accepted; version 2 adds the ``machine``
block (core count, Python version, platform), and both files' blocks are
printed whenever a check warns, so drift can be told apart from a
different runner.

Exit status: 0 when every hard check passes (warnings allowed), 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

SUPPORTED_SCHEMAS = (1, 2)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("benchmark") != "wall":
        raise SystemExit(f"{path} is not a BENCH_wall.json payload")
    version = payload.get("schema_version", 1)
    if version not in SUPPORTED_SCHEMAS:
        raise SystemExit(
            f"{path} has wall schema_version {version}; this gate reads "
            f"{', '.join(map(str, SUPPORTED_SCHEMAS))}"
        )
    return payload


def machine_line(payload: dict) -> str:
    machine = payload.get("machine")
    if not machine:
        return "unrecorded (schema_version 1)"
    return json.dumps(machine, sort_keys=True)


def check(fresh: dict, baseline: dict, warn_only: bool) -> int:
    tolerances = baseline.get("tolerances", {})
    overhead_max = tolerances.get("disabled_overhead_max", 0.03)
    wall_rel_tol = tolerances.get("wall_rel_tol", 0.60)
    errors: List[str] = []
    warnings: List[str] = []

    measured = fresh["overhead"]["disabled_overhead_fraction"]
    if measured > overhead_max:
        errors.append(
            f"disabled-profiler overhead {measured:.3%} exceeds the "
            f"{overhead_max:.0%} budget"
        )
    else:
        print(
            f"ok: disabled-profiler overhead {measured:.3%} "
            f"(budget {overhead_max:.0%})"
        )

    committed = {p["mode"]: p for p in baseline["points"]}
    for point in fresh["points"]:
        reference = committed.get(point["mode"])
        if reference is None:
            warnings.append(f"mode {point['mode']!r} not in the baseline")
            continue
        drift = (
            point["wall_seconds"] / reference["wall_seconds"] - 1.0
            if reference["wall_seconds"] > 0
            else 0.0
        )
        line = (
            f"{point['mode']}: {point['wall_seconds']:.3f}s vs committed "
            f"{reference['wall_seconds']:.3f}s ({drift:+.1%}, "
            f"tolerance ±{wall_rel_tol:.0%})"
        )
        if abs(drift) > wall_rel_tol:
            (warnings if warn_only else errors).append(line)
        else:
            print(f"ok: {line}")

    for line in warnings:
        print(f"warning: {line}")
    if warnings:
        print(f"machine (fresh):    {machine_line(fresh)}")
        print(f"machine (baseline): {machine_line(baseline)}")
    for line in errors:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly measured bench --wall JSON")
    parser.add_argument(
        "--baseline", default="BENCH_wall.json",
        help="committed baseline to gate against (default BENCH_wall.json)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report wall-drift violations as warnings, not failures "
             "(the overhead budget still hard-fails)",
    )
    args = parser.parse_args(argv)
    return check(load(args.fresh), load(args.baseline), args.warn_only)


if __name__ == "__main__":
    sys.exit(main())
