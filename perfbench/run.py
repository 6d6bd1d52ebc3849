"""The repository benchmark: one command, five workloads.

    python3 perfbench/run.py --workload star6-serial --seed 1 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn; BENCHMARK.json names the
two that are gated and every metric with its unit. With ``--trace 0``
the run reports the end-to-end metrics, measured with no tracing; with
``--trace 1`` it reports the per-layer metrics of a separate traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every checked update matched
the oracle (``failed_fraction`` = 0) and the oracle caught a deliberately
corrupted delta. See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("star6-serial", "churn-batch64", "star6-sharded2",
             "serve-memory", "serve-durable")


def _metric_units(section: str) -> dict:
    """Metric name -> unit for one BENCHMARK.json section, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from common import WORK, machine_block, write_json

    started = time.perf_counter()
    if workload.startswith("serve-"):
        from serve_bench import run_serve

        run = run_serve(seed, seconds, trace,
                        durable=workload == "serve-durable")
        extra = {"passes": [p.as_dict() for p in run.passes],
                 "latency_phases": [p.as_dict()
                                    for p in run.latency_phases],
                 "steps": [s.as_dict() for s in run.steps]}
    else:
        import engine_bench

        runner = {
            "star6-serial": engine_bench.run_star_serial,
            "churn-batch64": engine_bench.run_churn_batch,
            "star6-sharded2": engine_bench.run_star_sharded,
        }[workload]
        run = runner(seed, seconds, trace)
        extra = {
            "passes": len(run.passes),
            "latency_samples": sum(p.updates for p in run.passes),
            "virtual_us_first_pass": run.first_pass().virtual_us,
            "pass_walls": [(p.variant, p.wall, p.updates)
                           for p in run.passes],
        }
    attempted, failed = run.attempted, run.failed
    first_failure = run.first_failure
    caught = run.corruption_caught
    values = run.end_to_end()
    if trace:
        names = _metric_units("per_layer")
        table = {k: run.layers.get(k, 0.0) for k in names}
    else:
        names, table = _metric_units("end_to_end"), values
    metrics = {
        name: {"value": float(table[name]), "unit": unit}
        for name, unit in names.items()
    }
    machine = machine_block(seed, run.digest)
    correct = failed == 0 and caught and attempted > 0
    report = {
        "workload": workload,
        "trace": int(trace),
        "machine": machine,
        "end_to_end": values,
        "layers": run.layers,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "corruption_caught": caught,
        "first_failure": first_failure,
        "notes": run.notes,
        "wall_s": time.perf_counter() - started,
        **extra,
    }
    write_json(os.path.join(
        WORK, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"),
        report)
    print(f"== {workload} (seed {seed}, trace {int(trace)})")
    print("machine: " + json.dumps(machine, sort_keys=True))
    if trace:
        # The traced run's untraced passes give the end-to-end figures
        # too; they are printed here, while the JSON carries the layers.
        for name, unit in _metric_units("end_to_end").items():
            print(f"  {name:40s} {values[name]:14.6g} {unit} (untraced)")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'failed_fraction':40s} {report['failed_fraction']:14.6g} "
          f"ratio ({failed}/{attempted} updates checked)")
    if not caught:
        print("  oracle self-check: a corrupted delta was NOT caught")
    if first_failure:
        print(f"  first failure: {first_failure}")
    for step in extra.get("steps", ()):
        print("  step " + json.dumps(step, sort_keys=True))
    for note in run.notes:
        print(f"  note: {note}")
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program source at {src}/repro; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload] = _run_one(workload, args.seed, args.seconds,
                                     bool(args.trace))
    ok = all(r["correct"] for r in results.values())
    if len(results) == 1:
        print(json.dumps(next(iter(results.values())), sort_keys=True))
    else:
        print(json.dumps(results, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
