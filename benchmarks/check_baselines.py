#!/usr/bin/env python
"""The baseline-reproduction gate for the deterministic BENCH files.

    PYTHONPATH=src python benchmarks/check_baselines.py [--root DIR]

Re-runs the four deterministic ``repro bench`` modes into a temporary
directory and compares each fresh file with the committed one:

* ``BENCH_batching.json`` — ``bench --batch-sizes 1,4,16,64``
* ``BENCH_recovery.json`` — ``bench --recovery``
* ``BENCH_parallel.json`` — ``bench --shards 1,2,4``
* ``BENCH_multi.json`` — ``bench --multi``

Every number in those files is virtual-clock time or a count, so a fresh
run must match the committed file exactly. The one exception is
``wall_seconds``, real time on the measuring machine, which is ignored
wherever it appears. Any other difference — a changed value, a missing
or extra key, a different list length — fails the check and is printed
with its JSON path.

Exit status: 0 when every baseline reproduces, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import List

BASELINES = {
    "BENCH_batching.json": ["--batch-sizes", "1,4,16,64"],
    "BENCH_recovery.json": ["--recovery"],
    "BENCH_parallel.json": ["--shards", "1,2,4"],
    "BENCH_multi.json": ["--multi"],
}
IGNORED_KEYS = {"wall_seconds"}


def differences(committed, fresh, path: str = "$") -> List[str]:
    """Every JSON path at which ``fresh`` differs from ``committed``."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        found: List[str] = []
        for key in sorted(set(committed) | set(fresh)):
            if key in IGNORED_KEYS:
                continue
            where = f"{path}.{key}"
            if key not in fresh:
                found.append(f"{where}: missing from the fresh run")
            elif key not in committed:
                found.append(f"{where}: not in the committed file")
            else:
                found.extend(differences(committed[key], fresh[key], where))
        return found
    if isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            return [
                f"{path}: {len(committed)} items committed, "
                f"{len(fresh)} fresh"
            ]
        found = []
        for index, (old, new) in enumerate(zip(committed, fresh)):
            found.extend(differences(old, new, f"{path}[{index}]"))
        return found
    if committed != fresh:
        return [f"{path}: committed {committed!r}, fresh {fresh!r}"]
    return []


def regenerate(name: str, args: List[str], directory: str) -> dict:
    """Run one bench mode, writing into ``directory``; returns its JSON."""
    out = os.path.join(directory, name)
    subprocess.run(
        [sys.executable, "-m", "repro", "bench", *args, "--out", out],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="directory holding the committed BENCH files (the repo root)",
    )
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="check-baselines-") as scratch:
        for name, bench_args in BASELINES.items():
            with open(
                os.path.join(args.root, name), "r", encoding="utf-8"
            ) as handle:
                committed = json.load(handle)
            found = differences(
                committed, regenerate(name, bench_args, scratch)
            )
            if found:
                failed = True
                print(f"FAIL {name}: {len(found)} difference(s)")
                for line in found:
                    print(f"  {line}")
            else:
                print(f"ok: {name} reproduces (wall_seconds ignored)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
