"""Helpers shared by every workload: percentiles, memory, machine block.

Nothing here imports ``repro``; the program is imported only by the
workload modules, after ``run.py`` has put the checkout's ``src`` on the
path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Scratch space for traces, WAL roots, span dumps and result files. It is
# inside the checkout and listed in the root .gitignore.
WORK = os.path.join(ROOT, ".perfbench")


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    frac = position - low
    return float(sorted_values[low] * (1.0 - frac)
                 + sorted_values[high] * frac)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def proc_status_kb(field: str, pid: Optional[int] = None) -> int:
    """A ``VmRSS``/``VmHWM`` style field of /proc/<pid>/status, in kB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def rss_kb(pid: Optional[int] = None) -> int:
    return proc_status_kb("VmRSS", pid)


def hwm_kb(pid: Optional[int] = None) -> int:
    return proc_status_kb("VmHWM", pid)


def stream_digest(items: Iterable[object]) -> str:
    """sha256 over the repr of each input item (the generated stream)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_block(seed: int, digest: str) -> Dict[str, object]:
    """What a result needs to be compared across runs and runners."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "stream_digest": digest,
    }


def setup_times(argv: List[str], repeats: int) -> List[float]:
    """Run ``setup_probe.py`` ``repeats`` times; each prints its seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py")]
            + argv,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def write_json(path: str, payload: object) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
