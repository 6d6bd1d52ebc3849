"""``repro profile`` and ``repro bench --wall`` end to end.

The CLI is the observability story's front door: serial profiles must
emit run-rooted folded stacks and a loadable pstats dump, sharded
profiles must label every per-shard series, and the wall bench must
write a gateable BENCH_wall.json that the regression checker accepts.
"""

import json
import pstats
import subprocess
import sys
from pathlib import Path

from repro.cli import main

GATE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_wall_regression.py"
)


def run_gate(*argv):
    return subprocess.run(
        [sys.executable, str(GATE), *argv],
        capture_output=True,
        text=True,
    )


def test_profile_serial_emits_flame_pstats_and_coverage(tmp_path, capsys):
    flame = tmp_path / "flame.txt"
    pstats_path = tmp_path / "spans.pstats"
    code = main([
        "profile", "fig9-3way", "--arrivals", "600",
        "--flame", str(flame), "--pstats", str(pstats_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "span coverage" in out
    assert "update:R" in out
    lines = flame.read_text().splitlines()
    assert lines
    assert all(line.startswith("run") for line in lines)
    names = {key[2] for key in pstats.Stats(str(pstats_path)).stats}
    assert "run" in names


def test_profile_sharded_labels_every_shard(tmp_path, capsys):
    prom = tmp_path / "metrics.prom"
    flame = tmp_path / "flame.txt"
    code = main([
        "profile", "fig9-6way", "--arrivals", "2000", "--shards", "4",
        "--prometheus", str(prom), "--flame", str(flame),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "4 shards" in out
    dump = prom.read_text()
    for shard in range(4):
        assert f'repro_cache_probes_total{{shard="{shard}"}}' in dump
    folded = flame.read_text()
    for shard in range(4):
        assert f"shard {shard};run" in folded


def test_profile_unknown_experiment_fails_cleanly(capsys):
    assert main(["profile", "nope"]) == 1
    assert "unknown profile experiment" in capsys.readouterr().err


def test_profile_rejects_bad_batch_size(capsys):
    assert main(["profile", "demo", "--batch-size", "0"]) == 1
    assert "--batch-size" in capsys.readouterr().err


def test_bench_wall_writes_a_gateable_baseline(tmp_path, capsys):
    out_path = tmp_path / "wall.json"
    code = main([
        "bench", "--wall", "--arrivals", "600", "--repeats", "1",
        "--backend", "serial", "--out", str(out_path),
    ])
    assert code == 0
    assert "profiler overhead" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["benchmark"] == "wall"
    assert payload["schema_version"] == 2
    assert set(payload["machine"]) == {"nproc", "python", "platform"}
    assert {p["mode"] for p in payload["points"]} == {
        "serial", "batched", "sharded",
    }
    overhead = payload["overhead"]
    assert overhead["span_crossings"] > 0
    assert 0.0 <= overhead["disabled_overhead_fraction"] <= (
        payload["tolerances"]["disabled_overhead_max"]
    )
    # Ranking within the table is load-dependent at this tiny scale;
    # membership is not.
    assert "run" in {row["span"] for row in payload["hotspots"]}

    # The freshly measured file passes the gate against itself.
    result = run_gate(str(out_path), "--baseline", str(out_path))
    assert result.returncode == 0, result.stdout + result.stderr


def wall_payload(disabled=0.01, serial_wall=1.0):
    return {
        "benchmark": "wall",
        "points": [
            {"mode": "serial", "wall_seconds": serial_wall},
            {"mode": "batched", "wall_seconds": serial_wall},
            {"mode": "sharded", "wall_seconds": serial_wall},
        ],
        "overhead": {"disabled_overhead_fraction": disabled},
        "tolerances": {
            "disabled_overhead_max": 0.03, "wall_rel_tol": 0.50,
        },
    }


def test_gate_fails_on_overhead_even_in_warn_only_mode(tmp_path):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(wall_payload()))
    fresh.write_text(json.dumps(wall_payload(disabled=0.10)))
    result = run_gate(str(fresh), "--baseline", str(baseline), "--warn-only")
    assert result.returncode == 1
    assert "exceeds" in result.stderr


def test_gate_downgrades_wall_drift_with_warn_only(tmp_path):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(wall_payload()))
    fresh.write_text(json.dumps(wall_payload(serial_wall=3.0)))
    strict = run_gate(str(fresh), "--baseline", str(baseline))
    assert strict.returncode == 1
    lenient = run_gate(str(fresh), "--baseline", str(baseline), "--warn-only")
    assert lenient.returncode == 0
    assert "warning" in lenient.stdout


def test_gate_prints_both_machine_blocks_when_it_warns(tmp_path):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps(wall_payload()))  # v1: no machine
    drifted = dict(
        wall_payload(serial_wall=3.0),
        schema_version=2,
        machine={"nproc": 2, "python": "3.11.7", "platform": "Linux-x"},
    )
    fresh.write_text(json.dumps(drifted))
    result = run_gate(str(fresh), "--baseline", str(baseline), "--warn-only")
    assert result.returncode == 0
    assert '"nproc": 2' in result.stdout
    assert "unrecorded" in result.stdout
    quiet = run_gate(str(fresh), "--baseline", str(fresh), "--warn-only")
    assert "machine" not in quiet.stdout


def test_gate_rejects_an_unknown_schema_version(tmp_path):
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(dict(wall_payload(), schema_version=3)))
    result = run_gate(str(fresh), "--baseline", str(fresh))
    assert result.returncode != 0
    assert "schema_version 3" in result.stderr
