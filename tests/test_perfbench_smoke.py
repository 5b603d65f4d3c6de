"""Smoke run of the benchmark: one traced pass of the blur2d workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_blur2d_pass_is_correct_and_reports_every_layer_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blur2d", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    # first_diff_2d takes the direct inner solve: no LSQR at all
    assert result["metrics"]["lsqr.calls"]["value"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
