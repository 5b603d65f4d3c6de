"""Smoke runs of the benchmark: one traced pass each of the blur2d and
krylov_identity workloads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One Krylov process per (problem, noise level), read by every method:
# krylov_identity sweeps 2 problems to max_outer_k=100, so TCGME's 101
# columns each; blur2d sweeps one.
SHARED_BIDIAG = {
    "blur2d": {"bidiag.inits": 1},
    "krylov_identity": {"bidiag.inits": 2, "bidiag.steps": 202},
}


@pytest.mark.parametrize("workload", SHARED_BIDIAG)
def test_traced_pass_is_correct_and_reports_every_layer_metric(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert report["trace"]["self_check"] and all(report["trace"]["self_check"].values())
    assert report["trace"]["counts_repeat"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, expected in SHARED_BIDIAG[workload].items():
        assert metrics[name] == expected, name
    if workload == "blur2d":
        # first_diff_2d takes the direct inner solve: no LSQR at all
        assert metrics["lsqr.calls"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
