"""Smoke runs of the benchmark: one traced pass of each workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Work counts that do not depend on the machine.  One Krylov process per
# (problem, noise level), read by every method: krylov_identity sweeps 2
# problems to max_outer_k=100, so TCGME's 101 columns each; blur2d sweeps
# one; desk1d 4 problems at 3 noise levels.  Only desk1d runs the inner
# LSQR: blur2d takes the DCT solve and krylov_identity (L = I) needs none,
# and desk1d's iteration count pins LSQR's path, step for step.  Its 12
# cap hits are the hyb_cgme k=1 solves, one per (problem, noise level):
# that inner system is consistent, and the backward-error test, the only
# stop test, never fires on a consistent system.
COUNTS = {
    "blur2d": {"bidiag.inits": 1, "lsqr.calls": 0},
    "krylov_identity": {"bidiag.inits": 2, "bidiag.steps": 202, "lsqr.calls": 0},
    "desk1d": {"bidiag.inits": 12, "lsqr.calls": 540, "lsqr.iters": 167_461, "lsqr.cap_hits": 12},
}


@pytest.mark.parametrize("workload", COUNTS)
def test_traced_pass_is_correct_and_reports_every_layer_metric(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    self_check, counts_repeat = report["trace"]["self_check"], report["trace"]["counts_repeat"]
    diagnostics = f"failures={report['failures']} self_check={self_check} counts_repeat={counts_repeat}"
    assert result["correct"] is True, diagnostics
    assert result["failed"] == 0
    assert self_check and all(self_check.values()), f"self_check={self_check}"
    assert counts_repeat is True, f"counts_repeat={counts_repeat}"
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, expected in COUNTS[workload].items():
        assert metrics[name] == expected, name
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
