"""Smoke runs of the scripts that reproduce the desk and blur tables."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from krylreg.harness import CURVE_COLUMNS, SUMMARY_COLUMNS
from krylreg.hybrid import RunRecord, RunRow

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args,suffixes",
    [
        ("run_desk_tables.py", ("--n", "64", "--max-k", "3"), (".csv", ".summary.csv", ".json")),
        ("run_blur2d.py", ("--side", "16", "--max-k", "3"), (".csv", ".summary.csv", ".json")),
    ],
)
def test_script_writes_its_tables(tmp_path, script, args, suffixes):
    out = tmp_path / "tables"
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"tables{s}" for s in suffixes)
    curve = (tmp_path / "tables.csv").read_text().splitlines()
    summary = (tmp_path / "tables.summary.csv").read_text().splitlines()
    assert curve[0] == CURVE_COLUMNS and len(curve) > 1
    assert summary[0] == SUMMARY_COLUMNS and len(summary) > 1
    records = json.loads((tmp_path / "tables.json").read_text())
    assert len(records) == len(summary) - 1 and all("interior_minimum" in rec for rec in records)


@pytest.mark.parametrize("script", ["run_desk_tables.py", "run_blur2d.py"])
def test_script_prints_a_run_that_broke_down_before_any_step(tmp_path, monkeypatch, capsys, script):
    # an error-free record with no rows has no best error to print
    def broke_down(spec):
        return [RunRecord(method=method, problem=spec.problem, size=spec.size, epsilon=eps, seed=spec.seed,
                          breakdown="zero right-hand side") for eps in spec.epsilons for method in spec.methods]

    module = runpy.run_path(str(SCRIPTS / script))
    monkeypatch.setitem(module["main"].__globals__, "run_experiment", broke_down)
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path / "tables")])
    assert module["main"]() == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "eps=" in line]
    assert lines and all(line.endswith("no outer iterations: zero right-hand side") for line in lines)


@pytest.mark.parametrize("script", ["run_desk_tables.py", "run_blur2d.py"])
def test_script_marks_a_best_that_is_no_interior_minimum(tmp_path, monkeypatch, capsys, script):
    # the first method's curve falls to its last step, the second's turns up
    def swept(spec):
        return [RunRecord(method=method, problem=spec.problem, size=spec.size, epsilon=eps, seed=spec.seed,
                          rows=[RunRow(k, 0.5, 0, 0.0) for k in (1, 2, 3)], best_k=best_k, best_error=0.5,
                          interior_minimum=best_k == 2)
                for eps in spec.epsilons for method, best_k in zip(spec.methods, (3, 2))]

    module = runpy.run_path(str(SCRIPTS / script))
    monkeypatch.setitem(module["main"].__globals__, "run_experiment", swept)
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path / "tables")])
    assert module["main"]() == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "eps=" in line]
    assert lines and all(("(3) (no interior minimum) " in line) == ("(2) " not in line) for line in lines)
    assert {"(no interior minimum)" in line for line in lines} == {True, False}


def test_blur2d_script_prints_each_runs_fallback_count(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_blur2d.py"), "--side", "16", "--max-k", "3",
                           "--out", str(tmp_path / "blur")], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if "eps=" in line]
    assert [line.split()[0] for line in lines] == ["hyb_cgme", "hyb_tcgme"]
    assert all(line.endswith("over 3 outer iterations, 0 LSQR fallbacks") for line in lines)
