"""Smoke runs of the scripts that reproduce the desk and blur tables."""

import subprocess
import sys
from pathlib import Path

import pytest

from krylreg.harness import CURVE_COLUMNS, SUMMARY_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args,suffixes",
    [
        ("run_desk_tables.py", ("--n", "64", "--max-k", "3"), (".csv", ".summary.csv", ".json")),
        ("run_blur2d.py", ("--side", "16", "--max-k", "3"), (".csv", ".summary.csv")),
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
