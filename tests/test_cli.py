import json
import subprocess
import sys

import pytest

from krylreg import cli
from krylreg.harness import VerificationCheck

CLI = [sys.executable, "-m", "krylreg.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, cwd=cwd, timeout=600
    )


def test_list_problems():
    proc = run_cli("list-problems")
    assert proc.returncode == 0
    for name in ("shaw", "baart", "deriv2", "heat", "blur2d"):
        assert name in proc.stdout
    assert "hyb_tcgme" in proc.stdout


def test_tol_help_says_it_applies_only_where_lsqr_runs(monkeypatch, capsys):
    # first_diff_2d's LSQR fallback link runs at --tol, so it is not unused there
    monkeypatch.setenv("COLUMNS", "400")  # one help line per option
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    assert ("inner LSQR tolerance (applies only where LSQR runs: never with --L identity, and with "
            "first_diff_2d only on steps that fall back to LSQR)") in capsys.readouterr().out


def test_run_writes_all_outputs(tmp_path):
    out = tmp_path / "exp"
    proc = run_cli(
        "run", "--problem", "shaw", "--n", "100", "--eps", "0.01",
        "--seed", "7", "--method", "hyb_cgme", "--max-k", "5", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    curve = (tmp_path / "exp.csv").read_text().splitlines()
    assert curve[0] == "method,problem,n,epsilon,seed,k,rel_error,inner_iters,wall_ms"
    assert len(curve) == 6
    summary = (tmp_path / "exp.summary.csv").read_text().splitlines()
    assert summary[0] == "method,problem,epsilon,best_k,best_error,total_wall_ms"
    assert len(summary) == 2
    payload = json.loads((tmp_path / "exp.json").read_text())
    assert payload[0]["method"] == "hyb_cgme"


def test_run_creates_missing_output_directories(tmp_path):
    out = tmp_path / "new" / "dir" / "shaw"
    proc = run_cli("run", "--problem", "shaw", "--n", "64", "--eps", "0.01", "--method", "cgme",
                   "--max-k", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.parent.iterdir()) == ["shaw.csv", "shaw.json", "shaw.summary.csv"]


def test_verify_creates_missing_output_directories(tmp_path):
    out = tmp_path / "new" / "dir" / "verify.csv"
    proc = run_cli("verify", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_text().startswith("method,problem,epsilon,best_k,best_error,total_wall_ms\n")


def test_verify_reports_a_failed_check_and_exits_1(tmp_path, monkeypatch, capsys):
    failing = VerificationCheck(name="stub-check", passed=False, detail="measured 1.0 > bound 0.5")
    monkeypatch.setattr(cli, "verification_suite", lambda seed: ([failing], []))
    assert cli.main(["verify", "--out", str(tmp_path / "verify.csv")]) == 1
    assert "FAIL stub-check: measured 1.0 > bound 0.5\n" in capsys.readouterr().out


def test_run_accepts_config_file(tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(
        json.dumps(
            {
                "problem": "deriv2",
                "size": 64,
                "epsilons": [0.05],
                "seed": 5,
                "methods": ["cgme"],
                "max_outer_k": 4,
            }
        )
    )
    out = tmp_path / "cfg"
    proc = run_cli("run", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cfg.csv").exists()


def test_run_rejects_spec_flags_given_with_config(tmp_path):
    # the config used to win silently: seed 1, 4 steps, exit 0
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"problem": "deriv2", "size": 64, "epsilons": [0.05], "seed": 1,
                                  "methods": ["cgme"], "max_outer_k": 4}))
    proc = run_cli("run", "--config", str(config), "--max-k", "2", "--seed", "9", "--tol", "0.5",
                   "--out", str(tmp_path / "cfg"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "--seed, --max-k, --tol" in err["message"]
    assert not (tmp_path / "cfg.csv").exists()


@pytest.mark.parametrize("text", ['"abc"', "[]", "5", "null"])
def test_run_rejects_a_config_that_is_not_a_json_object(text, tmp_path):
    # these reported unknown keys ['a', 'b', 'c'], missing keys, or a TypeError
    config = tmp_path / "spec.json"
    config.write_text(text)
    proc = run_cli("run", "--config", str(config), "--out", str(tmp_path / "cfg"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert (err["error"], err["message"].split(",")[0]) == ("ValueError", "config must be a JSON object")
    assert list(tmp_path.iterdir()) == [config]


def test_run_missing_flags_errors_with_json(tmp_path):
    proc = run_cli("run", "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "missing" in err["message"]
    # a flag given as 0 is present, and fails the spec's own check
    proc = run_cli("run", "--problem", "shaw", "--n", "0", "--eps", "0.01", "--method", "cgme",
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 1
    assert "size must be an integer" in json.loads(proc.stderr.strip().splitlines()[-1])["message"]


def test_run_invalid_problem_errors_with_json(tmp_path):
    proc = run_cli(
        "run", "--problem", "shaw", "--n", "99", "--eps", "0.01",
        "--method", "cgme", "--out", str(tmp_path / "y"),
    )
    # an odd shaw size fails the spec's check, before any run or output file
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"] == "shaw size must be even, got 99"
    assert list(tmp_path.iterdir()) == []


def test_deterministic_output_flag(tmp_path):
    outputs = []
    for i in range(2):
        out = tmp_path / f"d{i}"
        proc = run_cli(
            "run", "--problem", "shaw", "--n", "100", "--eps", "0.01",
            "--seed", "7", "--method", "hyb_cgme", "--max-k", "4",
            "--out", str(out), "--deterministic-output",
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (out.with_suffix(".csv").read_bytes(), (tmp_path / f"d{i}.summary.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_blur2d_exact_path_output_is_deterministic(tmp_path):
    # the exact 2-D inner solve, run twice, writes the same bytes in all
    # three files, and every step took the exact path
    outputs = []
    for i in range(2):
        out = tmp_path / f"b{i}"
        proc = run_cli(
            "run", "--problem", "blur2d", "--n", "24", "--eps", "0.01", "--seed", "20240101",
            "--method", "hyb_cgme", "--method", "hyb_tcgme", "--L", "first_diff_2d",
            "--max-k", "12", "--out", str(out), "--deterministic-output",
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(tuple((tmp_path / f"b{i}{suffix}").read_bytes() for suffix in (".csv", ".summary.csv", ".json")))
    assert outputs[0] == outputs[1]
    records = json.loads(outputs[0][2])
    assert [(r["method"], len(r["rows"]), r["fallbacks"]) for r in records] == [("hyb_cgme", 12, []), ("hyb_tcgme", 12, [])]
    assert all(row["inner_iterations"] == 0 for r in records for row in r["rows"])
