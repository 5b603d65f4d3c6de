"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria 1, 2, 4, 5 (its conditioning half) and 8 run the same
checks as ``krylreg verify``, on larger cases.
"""

import subprocess
import sys

import numpy as np
from conftest import pinv_oracle, rectangular_baart

from krylreg.harness import (
    _bidiag_recurrence_check,
    _condition_monotonicity_check,
    _gap_ordering_check,
    _identity_collapse_check,
    _krylov_state,
    _lsqr_pinv_check,
)
from krylreg.hybrid import hyb_cgme_step, hyb_tcgme_step, run_hybrid
from krylreg.metrics import analyze_curve
from krylreg.operators import DenseOperator
from krylreg.problems import add_noise, build_problem, gen_shaw, make_L
from krylreg.solvers import cgme_iterate, tcgme_iterate

SEED = 20240101  # documented reproduction seed
RECTANGULAR = ((120, 80), (80, 120))  # tall and wide A for criteria 2 and 3


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def report_checks(name: str, checks, note: str = "") -> None:
    """One PASS/FAIL line for a criterion that passes when all its checks do."""
    report(name, all(check.passed for check in checks), "; ".join(check.detail for check in checks) + note)


def test_criterion_1_bidiagonalization_exactness():
    rng = np.random.default_rng(SEED)
    A, x_true, b_true = gen_shaw(64)
    cases = [
        (DenseOperator(rng.standard_normal((120, 90))), rng.standard_normal(120)),
        (A, add_noise(b_true, 1e-2, SEED)),
    ]
    checks = [_bidiag_recurrence_check(_krylov_state(op, b, 30)) for op, b in cases]
    report_checks("criterion-1 bidiagonalization exactness", checks, " (random 120x90; shaw(64))")


def test_criterion_2_rank_k_gap_orderings():
    cases = [(f"{name}(64)", build_problem(name, 64, 1e-2, SEED)) for name in ("shaw", "heat")]
    cases += [(f"baart({m}x{n})", rectangular_baart(m, n, "first_diff_1d", seed=SEED)) for m, n in RECTANGULAR]
    checks = []
    for label, problem in cases:
        state = _krylov_state(problem.A, problem.b, 17)
        checks.append(_gap_ordering_check(state, min(15, state.k - 2), label))
    report_checks("criterion-2 rank-k gap orderings", checks)


def test_criterion_3_closed_form_equivalence():
    tight = 1e-10
    worst = 0.0
    problems = [build_problem(name, 200, 1e-2, SEED) for name in ("shaw", "deriv2")]
    problems += [rectangular_baart(m, n, "first_diff_1d", seed=SEED) for m, n in RECTANGULAR]
    for problem in problems:
        state = _krylov_state(problem.A, problem.b, 11)
        for k in (2, 5, 10):
            for step, krylov, cols in (
                (hyb_cgme_step, cgme_iterate, k),
                (hyb_tcgme_step, tcgme_iterate, k + 1),
            ):
                it = step(state, problem.L, k, tight)
                oracle = pinv_oracle(problem.L, state.Q_cols(cols), krylov(state, k))
                dev = np.linalg.norm(it.x_L - oracle) / np.linalg.norm(oracle)
                worst = max(worst, dev)
    report(
        "criterion-3 closed-form equivalence",
        worst <= 1e-5,
        f"max rel deviation {worst:.2e} (shaw/deriv2 n=200, baart 120x80/80x120, k in {{2,5,10}})",
    )


def test_criterion_4_identity_collapse():
    problem = build_problem("shaw", 500, 1e-2, SEED, L_kind="identity")
    state = _krylov_state(problem.A, problem.b, 21)
    k_cgme, k_tcgme = min(20, state.k), min(20, state.k - 1)
    check = _identity_collapse_check(state, problem.L, range(1, k_cgme + 1), range(1, k_tcgme + 1))
    report_checks("criterion-4 identity collapse", [check], f" (shaw(500), k<={k_cgme})")


def test_criterion_5_conditioning_monotonicity_and_inner_work():
    # conditioning of the projected regularizer along one Krylov sequence
    problem = build_problem("deriv2", 200, 1e-2, SEED)
    state = _krylov_state(problem.A, problem.b, 60)
    rng = np.random.default_rng(SEED + 1)
    regs = {
        "L1(200)": DenseOperator(make_L("first_diff_1d", 200).to_dense()),
        "random 220x200": DenseOperator(rng.standard_normal((220, 200))),
    }
    checks = [_condition_monotonicity_check(state, L, label) for label, L in regs.items()]

    # inner LSQR work decreases with k on shaw(1000)
    shaw = build_problem("shaw", 1000, 1e-2, SEED)
    record = run_hybrid(shaw, ("hyb_cgme",), max_outer_k=20)["hyb_cgme"]
    iters = np.array([row.inner_iterations for row in record.rows], dtype=float)
    quarter = max(len(iters) // 4, 1)
    first, last = iters[:quarter].mean(), iters[-quarter:].mean()
    report(
        "criterion-5 conditioning monotonicity",
        all(c.passed for c in checks) and last <= first,
        f"kappa non-increasing on {'; '.join(c.detail for c in checks)}; inner iters {first:.1f} -> {last:.1f}",
    )


def test_criterion_6_tolerance_insensitivity():
    worst = 0.0
    probed = []
    for name in ("shaw", "heat"):
        for eps in (1e-1, 1e-2):
            problem = build_problem(name, 500, eps, SEED)
            state = _krylov_state(problem.A, problem.b, 31)
            loose, tight = 1e-6, 1e-10
            for step in (hyb_cgme_step, hyb_tcgme_step):
                kmax = state.k if step is hyb_cgme_step else state.k - 1
                kmax = min(kmax, 30)
                tight_iterates = {k: step(state, problem.L, k, tight).x_L for k in range(1, kmax + 1)}
                errs = [
                    np.linalg.norm(problem.L.apply(tight_iterates[k] - problem.x_true))
                    for k in range(1, kmax + 1)
                ]
                k0 = int(np.argmin(errs)) + 1
                for k in range(1, min(k0 + 3, kmax) + 1):
                    x_loose = step(state, problem.L, k, loose).x_L
                    dev = np.linalg.norm(x_loose - tight_iterates[k]) / np.linalg.norm(tight_iterates[k])
                    worst = max(worst, dev)
                probed.append(f"{name}/{eps:g}/{step.__name__}:k0={k0}")
    report(
        "criterion-6 tolerance insensitivity",
        worst <= 1e-4,
        f"max rel deviation {worst:.2e} over {len(probed)} sweeps",
    )


def test_criterion_7_desk_scale_error_bands():
    shaw = build_problem("shaw", 1000, 1e-2, SEED)
    shaw_sweeps = run_hybrid(shaw, ("hyb_tcgme", "hyb_cgme"), max_outer_k=25)
    shaw_tc, shaw_cg = shaw_sweeps["hyb_tcgme"], shaw_sweeps["hyb_cgme"]
    baart = build_problem("baart", 1000, 1e-2, SEED)
    baart_tc = run_hybrid(baart, ("hyb_tcgme",), max_outer_k=25)["hyb_tcgme"]

    def curve(record):
        return analyze_curve([row.rel_error for row in record.rows])

    shaw_curve, cg_curve, baart_curve = curve(shaw_tc), curve(shaw_cg), curve(baart_tc)

    ok = (
        shaw_curve.best_error <= 0.5
        and shaw_curve.best_error < cg_curve.best_error
        and baart_curve.best_error <= 0.65
        and shaw_curve.interior_minimum
        and baart_curve.interior_minimum
    )
    report(
        "criterion-7 desk-scale error bands",
        ok,
        f"shaw tcgme {shaw_curve.best_error:.4f}(k={shaw_curve.best_k}) vs "
        f"cgme {cg_curve.best_error:.4f}; baart tcgme {baart_curve.best_error:.4f}"
        f"(k={baart_curve.best_k})",
    )


def test_criterion_8_lsqr_minimum_norm_oracle():
    rng = np.random.default_rng(SEED)
    systems = []
    for trial in range(30):
        m = int(rng.integers(20, 151))
        n = int(rng.integers(20, 151))
        r = int(rng.integers(5, min(m, n)))
        U = np.linalg.qr(rng.standard_normal((m, r)))[0]
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        svals = rng.uniform(0.5, 3.0, r)
        systems.append((DenseOperator(U @ np.diag(svals) @ V.T), rng.standard_normal(m), 4 * min(m, n)))
    report_checks("criterion-8 lsqr minimum-norm oracle", [_lsqr_pinv_check(systems)], " over 30 rank-deficient systems")


def test_criterion_9_verify_determinism(tmp_path):
    outputs = []
    for i in range(2):
        out = tmp_path / f"verify{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "krylreg.cli", "verify", "--seed", str(SEED), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    report(
        "criterion-9 verify determinism",
        outputs[0] == outputs[1],
        f"summary CSVs identical ({len(outputs[0])} bytes)",
    )
