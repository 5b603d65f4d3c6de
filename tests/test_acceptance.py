"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the summary battery is also reachable via ``krylreg verify``.
"""

import subprocess
import sys

import numpy as np

from krylreg.bidiag import GolubKahanBreakdown, bidiag_extend, bidiag_init, extract_matrices
from krylreg.hybrid import HybridConfig, hyb_cgme_step, hyb_tcgme_step, run_hybrid
from krylreg.lsqr import LsqrConfig, lsqr_solve
from krylreg.metrics import analyze_curve, gamma_gaps, projected_condition
from krylreg.operators import DenseOperator
from krylreg.problems import add_noise, build_problem, gen_shaw, make_L
from krylreg.solvers import cgme_iterate, tcgme_iterate

SEED = 20240101  # documented reproduction seed


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def extend_until(state, A, target):
    try:
        if state.k < target:
            bidiag_extend(state, A, target - state.k)
    except GolubKahanBreakdown:
        pass
    return state.k


def test_criterion_1_bidiagonalization_exactness():
    worst = 0.0
    reached = []
    cases = []
    rng = np.random.default_rng(SEED)
    cases.append(("random 120x90", DenseOperator(rng.standard_normal((120, 90))), rng.standard_normal(120)))
    A, x_true, b_true = gen_shaw(64)
    cases.append(("shaw(64)", A, add_noise(b_true, 1e-2, SEED)))
    for label, op, b in cases:
        state = bidiag_init(op, b)
        k = extend_until(state, op, 30)
        reached.append(f"{label} k={k}")
        mats = extract_matrices(state, k)
        dense = op.entries
        fro = op.frobenius_norm()
        res_right = np.linalg.norm(dense @ state.Q_cols(k) - state.P_cols(k + 1) @ mats.B_kplus, "fro") / fro
        res_left = np.linalg.norm(dense.T @ state.P_cols(k) - state.Q_cols(k) @ mats.B_k.T, "fro") / fro
        P, Q = state.P, state.Q
        orth = max(
            np.abs(P.T @ P - np.eye(P.shape[1])).max(),
            np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(),
        )
        worst = max(worst, res_right, res_left, orth)
    report(
        "criterion-1 bidiagonalization exactness",
        worst <= 1e-10,
        f"max deviation {worst:.2e} ({'; '.join(reached)})",
    )


def test_criterion_2_rank_k_gap_orderings():
    slack = 1e-10
    ok = True
    details = []
    for name in ("shaw", "heat"):
        problem = build_problem(name, 64, 1e-2, SEED)
        state = bidiag_init(problem.A, problem.b)
        reached = extend_until(state, problem.A, 17)
        kmax = min(15, reached - 2)
        reports = {k: gamma_gaps(problem.A, state, k) for k in range(1, kmax + 2)}
        prev_lsqr = float(np.linalg.norm(problem.A.entries, 2))
        for k in range(1, kmax + 1):
            g = reports[k]
            ok &= g.gamma_lsqr < g.gamma_cgme + slack
            ok &= g.gamma_cgme < prev_lsqr + slack
            ok &= reports[k + 1].gamma_cgme < g.gamma_cgme + slack
            ok &= g.gamma_tcgme <= g.theta_min + reports[k + 1].gamma_cgme + slack
            prev_lsqr = g.gamma_lsqr
        details.append(f"{name}(64) k=1..{kmax}")
    report("criterion-2 rank-k gap orderings", ok, "; ".join(details))


def test_criterion_3_closed_form_equivalence():
    tight = HybridConfig(inner=LsqrConfig(tol=1e-10))
    worst = 0.0
    for name in ("shaw", "deriv2"):
        problem = build_problem(name, 200, 1e-2, SEED)
        Ldense = problem.L.to_dense()
        state = bidiag_init(problem.A, problem.b)
        extend_until(state, problem.A, 11)
        for k in (2, 5, 10):
            for step, krylov, cols in (
                (hyb_cgme_step, cgme_iterate, k),
                (hyb_tcgme_step, tcgme_iterate, k + 1),
            ):
                it = step(state, problem.L, k, tight)
                x_k = krylov(state, k)
                Q = state.Q_cols(cols)
                M = Ldense @ (np.eye(200) - Q @ Q.T)
                oracle = x_k - np.linalg.pinv(M, rcond=1e-10) @ (Ldense @ x_k)
                dev = np.linalg.norm(it.x_L - oracle) / np.linalg.norm(oracle)
                worst = max(worst, dev)
    report(
        "criterion-3 closed-form equivalence",
        worst <= 1e-5,
        f"max rel deviation {worst:.2e} (shaw/deriv2 n=200, k in {{2,5,10}})",
    )


def test_criterion_4_identity_collapse():
    problem = build_problem("shaw", 500, 1e-2, SEED, L_kind="identity")
    state = bidiag_init(problem.A, problem.b)
    reached = extend_until(state, problem.A, 21)
    cfg = HybridConfig(inner=LsqrConfig(tol=1e-10))
    worst = 0.0
    k_cgme = min(20, reached)
    for k in range(1, k_cgme + 1):
        x_k = cgme_iterate(state, k)
        it = hyb_cgme_step(state, problem.L, k, cfg)
        worst = max(worst, np.linalg.norm(it.x_L - x_k) / np.linalg.norm(x_k))
    k_tcgme = min(20, reached - 1)
    for k in range(1, k_tcgme + 1):
        x_k = tcgme_iterate(state, k)
        it = hyb_tcgme_step(state, problem.L, k, cfg)
        worst = max(worst, np.linalg.norm(it.x_L - x_k) / np.linalg.norm(x_k))
    report(
        "criterion-4 identity collapse",
        worst <= 1e-8,
        f"max rel deviation {worst:.2e} (shaw(500), k<={k_cgme})",
    )


def test_criterion_5_conditioning_monotonicity_and_inner_work():
    # conditioning of the projected regularizer along one Krylov sequence
    problem = build_problem("deriv2", 200, 1e-2, SEED)
    state = bidiag_init(problem.A, problem.b)
    reached = extend_until(state, problem.A, 60)
    rng = np.random.default_rng(SEED + 1)
    regs = {
        "L1(200)": DenseOperator(make_L("first_diff_1d", 200).to_dense()),
        "random 220x200": DenseOperator(rng.standard_normal((220, 200))),
    }
    ok = True
    for label, L in regs.items():
        prev = np.inf
        for k in range(2, min(60, reached) + 1):
            kappa = projected_condition(L, state.Q_cols(k))
            ok &= kappa <= prev * (1.0 + 1e-10)
            prev = kappa

    # inner LSQR work decreases with k on shaw(1000)
    shaw = build_problem("shaw", 1000, 1e-2, SEED)
    record = run_hybrid(shaw, ("hyb_cgme",), HybridConfig(max_outer_k=20))["hyb_cgme"]
    iters = np.array([row.inner_iterations for row in record.rows], dtype=float)
    quarter = max(len(iters) // 4, 1)
    first, last = iters[:quarter].mean(), iters[-quarter:].mean()
    ok &= last <= first
    report(
        "criterion-5 conditioning monotonicity",
        ok,
        f"kappa non-increasing k=2..{min(60, reached)}; inner iters {first:.1f} -> {last:.1f}",
    )


def test_criterion_6_tolerance_insensitivity():
    worst = 0.0
    probed = []
    for name in ("shaw", "heat"):
        for eps in (1e-1, 1e-2):
            problem = build_problem(name, 500, eps, SEED)
            state = bidiag_init(problem.A, problem.b)
            reached = extend_until(state, problem.A, 31)
            loose = HybridConfig(inner=LsqrConfig(tol=1e-6))
            tight = HybridConfig(inner=LsqrConfig(tol=1e-10))
            for step in (hyb_cgme_step, hyb_tcgme_step):
                kmax = reached if step is hyb_cgme_step else reached - 1
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
    cfg = HybridConfig(max_outer_k=25)
    shaw_sweeps = run_hybrid(shaw, ("hyb_tcgme", "hyb_cgme"), cfg)
    shaw_tc, shaw_cg = shaw_sweeps["hyb_tcgme"], shaw_sweeps["hyb_cgme"]
    baart = build_problem("baart", 1000, 1e-2, SEED)
    baart_tc = run_hybrid(baart, ("hyb_tcgme",), cfg)["hyb_tcgme"]

    def curve(record):
        return analyze_curve([row.rel_error for row in record.rows], ks=[row.k for row in record.rows])

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
    worst = 0.0
    monotone = True
    for trial in range(30):
        m = int(rng.integers(20, 151))
        n = int(rng.integers(20, 151))
        r = int(rng.integers(5, min(m, n)))
        U = np.linalg.qr(rng.standard_normal((m, r)))[0]
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        svals = rng.uniform(0.5, 3.0, r)
        M = DenseOperator(U @ np.diag(svals) @ V.T)
        d = rng.standard_normal(m)
        rep = lsqr_solve(M, d, LsqrConfig(tol=1e-12, max_iters=4 * min(m, n)))
        oracle = np.linalg.pinv(M.entries) @ d
        worst = max(worst, np.linalg.norm(rep.solution - oracle) / np.linalg.norm(oracle))
        monotone &= bool(np.all(np.diff(rep.residual_history) <= 1e-12))
    report(
        "criterion-8 lsqr minimum-norm oracle",
        worst <= 1e-6 and monotone,
        f"max rel deviation {worst:.2e} over 30 rank-deficient systems; monotone={monotone}",
    )


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
