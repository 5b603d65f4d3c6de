import dataclasses
import gc
import json
import types

import numpy as np
import pytest
from conftest import pinv_oracle, rectangular_baart

from krylreg.bidiag import GolubKahanBreakdown, bidiag_extend, bidiag_init
from krylreg.harness import (
    CURVE_COLUMNS,
    _bidiag_recurrence_check,
    _identity_collapse_check,
    _krylov_state,
    emit_csv,
    records_to_json,
)
from krylreg.hybrid import METHODS, KrylovIterate, hyb_cgme_step, hyb_tcgme_step, run_hybrid
from krylreg.inner import LsqrSolver, inner_solvers
from krylreg.metrics import analyze_curve
from krylreg.operators import DenseOperator, IdentityOperator
from krylreg.problems import ProblemInstance, build_problem, make_L
from krylreg.solvers import cgme_iterate, tcgme_iterate

TIGHT = 1e-10


def prepared(name, n, k_steps, eps=1e-2, seed=21, L_kind="first_diff_1d"):
    problem = build_problem(name, n, eps, seed, L_kind=L_kind)
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, k_steps)
    return problem, state


def ks(record):
    return [row.k for row in record.rows]


def rel_errors(record):
    return [row.rel_error for row in record.rows]


def inner_iterations(record):
    return [row.inner_iterations for row in record.rows]


def test_inner_solve_identity_regularizer_keeps_iterate():
    problem, state = prepared("shaw", 200, 6, L_kind="identity")
    for k in (2, 5):
        x_k = cgme_iterate(state, k)
        x_L = LsqrSolver(problem.L, TIGHT).solve(state.Q_cols(k), x_k).x_L
        np.testing.assert_allclose(x_L, state.Q_cols(k) @ (state.Q_cols(k).T @ x_k), atol=1e-8)
        assert np.linalg.norm(x_L - x_k) <= 1e-8 * np.linalg.norm(x_k) + 1e-12


def test_inner_solve_null_space_rhs_gives_zero():
    problem, state = prepared("shaw", 100, 4)
    L = problem.L
    x_null = np.ones(100)  # constants are in the null space of first differences
    answer = LsqrSolver(L, TIGHT).solve(state.Q_cols(3), x_null)
    # L x_null = 0 stops LSQR on an exact breakdown before its first iteration
    assert (answer.inner_backward_error, answer.inner_iterations, answer.inner_cap_hit) == (0.0, 0, False)
    np.testing.assert_allclose(x_null - answer.x_L, np.zeros(100), atol=1e-14)


def test_inner_solve_matches_dense_pinv_oracle():
    problem, state = prepared("shaw", 200, 6)
    k = 5
    x_k = cgme_iterate(state, k)
    x_L = LsqrSolver(problem.L, TIGHT).solve(state.Q_cols(k), x_k).x_L
    z = x_k - x_L
    oracle = x_k - pinv_oracle(problem.L, state.Q_cols(k), x_k)
    assert np.linalg.norm(z - oracle) <= 1e-5 * np.linalg.norm(oracle)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_inner_correction_stays_in_the_complement_of_the_krylov_basis(k):
    # one projection per LSQR iteration keeps every right vector, so z,
    # in null(Q^T) to rounding
    problem, state = prepared("shaw", 200, 10)
    Q = state.Q_cols(k)
    x_k = cgme_iterate(state, k)
    x_L = LsqrSolver(problem.L, TIGHT).solve(Q, x_k).x_L
    z = x_k - x_L
    assert np.linalg.norm(Q.T @ z) <= 1e-13 * np.linalg.norm(z)


def test_hyb_cgme_identity_collapse():
    problem, state = prepared("shaw", 500, 12, L_kind="identity")
    check = _identity_collapse_check(state, problem.L, (3, 8, 12), ())
    assert check.passed, check.detail


def test_hyb_tcgme_identity_collapse():
    problem, state = prepared("shaw", 500, 13, L_kind="identity")
    check = _identity_collapse_check(state, problem.L, (), (3, 8, 12))
    assert check.passed, check.detail


def test_hyb_cgme_matches_closed_form_oracle_on_heat():
    problem, state = prepared("heat", 200, 4)
    k = 3
    it = hyb_cgme_step(state, problem.L, k, TIGHT)
    # Closed form through the projected-operator pseudo-inverse identity:
    # x_L = (I - pinv(L(I - P+P)) L) x_k with P the rank-k projection.
    A = problem.A.to_dense()
    Pk = state.P_cols(k)
    Qk = state.Q_cols(k)
    Bk = Pk.T @ A @ Qk
    P_cgme = Pk @ Bk @ Qk.T
    n = A.shape[1]
    Ldense = problem.L.to_dense()
    M = Ldense @ (np.eye(n) - np.linalg.pinv(P_cgme, rcond=1e-10) @ P_cgme)
    x_k = cgme_iterate(state, k)
    oracle = x_k - np.linalg.pinv(M, rcond=1e-10) @ (Ldense @ x_k)
    assert np.linalg.norm(it.x_L - oracle) <= 1e-5 * np.linalg.norm(oracle)


@pytest.mark.parametrize("name", ["deriv2", "heat"])
def test_structured_operator_sweeps_match_the_dense_matrix(name):
    # the O(n) products against the dense matrix they stand for: the worst
    # per-k shift measured at n=200 over 4 seeds and eps 1e-1..1e-3 is
    # 2.1e-13 relative
    problem = build_problem(name, 200, 1e-2, 20240101)
    dense = dataclasses.replace(problem, A=DenseOperator(problem.A.to_dense()))
    methods = ("hyb_cgme", "hyb_tcgme")
    fast = run_hybrid(problem, methods, max_outer_k=30)
    slow = run_hybrid(dense, methods, max_outer_k=30)
    for method in methods:
        assert fast[method].best_k == slow[method].best_k
        assert ks(fast[method]) == ks(slow[method])
        np.testing.assert_allclose(rel_errors(fast[method]), rel_errors(slow[method]), rtol=2e-12, atol=0)


def test_hyb_tcgme_matches_closed_form_oracle_on_shaw():
    problem, state = prepared("shaw", 200, 6)
    k = 5
    it = hyb_tcgme_step(state, problem.L, k, TIGHT)
    x_k = tcgme_iterate(state, k)
    oracle = pinv_oracle(problem.L, state.Q_cols(k + 1), x_k)
    assert np.linalg.norm(it.x_L - oracle) <= 1e-5 * np.linalg.norm(oracle)


def test_correction_preserves_projected_constraint():
    problem, state = prepared("shaw", 150, 5)
    k = 4

    # cgme: the projected square system is solved exactly, both residuals
    # sit at roundoff level; compare on the scale of b.
    it = hyb_cgme_step(state, problem.L, k, TIGHT)
    x_k = cgme_iterate(state, k)
    A = problem.A.entries
    Pk = state.P_cols(k)
    Qk = state.Q_cols(k)
    proj = Pk @ (Pk.T @ A @ Qk) @ Qk.T
    res_hybrid = np.linalg.norm(proj @ it.x_L - problem.b)
    res_krylov = np.linalg.norm(proj @ x_k - problem.b)
    assert abs(res_hybrid - res_krylov) <= 1e-8 * np.linalg.norm(problem.b)

    # tcgme: the rank-deficient projection leaves a genuine residual,
    # which the correction must not change in relative terms.
    it_t = hyb_tcgme_step(state, problem.L, k, TIGHT)
    x_t = tcgme_iterate(state, k)
    P1 = state.P_cols(k + 1)
    Q1 = state.Q_cols(k + 1)
    B1 = P1.T @ A @ Q1
    U, s, Vt = np.linalg.svd(B1)
    C = (U[:, :k] * s[:k]) @ Vt[:k]
    proj_t = P1 @ C @ Q1.T
    res_hybrid_t = np.linalg.norm(proj_t @ it_t.x_L - problem.b)
    res_krylov_t = np.linalg.norm(proj_t @ x_t - problem.b)
    assert res_krylov_t > 0
    assert abs(res_hybrid_t - res_krylov_t) <= 1e-8 * res_krylov_t


def test_hyb_tcgme_minimizes_seminorm_over_feasible_set():
    problem, state = prepared("shaw", 80, 5)
    k = 4
    it = hyb_tcgme_step(state, problem.L, k, TIGHT)
    Q = state.Q_cols(k + 1)
    seminorm = np.linalg.norm(problem.L.apply(it.x_L))
    rng = np.random.default_rng(77)
    for _ in range(100):
        w = rng.standard_normal(80)
        candidate = it.x_L + (w - Q @ (Q.T @ w))
        assert seminorm <= np.linalg.norm(problem.L.apply(candidate)) + 1e-8


def test_run_hybrid_single_step():
    problem = build_problem("shaw", 100, 1e-2, 3)
    record = run_hybrid(problem, ("hyb_cgme",), max_outer_k=1)["hyb_cgme"]
    assert ks(record) == [1]
    assert len(rel_errors(record)) == 1
    assert record.breakdown is None
    assert (record.best_k, record.best_error) == (1, record.rows[0].rel_error)


@pytest.mark.parametrize("depth", [2.5, 3.0, True, 0])
def test_outer_depth_must_be_a_positive_integer(depth):
    # 2.5 would otherwise fail only inside the sweep's range()
    problem = build_problem("shaw", 100, 1e-2, 3)
    with pytest.raises(ValueError, match="max_outer_k"):
        run_hybrid(problem, ("cgme",), max_outer_k=depth)


@pytest.mark.parametrize("tol", [0.0, 1.0, "1e-6"])
def test_run_hybrid_rejects_bad_inner_tol_before_any_work(tol, monkeypatch):
    # unchecked, a bad tolerance would surface only inside LsqrSolver, as
    # the RunRecord.error of each hybrid, and never at all under L = I
    import krylreg.hybrid as hybrid

    def no_work(A, b):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(hybrid, "bidiag_init", no_work)
    problem = build_problem("shaw", 100, 1e-2, 3)
    with pytest.raises(ValueError, match="inner_tol"):
        run_hybrid(problem, ("hyb_cgme", "hyb_tcgme"), inner_tol=tol)


def test_run_hybrid_rejects_unknown_method():
    problem = build_problem("shaw", 100, 1e-2, 3)
    for methods in (("jbdqr",), ("cgme", "jbdqr"), (), "hyb_cgme"):
        with pytest.raises(ValueError):
            run_hybrid(problem, methods, max_outer_k=2)


def test_run_hybrid_rejects_duplicate_methods():
    # a dict keyed by method would silently fold the repeats into one run
    problem = build_problem("shaw", 100, 1e-2, 3)
    for methods in (("cgme", "cgme"), ("hyb_cgme", "tcgme", "hyb_cgme")):
        with pytest.raises(ValueError, match="distinct"):
            run_hybrid(problem, methods, max_outer_k=2)


def test_run_hybrid_semi_convergence_on_shaw():
    problem = build_problem("shaw", 1000, 1e-2, 20240101)
    record = run_hybrid(problem, ("hyb_tcgme",), max_outer_k=16)["hyb_tcgme"]
    curve = analyze_curve(rel_errors(record))
    assert curve.interior_minimum
    assert curve.best_error <= 0.5


def test_run_hybrid_breakdown_truncates_sweep():
    problem = build_problem("baart", 200, 1e-2, 5)
    record = run_hybrid(problem, ("hyb_cgme",), max_outer_k=40)["hyb_cgme"]
    assert record.breakdown is not None
    assert len(ks(record)) < 40
    assert ks(record) == list(range(1, len(ks(record)) + 1))


def test_breakdown_leaves_no_reference_cycle():
    # a kept traceback would hold the sweep's frame, and with it the problem
    # and the Krylov state, until the cyclic garbage collector ran
    problem = build_problem("baart", 200, 1e-2, 5)
    gc.collect()
    gc.disable()
    try:
        record = run_hybrid(problem, ("hyb_cgme",), max_outer_k=40)["hyb_cgme"]
        assert record.breakdown is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def beta_breakdown_problem():
    # 2x2 problem: step 2 ends with beta_3 = 0 (space exhausted), but the
    # k=2 iterate exists and recovers the exact solution.
    A = DenseOperator(np.diag([2.0, 1.0]))
    x_true = np.array([0.5, 1.0])
    b = A.apply(x_true)
    return ProblemInstance(
        name="custom", A=A, L=IdentityOperator(2), x_true=x_true,
        b_true=b, b=b, epsilon=0.0, seed=0, size=2,
    )


def test_run_hybrid_keeps_iterate_completed_by_beta_breakdown():
    problem = beta_breakdown_problem()
    A, b, x_true = problem.A, problem.b, problem.x_true
    record = run_hybrid(problem, ("cgme",), max_outer_k=5)["cgme"]
    assert ks(record) == [1, 2]
    assert record.breakdown is not None
    assert rel_errors(record)[1] <= 1e-12
    state = bidiag_init(A, b)
    with pytest.raises(GolubKahanBreakdown):
        bidiag_extend(state, 2)
    np.testing.assert_allclose(cgme_iterate(state, 2), x_true, atol=1e-12)


def test_inner_iteration_counts_decrease_with_k():
    problem = build_problem("shaw", 500, 1e-2, 20240101)
    record = run_hybrid(problem, ("hyb_cgme",), max_outer_k=16)["hyb_cgme"]
    iters = np.array(inner_iterations(record), dtype=float)
    quarter = max(len(iters) // 4, 1)
    assert iters[-quarter:].mean() <= iters[:quarter].mean()


def test_tolerance_insensitivity_small():
    problem = build_problem("deriv2", 300, 1e-2, 11)
    loose, tight = 1e-6, 1e-10
    sweep = run_hybrid(problem, ("hyb_tcgme",), max_outer_k=8, inner_tol=tight)["hyb_tcgme"]
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, len(sweep.rows) + 1)
    k0 = int(np.argmin(rel_errors(sweep))) + 1
    for k in range(1, min(k0 + 3, len(sweep.rows)) + 1):
        xa = hyb_tcgme_step(state, problem.L, k, loose).x_L
        xb = hyb_tcgme_step(state, problem.L, k, tight).x_L
        assert np.linalg.norm(xa - xb) <= 1e-4 * np.linalg.norm(xb)


def test_inner_backward_error_meets_tolerance_or_flags_cap():
    problem, state = prepared("shaw", 300, 9)
    for k in range(1, 9):
        it = hyb_cgme_step(state, problem.L, k, 1e-6)
        assert it.inner_backward_error <= 1e-6 or it.inner_cap_hit


def test_unreorthogonalized_sweep_stops_cleanly_on_basis_drift(no_reorth):
    problem = build_problem("shaw", 300, 1e-2, 11)
    record = run_hybrid(problem, ("hyb_tcgme",), max_outer_k=12)["hyb_tcgme"]
    if record.breakdown is not None and "orthogonality" in record.breakdown:
        assert len(ks(record)) < 12
        assert all(np.isfinite(e) for e in rel_errors(record))
    else:
        assert len(ks(record)) == 12


def test_pure_methods_skip_inner_solve():
    problem = build_problem("shaw", 200, 1e-2, 9)
    sweeps = run_hybrid(problem, ("cgme", "tcgme"), max_outer_k=5)
    record, record_t = sweeps["cgme"], sweeps["tcgme"]
    assert inner_iterations(record) == [0] * 5
    assert len(ks(record_t)) == 5


@pytest.mark.parametrize("reorth", ["full", "none"])
def test_identity_hybrids_equal_plain_methods_exactly(reorth, request):
    # L = I takes the exact z = 0 path: no inner iterations, and each
    # hybrid row is its plain method's row, bit for bit
    if reorth == "none":
        request.getfixturevalue("no_reorth")
    problem = build_problem("shaw", 300, 1e-2, 11, L_kind="identity")
    sweeps = run_hybrid(problem, METHODS, max_outer_k=15)
    for base in ("cgme", "tcgme"):
        plain, hybrid = sweeps[base], sweeps["hyb_" + base]
        assert ks(hybrid) == ks(plain) == list(range(1, 16))
        assert rel_errors(hybrid) == rel_errors(plain)
        assert inner_iterations(hybrid) == [0] * 15
        assert hybrid.breakdown is None and hybrid.error is None and hybrid.fallbacks == []


# The *reorth-none cases run under the no_reorth fixture.
# baart(200) breaks down on alpha_11: at max_outer_k=10 only the *tcgme
# methods read step 11, so only they may report it.
JOINT_CASES = {
    "baart-breakdown": (lambda: build_problem("baart", 200, 1e-2, 5), 40),
    "baart-tcgme-only-breakdown": (lambda: build_problem("baart", 200, 1e-2, 5), 10),
    "beta-breakdown": (beta_breakdown_problem, 5),
    "reorth-none": (lambda: build_problem("shaw", 300, 1e-2, 11), 12),
    "blur2d": (
        lambda: build_problem("blur2d", 16, 1e-2, 5, L_kind="first_diff_2d"),
        30,
    ),
    "blur2d-reorth-none": (
        lambda: build_problem("blur2d", 16, 1e-2, 5, L_kind="first_diff_2d"),
        30,
    ),
}


def sweep_answer(record):
    return (ks(record), rel_errors(record), inner_iterations(record), record.fallbacks,
            record.breakdown, record.error, record.best_k, record.best_error)


@pytest.mark.parametrize("case", JOINT_CASES)
def test_joint_sweep_matches_each_method_alone(case, request):
    if case.endswith("reorth-none"):
        request.getfixturevalue("no_reorth")
    build, depth = JOINT_CASES[case]
    problem = build()
    joint = run_hybrid(problem, METHODS, max_outer_k=depth)
    assert list(joint) == list(METHODS)
    for method in METHODS:
        alone = run_hybrid(problem, (method,), max_outer_k=depth)
        assert list(alone) == [method]
        assert sweep_answer(joint[method]) == sweep_answer(alone[method]), method
    if case == "baart-tcgme-only-breakdown":
        assert joint["cgme"].breakdown is None and joint["hyb_cgme"].breakdown is None
        assert ks(joint["cgme"]) == list(range(1, 11))
        assert "alpha_11" in joint["tcgme"].breakdown and "alpha_11" in joint["hyb_tcgme"].breakdown
    if case.endswith("reorth-none"):
        assert "orthogonality" in joint["hyb_tcgme"].breakdown


def test_joint_sweep_charges_each_row_its_own_krylov_columns(monkeypatch):
    # a clock that only Krylov columns advance, by 1 ms each: cgme rows
    # pay for column k, tcgme rows for column k+1 (columns 1 and 2 at k=1)
    import krylreg.hybrid as hybrid

    now = [0.0]
    real_extend = hybrid.bidiag_extend

    def extend(state, steps):
        now[0] += 1e-3 * steps
        return real_extend(state, steps)

    monkeypatch.setattr(hybrid, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(hybrid, "bidiag_extend", extend)
    problem = build_problem("shaw", 100, 1e-2, 3)
    sweeps = run_hybrid(problem, METHODS, max_outer_k=6)
    for method in ("cgme", "hyb_cgme"):
        assert [row.wall_ms for row in sweeps[method].rows] == pytest.approx([1.0] * 6)
        assert sweeps[method].total_wall_ms == pytest.approx(6.0)
    for method in ("tcgme", "hyb_tcgme"):
        assert [row.wall_ms for row in sweeps[method].rows] == pytest.approx([2.0] + [1.0] * 5)


def test_krylov_iterate_forms_x_k_once_and_copies_on_request():
    calls = []

    def kernel(state, k, coeffs=False):
        calls.append(coeffs)
        return np.ones(k) if coeffs else np.arange(3.0)

    iterate = KrylovIterate(kernel, None, 2)
    assert iterate.reads == 0 and calls == []
    assert np.asarray(iterate) is np.asarray(iterate)
    with pytest.raises(ValueError, match="read-only"):
        np.asarray(iterate)[0] = 123.0  # shared by every reader at this k
    np.array(iterate)[:] = -1.0  # a copy, which the caller may overwrite
    np.testing.assert_array_equal(np.asarray(iterate), np.arange(3.0))
    np.testing.assert_array_equal(iterate.coeffs(), np.ones(2))
    assert calls == [False, True] and iterate.reads == 5


def test_joint_sweep_charges_forming_x_k_to_each_row_that_reads_it(monkeypatch):
    # a clock that only forming a CGME x_k advances, by 1 ms: the plain row
    # and, through LSQR, its hybrid each pay for it once; the exact links
    # (2-D, and 1-D on the one-column block at k=1) read the coefficients
    # alone and pay for no x_k
    import krylreg.hybrid as hybrid

    now = [0.0]
    real_cgme = hybrid.cgme_iterate

    def cgme(state, k, coeffs=False):
        now[0] += 0.0 if coeffs else 1e-3
        return real_cgme(state, k, coeffs=coeffs)

    monkeypatch.setattr(hybrid, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(hybrid, "cgme_iterate", cgme)
    one_d = run_hybrid(build_problem("shaw", 100, 1e-2, 3), ("cgme", "hyb_cgme"), max_outer_k=4)
    assert [row.wall_ms for row in one_d["cgme"].rows] == pytest.approx([1.0] * 4)
    assert [row.wall_ms for row in one_d["hyb_cgme"].rows] == pytest.approx([0.0, 1.0, 1.0, 1.0])
    problem = build_problem("blur2d", 8, 1e-2, 5, L_kind="first_diff_2d")
    two_d = run_hybrid(problem, ("hyb_cgme", "cgme"), max_outer_k=4)
    assert two_d["hyb_cgme"].fallbacks == []
    assert [row.wall_ms for row in two_d["hyb_cgme"].rows] == [0.0] * 4
    assert [row.wall_ms for row in two_d["cgme"].rows] == pytest.approx([1.0] * 4)


def test_joint_sweep_keeps_a_method_failure_in_that_method(monkeypatch):
    import krylreg.hybrid as hybrid

    def broken(state, k):
        raise FloatingPointError("tcgme kernel failed")

    monkeypatch.setattr(hybrid, "tcgme_iterate", broken)
    problem = build_problem("shaw", 100, 1e-2, 3)
    sweeps = run_hybrid(problem, METHODS, max_outer_k=4)
    for method in ("tcgme", "hyb_tcgme"):
        assert sweeps[method].error == "FloatingPointError: tcgme kernel failed"
        assert sweeps[method].rows == [] and sweeps[method].best_k is None
    for method in ("cgme", "hyb_cgme"):
        assert sweeps[method].error is None
        assert ks(sweeps[method]) == [1, 2, 3, 4]


@pytest.mark.parametrize("m,n", [(120, 80), (80, 120)])
def test_rectangular_operator_sweeps(m, n):
    problem = rectangular_baart(m, n, "first_diff_1d")
    assert (problem.A.rows, problem.A.cols, problem.L.cols) == (m, n, n)
    depth = 20
    sweeps = run_hybrid(problem, METHODS, max_outer_k=depth)
    for sweep in sweeps.values():
        assert sweep.error is None and sweep.fallbacks == [] and sweep.rows
        assert all(np.isfinite(rel_errors(sweep)))
    assert all(iters > 0 for iters in inner_iterations(sweeps["hyb_tcgme"]))

    state = _krylov_state(problem.A, problem.b, depth + 1)
    k = state.k
    check = _bidiag_recurrence_check(state)
    assert check.passed, check.detail

    # at L = I each hybrid is its plain method, bit for bit
    identity = rectangular_baart(m, n, "identity")
    sweeps = run_hybrid(identity, METHODS, max_outer_k=depth)
    for base in ("cgme", "tcgme"):
        plain, hybrid = sweeps[base], sweeps["hyb_" + base]
        assert ks(hybrid) == ks(plain) and rel_errors(hybrid) == rel_errors(plain)
        assert hybrid.error is None and inner_iterations(hybrid) == [0] * len(plain.rows)
    exact = inner_solvers(identity.L, 1e-6, identity.x_true)[0]
    for j in range(1, k):
        assert np.array_equal(exact.solve(state.Q_cols(j), cgme_iterate(state, j)).x_L, cgme_iterate(state, j))
        assert np.array_equal(exact.solve(state.Q_cols(j + 1), tcgme_iterate(state, j)).x_L, tcgme_iterate(state, j))


def test_zero_seminorm_truth_fails_every_method_on_its_own_record():
    problem = dataclasses.replace(build_problem("shaw", 64, 1e-2, 3, L_kind="first_diff_1d"),
                                  x_true=np.ones(64))
    records = run_hybrid(problem, METHODS, max_outer_k=5)
    for record in records.values():
        assert record.error == "ValueError: relative error is undefined: L x_true = 0"
        assert record.rows == [] and record.best_k is None


def test_rows_record_inner_cap_hits_in_the_json_records_only(tmp_path):
    # the k=1 hyb_cgme solve is consistent: LSQR on a dense copy of L runs it
    # to its cap, and the exact 1-D link answers it with no LSQR at all
    problem = build_problem("shaw", 64, 1e-2, 3)
    dense = dataclasses.replace(problem, L=DenseOperator(make_L("first_diff_1d", 64).to_dense()))
    capped = run_hybrid(dense, ("hyb_cgme",), max_outer_k=2)["hyb_cgme"]
    exact = run_hybrid(problem, ("hyb_cgme",), max_outer_k=2)["hyb_cgme"]
    assert [row.inner_cap_hit for row in capped.rows] == [True, False]
    assert capped.rows[0].inner_iterations == 63
    assert [row.inner_cap_hit for row in exact.rows] == [False, False]
    assert [row["inner_cap_hit"] for row in json.loads(records_to_json([capped]))[0]["rows"]] == [True, False]
    emit_csv([capped], tmp_path / "curves.csv")
    assert (tmp_path / "curves.csv").read_text().splitlines()[0] == CURVE_COLUMNS
