import tracemalloc
import warnings

import numpy as np
import pytest

from krylreg import lsqr as lsqr_module
from krylreg.bidiag import bidiag_extend, bidiag_init
from krylreg.lsqr import NumericalFailure, lsqr_solve
from krylreg.operators import (
    DenseOperator,
    DimensionMismatch,
    FirstDifferenceOperator,
    IdentityOperator,
)
from krylreg.problems import build_problem
from krylreg.solvers import cgme_iterate

from conftest import random_orthonormal
from textbook_lsqr import extended_lsqr, textbook_lsqr


def rank_deficient(rng, m, n, r):
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    svals = rng.uniform(0.5, 3.0, r)
    return DenseOperator(U @ np.diag(svals) @ V.T)


def test_identity_one_iteration():
    report = lsqr_solve(IdentityOperator(3), [1.0, 2.0, 3.0], tol=1e-6)
    np.testing.assert_allclose(report.solution, [1.0, 2.0, 3.0], atol=1e-12)
    assert report.iterations == 1


def test_minimum_norm_on_first_difference():
    M = FirstDifferenceOperator(3)
    report = lsqr_solve(M, [1.0, 1.0], tol=1e-10)
    dense = M.to_dense()
    oracle = np.linalg.pinv(dense) @ np.array([1.0, 1.0])
    assert np.linalg.norm(report.solution - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_consistent_square_system_small_residual(rng):
    A = DenseOperator(rng.standard_normal((12, 12)) + 12 * np.eye(12))
    x = rng.standard_normal(12)
    d = A.apply(x)
    report = lsqr_solve(A, d, tol=1e-10, max_iters=200)
    true_res = np.linalg.norm(d - A.apply(report.solution))
    assert true_res <= 1e-8 * np.linalg.norm(d)


def test_zero_rhs_short_circuits():
    report = lsqr_solve(IdentityOperator(4), np.zeros(4))
    assert report.stop_reason == "exact_breakdown"
    np.testing.assert_allclose(report.solution, np.zeros(4))
    assert report.iterations == 0


def test_rhs_orthogonal_to_range_gives_zero_solution():
    # range(A) = span(e1); d = e2 has no component to fit.
    A = DenseOperator(np.array([[1.0, 1.0], [0.0, 0.0]]))
    report = lsqr_solve(A, [0.0, 1.0])
    assert report.stop_reason == "exact_breakdown"
    np.testing.assert_allclose(report.solution, np.zeros(2))


def test_nonfinite_rhs_rejected():
    with pytest.raises(ValueError):
        lsqr_solve(IdentityOperator(2), [np.nan, 1.0])


def test_config_validation():
    # a non-numeric tol is refused before it reaches a comparison
    for tol in (0.0, 1.5, float("nan"), "1e-6", None, True):
        with pytest.raises(ValueError, match="tol must lie in"):
            lsqr_solve(IdentityOperator(2), [1.0, 1.0], tol=tol)
    with pytest.raises(ValueError, match="max_iters"):
        lsqr_solve(IdentityOperator(2), [1.0, 1.0], max_iters=0)


@pytest.mark.parametrize("cap", [2.5, 3.0, True, "3"])
def test_iteration_cap_must_be_an_integer(cap):
    # 2.5 used to run 3 iterations, one past its cap
    with pytest.raises(ValueError, match="max_iters"):
        lsqr_solve(IdentityOperator(2), [1.0, 1.0], max_iters=cap)


def test_numpy_integer_cap_accepted():
    rng = np.random.default_rng(12)
    M = DenseOperator(rng.standard_normal((50, 40)))
    report = lsqr_solve(M, rng.standard_normal(50), tol=1e-15, max_iters=np.int64(3))
    assert (report.iterations, report.stop_reason) == (3, "max_iters")


def test_monotone_residual_history(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        M = DenseOperator(local.standard_normal((25, 18)))
        report = lsqr_solve(M, local.standard_normal(25), tol=1e-12, max_iters=100)
        assert np.all(np.diff(report.residual_history) <= 1e-12)


def test_minimum_norm_matches_pinv_on_rank_deficient(rng):
    for seed in range(8):
        local = np.random.default_rng(100 + seed)
        M = rank_deficient(local, 40, 35, 20)
        d = local.standard_normal(40)
        report = lsqr_solve(M, d, tol=1e-13, max_iters=500)
        oracle = np.linalg.pinv(M.entries) @ d
        assert np.linalg.norm(report.solution - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_backward_error_contract_at_exit(rng):
    M = DenseOperator(rng.standard_normal((60, 45)))
    d = rng.standard_normal(60)
    tol = 1e-6
    report = lsqr_solve(M, d, tol=tol)
    assert report.stop_reason == "backward_error"
    assert report.final_backward_error <= tol
    # Recompute the stopping quantity from the returned solution.
    r = d - M.apply(report.solution)
    ratio = np.linalg.norm(M.apply_adjoint(r)) / (
        report.operator_norm_estimate * np.linalg.norm(r)
    )
    assert ratio <= 2.0 * tol


@pytest.mark.parametrize("n,k,seed", [(200, 5, 9), (300, 10, 2), (120, 3, 4)])
def test_projected_operator_terminates_within_dimension_bound(n, k, seed):
    # Inner-problem shape: rhs = L x is inconsistent for the projected
    # operator, so the least-squares residual stays bounded away from 0.
    L = FirstDifferenceOperator(n)
    Q = random_orthonormal(n, k, seed=seed)
    rng = np.random.default_rng(10)
    d = L.apply(rng.standard_normal(n))
    report = lsqr_solve(L, d, tol=1e-10, max_iters=3 * n, Q=Q)
    assert report.iterations <= n - k + 5


def test_default_cap_is_twice_the_projected_dimension():
    # min |M (I - QQ^T) z - d| lives on the (n - k)-dimensional null(Q^T),
    # so LSQR ends within n - k iterations in exact arithmetic; the default
    # cap doubles that, and binds below min(M.rows, n) once k > n / 2.  On
    # this consistent system, with M's singular values spread over ten
    # decades, the backward error stalls far above tol, so only the cap stops.
    n, k = 60, 40
    rng = np.random.default_rng(60)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = DenseOperator(U * np.logspace(0, -10, n) @ V.T)
    Q = random_orthonormal(n, k, seed=k)
    z = rng.standard_normal(n)
    z -= Q @ (Q.T @ z)
    report = lsqr_solve(M, M.apply(z), tol=1e-15, Q=Q)
    assert (report.iterations, report.stop_reason) == (2 * (n - k), "max_iters")


def test_max_iters_stop():
    rng = np.random.default_rng(12)
    M = DenseOperator(rng.standard_normal((50, 40)))
    report = lsqr_solve(M, rng.standard_normal(50), tol=1e-15, max_iters=3)
    assert report.stop_reason == "max_iters"
    assert report.iterations == 3


class _NaNInjector(DenseOperator):
    """A dense operator whose ``side`` product turns non-finite at entry
    ``index`` on its ``call``-th use, and stays that way."""

    def __init__(self, entries, side, call, index, value=np.nan):
        super().__init__(entries)
        self.side, self.call, self.index, self.value = side, call, index, value
        self.calls = 0

    def _inject(self, out):
        self.calls += 1
        if self.calls >= self.call:
            out[self.index] = self.value
        return out

    def _apply(self, v):
        out = super()._apply(v)
        return self._inject(out) if self.side == "apply" else out

    def _adjoint(self, u):
        out = super()._adjoint(u)
        return self._inject(out) if self.side == "adjoint" else out


@pytest.mark.parametrize("side,call,value", [
    ("apply", 3, np.nan),
    ("adjoint", 1, np.nan),  # the start vector, before the first iteration
    ("adjoint", 4, np.nan),
    ("adjoint", 2, np.inf),
])
def test_nonfinite_away_from_index_zero_raises(side, call, value):
    rng = np.random.default_rng(13)
    op = _NaNInjector(rng.standard_normal((30, 20)), side, call, index=17, value=value)
    with pytest.raises(NumericalFailure):
        lsqr_solve(op, rng.standard_normal(30), tol=1e-12, max_iters=50)
    assert op.calls >= call


@pytest.mark.parametrize("side,call,value", [
    ("apply", 3, np.nan),
    ("adjoint", 1, np.nan),  # the start vector, before the first iteration
    ("adjoint", 4, np.inf),
])
def test_nonfinite_on_the_projected_path_raises(side, call, value):
    rng = np.random.default_rng(15)
    op = _NaNInjector(rng.standard_normal((30, 20)), side, call, index=17, value=value)
    Q = random_orthonormal(20, 3, seed=16)
    # the projector turns an Inf into NaNs, which numpy warns about
    with pytest.raises(NumericalFailure), np.errstate(invalid="ignore"):
        lsqr_solve(op, rng.standard_normal(30), tol=1e-12, max_iters=50, Q=Q)
    assert op.calls >= call


@pytest.mark.parametrize("bad,error", [
    (np.ones((19, 3)), DimensionMismatch),
    (np.ones((20, 21)), ValueError),
    (np.ones(20) / np.sqrt(20), ValueError),
    (np.full((20, 1), np.nan), ValueError),
])
def test_block_is_validated_at_the_boundary(bad, error):
    # a NaN block would pass the Gram check, since NaN > tol is false
    with pytest.raises(error):
        lsqr_solve(DenseOperator(np.ones((30, 20))), np.ones(30), Q=bad)


def test_in_place_updates_leave_caller_vectors_alone():
    rng = np.random.default_rng(14)
    entries = rng.standard_normal((25, 15))
    d = rng.standard_normal(25)
    d_before = d.copy()
    first = lsqr_solve(DenseOperator(entries), d, tol=1e-10, max_iters=100)
    np.testing.assert_array_equal(d, d_before)
    second = lsqr_solve(DenseOperator(entries), d, tol=1e-10, max_iters=100)
    np.testing.assert_array_equal(first.solution, second.solution)


ORACLE_RTOL = 1e-10
ORACLE_TOLS = (1e-6, 1e-8, 1e-10, 1e-12)


def rel_dist(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def spectral_operator(seed, m, n, rank, top):
    """``m x n`` dense operator of the given rank, singular values in [1, top]."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    V = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    return DenseOperator(U @ np.diag(rng.uniform(1.0, top, rank)) @ V.T)


def oracle_case(name):
    """(M, Q, d) for one case of the textbook comparison."""
    rng = np.random.default_rng(40)
    diff = FirstDifferenceOperator(300)
    if name == "tall":
        return spectral_operator(0, 80, 30, 30, 2.0), None, rng.standard_normal(80)
    if name == "rank_deficient":
        return spectral_operator(1, 60, 50, 40, 3.0), None, rng.standard_normal(60)
    if name == "wide_consistent":
        return spectral_operator(2, 30, 80, 30, 2.0), None, rng.standard_normal(30)
    if name == "diff_consistent":
        return diff, None, rng.standard_normal(299)
    k = int(name.split("_")[1])
    Q = random_orthonormal(300, k, seed=k)
    z = rng.standard_normal(300)
    if name.endswith("consistent"):
        z -= Q @ (Q.T @ z)
    return diff, Q, diff.apply(z)


@pytest.mark.parametrize("tol", ORACLE_TOLS)
@pytest.mark.parametrize("case", [
    "tall", "rank_deficient", "wide_consistent", "diff_consistent", "diffQ_10",
])
def test_matches_textbook_lsqr(case, tol):
    # The diff cases run 211-299 iterations, several solution blocks each.
    M, Q, d = oracle_case(case)
    report = lsqr_solve(M, d, tol=tol, Q=Q)
    ref = textbook_lsqr(M, d, tol=tol, Q=Q)
    assert (report.iterations, report.stop_reason) == (ref.iterations, ref.stop_reason)
    assert rel_dist(report.solution, ref.solution) <= ORACLE_RTOL
    np.testing.assert_allclose(report.residual_history, ref.residual_history,
                               rtol=ORACLE_RTOL, atol=ORACLE_RTOL * ref.residual_history[0])


@pytest.mark.parametrize("tol", ORACLE_TOLS)
def test_consistent_projected_system_matches_textbook_solution(tol):
    # On this consistent system the residual reaches rounding level long
    # before the cap, and the backward error |M^T r| / (|M| |r|) then sits
    # at its noise floor, near 1e-6 here: whether and when it dips below tol
    # is decided by rounding, for the textbook loop as for this one.
    # Only the solutions are compared.
    M, Q, d = oracle_case("diffQ_10_consistent")
    report = lsqr_solve(M, d, tol=tol, Q=Q)
    ref = textbook_lsqr(M, d, tol=tol, Q=Q)
    assert rel_dist(report.solution, ref.solution) <= ORACLE_RTOL


EXTENDED = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended precision here")


@EXTENDED
@pytest.mark.parametrize("case", ["diffQ_1", "diffQ_1_consistent"])
def test_unconverged_projected_solve_is_within_rounding_of_extended_precision(case):
    # With one Krylov column, L (I - qq^T) keeps L's conditioning and the
    # solve stops at its 299-iteration cap far from convergence.  Each
    # float64 loop then carries up to 7e-11 of rounding error, so the two
    # differ by up to 1.3e-10: both are judged against extended precision.
    M, Q, d = oracle_case(case)
    report = lsqr_solve(M, d, Q=Q)
    ref = textbook_lsqr(M, d, Q=Q)
    assert (report.iterations, report.stop_reason) == (ref.iterations, "max_iters")
    exact = extended_lsqr(M.to_dense(), d, Q, ref.iterations)
    assert rel_dist(report.solution, exact) <= ORACLE_RTOL
    assert rel_dist(ref.solution, exact) <= ORACLE_RTOL


@EXTENDED
@pytest.mark.parametrize("k", [2, 3])
def test_unrounded_start_vector_is_more_accurate_on_baart(k):
    # In the hybrids' inner problem d = L x_k with x_k in range(Q), so on
    # baart P L^T d is a small remainder of L^T d.  The textbook loop
    # normalizes d first, and that rounding, magnified by the cancellation,
    # sets its error; this loop starts from d itself.  Measured at n=200:
    # 6.7e-11 against 6.9e-10 at k=2, 1.2e-10 against 1.5e-9 at k=3.
    problem = build_problem("baart", 200, 1e-2, 20240101, L_kind="first_diff_1d")
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 4)
    L, Q = problem.L, state.Q_cols(k)
    d = L.apply(cgme_iterate(state, k))
    report = lsqr_solve(L, d, Q=Q)
    ref = textbook_lsqr(L, d, Q=Q)
    assert report.iterations == ref.iterations
    exact = extended_lsqr(L.to_dense(), d, Q, ref.iterations)
    assert rel_dist(report.solution, exact) <= rel_dist(ref.solution, exact) / 4


@pytest.mark.parametrize("power", [-400, 400])
def test_tracked_scales_rescale_exactly(power, monkeypatch):
    # Scaling M by 2^power scales every alfa and beta by 2^power, so the
    # tracked scales leave their range at every iteration.  Rescaling by
    # powers of two is exact: the solution is scaled by exactly 2^-power.
    rng = np.random.default_rng(17)
    entries = rng.standard_normal((40, 30))
    d = rng.standard_normal(40)
    plain = lsqr_solve(DenseOperator(entries), d, tol=1e-10)

    rescales = []
    rescale = lsqr_module._rescale

    def counting(vec, scale):
        rescales.append(scale)
        return rescale(vec, scale)

    monkeypatch.setattr(lsqr_module, "_rescale", counting)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        scaled = lsqr_solve(DenseOperator(np.ldexp(entries, power)), d, tol=1e-10)
    assert len(rescales) >= 2 * scaled.iterations
    assert (scaled.iterations, scaled.stop_reason) == (plain.iterations, plain.stop_reason)
    np.testing.assert_array_equal(np.ldexp(scaled.solution, power), plain.solution)


def test_memory_stays_bounded_whatever_the_iteration_count():
    # The right vectors of one block are all the solve keeps: peak memory
    # is linear in n and does not grow with the iteration count.
    n = 4000
    block = lsqr_module._BLOCK
    L = FirstDifferenceOperator(n)
    Q = random_orthonormal(n, 2, seed=3)
    d = L.apply(np.random.default_rng(18).standard_normal(n))
    bound = (block + 16) * n * 8
    for iters in (4 * block, 8 * block):
        tracemalloc.start()
        try:
            report = lsqr_solve(L, d, tol=1e-15, max_iters=iters, Q=Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.iterations == iters
        assert peak < bound, (iters, peak, bound)
