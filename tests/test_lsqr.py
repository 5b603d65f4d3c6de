import numpy as np
import pytest

from krylreg.lsqr import LsqrConfig, NumericalFailure, lsqr_solve
from krylreg.operators import (
    DenseOperator,
    DimensionMismatch,
    FirstDifferenceOperator,
    IdentityOperator,
)

from conftest import random_orthonormal


def rank_deficient(rng, m, n, r):
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    svals = rng.uniform(0.5, 3.0, r)
    return DenseOperator(U @ np.diag(svals) @ V.T)


def test_identity_one_iteration():
    report = lsqr_solve(IdentityOperator(3), [1.0, 2.0, 3.0], LsqrConfig(tol=1e-6))
    np.testing.assert_allclose(report.solution, [1.0, 2.0, 3.0], atol=1e-12)
    assert report.iterations == 1


def test_minimum_norm_on_first_difference():
    M = FirstDifferenceOperator(3)
    report = lsqr_solve(M, [1.0, 1.0], LsqrConfig(tol=1e-10))
    dense = M.to_dense()
    oracle = np.linalg.pinv(dense) @ np.array([1.0, 1.0])
    assert np.linalg.norm(report.solution - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_consistent_square_system_small_residual(rng):
    A = DenseOperator(rng.standard_normal((12, 12)) + 12 * np.eye(12))
    x = rng.standard_normal(12)
    d = A.apply(x)
    report = lsqr_solve(A, d, LsqrConfig(tol=1e-10, max_iters=200))
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
    with pytest.raises(ValueError):
        LsqrConfig(tol=0.0)
    with pytest.raises(ValueError):
        LsqrConfig(tol=1.5)
    with pytest.raises(ValueError):
        LsqrConfig(max_iters=0)


def test_monotone_residual_history(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        M = DenseOperator(local.standard_normal((25, 18)))
        report = lsqr_solve(M, local.standard_normal(25), LsqrConfig(tol=1e-12, max_iters=100))
        assert np.all(np.diff(report.residual_history) <= 1e-12)


def test_minimum_norm_matches_pinv_on_rank_deficient(rng):
    for seed in range(8):
        local = np.random.default_rng(100 + seed)
        M = rank_deficient(local, 40, 35, 20)
        d = local.standard_normal(40)
        report = lsqr_solve(M, d, LsqrConfig(tol=1e-13, max_iters=500))
        oracle = np.linalg.pinv(M.entries) @ d
        assert np.linalg.norm(report.solution - oracle) <= 1e-6 * np.linalg.norm(oracle)


def test_backward_error_contract_at_exit(rng):
    M = DenseOperator(rng.standard_normal((60, 45)))
    d = rng.standard_normal(60)
    cfg = LsqrConfig(tol=1e-6)
    report = lsqr_solve(M, d, cfg)
    assert report.stop_reason == "backward_error"
    assert report.final_backward_error <= cfg.tol
    # Recompute the stopping quantity from the returned solution.
    r = d - M.apply(report.solution)
    ratio = np.linalg.norm(M.apply_adjoint(r)) / (
        report.operator_norm_estimate * np.linalg.norm(r)
    )
    assert ratio <= 2.0 * cfg.tol


@pytest.mark.parametrize("n,k,seed", [(200, 5, 9), (300, 10, 2), (120, 3, 4)])
def test_projected_operator_terminates_within_dimension_bound(n, k, seed):
    # Inner-problem shape: rhs = L x is inconsistent for the projected
    # operator, so the least-squares residual stays bounded away from 0.
    L = FirstDifferenceOperator(n)
    Q = random_orthonormal(n, k, seed=seed)
    rng = np.random.default_rng(10)
    d = L.apply(rng.standard_normal(n))
    report = lsqr_solve(L, d, LsqrConfig(tol=1e-10, max_iters=3 * n), Q=Q)
    assert report.iterations <= n - k + 5


def test_max_iters_stop():
    rng = np.random.default_rng(12)
    M = DenseOperator(rng.standard_normal((50, 40)))
    report = lsqr_solve(M, rng.standard_normal(50), LsqrConfig(tol=1e-15, max_iters=3))
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
        lsqr_solve(op, rng.standard_normal(30), LsqrConfig(tol=1e-12, max_iters=50))
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
        lsqr_solve(op, rng.standard_normal(30), LsqrConfig(tol=1e-12, max_iters=50), Q=Q)
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
    first = lsqr_solve(DenseOperator(entries), d, LsqrConfig(tol=1e-10, max_iters=100))
    np.testing.assert_array_equal(d, d_before)
    second = lsqr_solve(DenseOperator(entries), d, LsqrConfig(tol=1e-10, max_iters=100))
    np.testing.assert_array_equal(first.solution, second.solution)
