"""The small dense algebra inside the CGME and TCGME iterates.

``cgme_iterate`` forward-substitutes through ``B_k`` and ``tcgme_iterate``
applies the pseudo-inverse of the rank-k truncation of ``B_{k+1}``, both
straight from the recurrence coefficients.  The states are built by hand
with identity ``P`` and ``Q`` blocks, so an iterate's leading entries are
its coefficient vector ``y``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_solvers import make_state

from krylreg.bidiag import GolubKahanBreakdown, bidiag_extend, bidiag_init, bidiagonal
from krylreg.metrics import gamma_gaps
from krylreg.operators import DenseOperator
from krylreg.solvers import IllConditionedTruncation, cgme_iterate, tcgme_iterate


def random_coefficients(k, seed, low=1.5, high=2.0):
    """``alpha_1..alpha_k`` and ``beta_1..beta_{k+1}`` on a random scale.

    With the default diagonals in ``[1.5, 2]`` and subdiagonals in
    ``[0, 1]``, every leading block has singular values in ``scale * [0.5, 3]``."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    return scale * rng.uniform(low, high, k), scale * rng.uniform(0.0, 1.0, k + 1)


def truncation(B, k):
    """Dense rank-``k`` truncation of ``B`` (test oracle)."""
    U, s, Vt = np.linalg.svd(B)
    return (U[:, :k] * s[:k]) @ Vt[:k]


def test_bidiag_solve_scalar():
    state = make_state(alphas=[2.0], betas=[6.0, 1.0])
    np.testing.assert_allclose(cgme_iterate(state, 1), [3.0, 0.0])


def test_bidiag_solve_forward_substitution():
    # [[1, 0], [2, 1]] y = [3, 0]
    state = make_state(alphas=[1.0, 1.0], betas=[3.0, 2.0, 1.0])
    np.testing.assert_allclose(cgme_iterate(state, 2), [3.0, -6.0, 0.0])


def test_bidiag_solve_matches_dense_oracle():
    alphas, betas = random_coefficients(30, seed=1234)
    state = make_state(alphas, betas)
    y = cgme_iterate(state, 30)
    B = bidiagonal(state, 30, 30)
    rhs = np.zeros(30)
    rhs[0] = betas[0]
    oracle = np.linalg.solve(B, rhs)
    assert y[30] == 0.0
    assert np.linalg.norm(y[:30] - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert np.linalg.norm(B @ y[:30] - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_bidiag_solve_zero_diagonal():
    # A zero alpha never reaches the substitution: the recurrence records a
    # breakdown instead of storing it, and the iterate at that k is refused.
    A = DenseOperator([[1.0, 0.0], [0.0, 0.0]])
    state = bidiag_init(A, [1.0, 1.0])
    with pytest.raises(GolubKahanBreakdown, match="alpha_2"):
        bidiag_extend(state, 2)
    assert state.k == 1 and np.all(np.asarray(state.alphas) > 0.0)
    with pytest.raises(ValueError, match="needs 2"):
        cgme_iterate(state, 2)


def test_truncated_pinv_diagonal_example():
    # B_3 = diag(4, 2, 1): truncation to rank 2 drops the 1
    state = make_state(alphas=[4.0, 2.0, 1.0], betas=[4.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(tcgme_iterate(state, 2), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    # B_3 = diag(1, 4, 2): now the dropped direction is the one b lies in
    state = make_state(alphas=[1.0, 4.0, 2.0], betas=[4.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(tcgme_iterate(state, 2), np.zeros(4), atol=1e-14)


def test_full_rank_truncation_matches_solve():
    # beta_3 = 0 makes B_3 = diag(B_2, alpha_3), and alpha_3 lies below the
    # spectrum of B_2: the truncation keeps all of B_2, so TCGME is the
    # forward substitution through it.
    state = make_state(alphas=[2.0, 1.5, 0.1], betas=[3.0, 0.5, 0.0, 1.0])
    y = np.linalg.solve([[2.0, 0.0], [0.5, 1.5]], [3.0, 0.0])
    np.testing.assert_allclose(tcgme_iterate(state, 2), [*y, 0.0, 0.0], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(cgme_iterate(state, 2), [*y, 0.0, 0.0], rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=1, max_value=30), seed=st.integers(min_value=0, max_value=10**6))
def test_truncated_pinv_matches_dense_oracle(k, seed):
    alphas, betas = random_coefficients(k + 1, seed)
    state = make_state(alphas, betas)
    got = tcgme_iterate(state, k)
    rhs = np.zeros(k + 1)
    rhs[0] = betas[0]
    oracle = np.linalg.pinv(truncation(bidiagonal(state, k + 1, k + 1), k)) @ rhs
    assert got[k + 1] == 0.0
    assert np.linalg.norm(got[: k + 1] - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_pinv_contract_on_truncations():
    # y = pinv(C_k) beta_1 e_1 is the minimum-norm least-squares solution:
    # its residual is orthogonal to range(C_k), and y has no component
    # along null(C_k), the dropped right singular vector.
    k = 8
    alphas, betas = random_coefficients(k + 1, seed=99, low=0.5)
    state = make_state(alphas, betas)
    B = bidiagonal(state, k + 1, k + 1)
    C = truncation(B, k)
    y = tcgme_iterate(state, k)[: k + 1]
    rhs = np.zeros(k + 1)
    rhs[0] = betas[0]
    scale = np.linalg.norm(C, 2)
    assert np.linalg.norm(C.T @ (C @ y - rhs)) <= 1e-12 * scale * np.linalg.norm(rhs)
    v_dropped = np.linalg.svd(B)[2][k]
    assert abs(v_dropped @ y) <= 1e-12 * np.linalg.norm(y)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=1, max_value=30), seed=st.integers(min_value=0, max_value=10**6))
def test_eckart_young_gap(k, seed):
    # With P and Q the identity and A = B_{k+1}, gamma_gaps' TCGME gap is
    # |B_{k+1} - C_k|_2, which Eckart-Young puts at sigma_{k+1}(B_{k+1}).
    alphas, betas = random_coefficients(k + 1, seed, low=0.5)
    state = make_state(alphas, betas, m=k + 1, n=k + 1)
    B = bidiagonal(state, k + 1, k + 1)
    state.A = DenseOperator(B)
    report = gamma_gaps(state, k)
    s = np.linalg.svd(B, compute_uv=False)
    assert abs(report.gamma_tcgme - s[k]) <= 1e-10 * s[k] + 1e-13 * s[0]


def test_ill_conditioned_truncation_warns():
    state = make_state(alphas=[1.0, 1e-15, 1e-16], betas=[1.0, 0.0, 0.0, 1.0])
    with pytest.warns(IllConditionedTruncation):
        out = tcgme_iterate(state, 2)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_zero_singular_value_is_excluded():
    # B_3 = [[1, 0, 0], [1, 0, 0], [0, 0, 0]] has singular values
    # (sqrt 2, 0, 0); the rank-2 truncation retains an exact zero, which
    # the pseudo-inverse drops instead of inverting.
    state = make_state(alphas=[1.0, 0.0, 0.0], betas=[1.0, 1.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedTruncation)
        out = tcgme_iterate(state, 2)
    np.testing.assert_allclose(out, [0.5, 0.0, 0.0, 0.0], atol=1e-15)
