import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylreg.bidiag import lower_bidiagonal
from krylreg.dense_kernels import (
    IllConditionedTruncation,
    TruncatedFactor,
    bidiag_solve,
    svd_small,
    truncated_pinv_apply,
)


def reconstruct(f):
    """Dense ``U diag(s) V^T`` of a :class:`SmallSVD` (test oracle)."""
    s = np.zeros((f.rows, f.cols))
    r = f.singular_values.shape[0]
    s[np.arange(r), np.arange(r)] = f.singular_values
    return f.U @ s @ f.V.T


def truncated_matrix(factor):
    """Dense rank-``factor.rank`` truncation of its source (test oracle)."""
    k, s = factor.rank, factor.source
    return (s.U[:, :k] * s.singular_values[:k]) @ s.V[:, :k].T


def test_svd_diagonal():
    f = svd_small(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(f.singular_values, [3.0, 1.0])


def test_svd_nilpotent():
    f = svd_small([[0.0, 2.0], [0.0, 0.0]])
    np.testing.assert_allclose(f.singular_values, [2.0, 0.0], atol=1e-15)


def test_svd_reconstructs_random_bidiagonal(rng):
    B = lower_bidiagonal(rng.uniform(0.5, 2.0, 20), rng.uniform(0.5, 2.0, 19))
    f = svd_small(B)
    err = np.linalg.norm(B - reconstruct(f))
    assert err <= 1e-12 * f.singular_values[0]
    assert np.all(np.diff(f.singular_values) <= 0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd_small([[np.inf, 0.0], [0.0, 1.0]])


def test_svd_rectangular_factors_are_square(rng):
    M = rng.standard_normal((5, 3))
    f = svd_small(M)
    assert f.U.shape == (5, 5) and f.V.shape == (3, 3)
    np.testing.assert_allclose(reconstruct(f), M, atol=1e-12)


def test_bidiag_solve_scalar():
    np.testing.assert_allclose(bidiag_solve([[2.0]], [6.0]), [3.0])


def test_bidiag_solve_forward_substitution():
    B = [[1.0, 0.0], [1.0, 1.0]]
    np.testing.assert_allclose(bidiag_solve(B, [1.0, 3.0]), [1.0, 2.0])


def test_bidiag_solve_matches_dense_oracle(rng):
    B = lower_bidiagonal(rng.uniform(1.0, 2.0, 30), rng.uniform(0.0, 1.0, 29))
    rhs = rng.standard_normal(30)
    y = bidiag_solve(B, rhs)
    oracle = np.linalg.solve(B, rhs)
    assert np.linalg.norm(y - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert np.linalg.norm(B @ y - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_bidiag_solve_zero_diagonal():
    with pytest.raises(np.linalg.LinAlgError):
        bidiag_solve([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0])


def test_truncated_pinv_diagonal_example():
    f = TruncatedFactor(source=svd_small(np.diag([4.0, 2.0, 1.0])), rank=2)
    np.testing.assert_allclose(truncated_pinv_apply(f, [4.0, 2.0, 1.0]), [1.0, 1.0, 0.0], atol=1e-14)


def test_full_rank_truncation_matches_solve(rng):
    M = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    f = TruncatedFactor(source=svd_small(M), rank=6)
    rhs = rng.standard_normal(6)
    np.testing.assert_allclose(
        truncated_pinv_apply(f, rhs), np.linalg.solve(M, rhs), rtol=1e-12, atol=1e-12
    )


def test_truncated_pinv_matches_dense_oracle(rng):
    k = 7
    M = rng.standard_normal((k + 1, k + 1))
    f = TruncatedFactor(source=svd_small(M), rank=k)
    rhs = rng.standard_normal(k + 1)
    ck = truncated_matrix(f)
    oracle = np.linalg.pinv(ck) @ rhs
    got = truncated_pinv_apply(f, rhs)
    assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_truncation_rank_validation(rng):
    f = svd_small(rng.standard_normal((4, 4)))
    with pytest.raises(ValueError):
        TruncatedFactor(source=f, rank=0)
    with pytest.raises(ValueError):
        TruncatedFactor(source=f, rank=5)


def test_ill_conditioned_truncation_warns():
    f = TruncatedFactor(source=svd_small(np.diag([1.0, 1e-15])), rank=2)
    with pytest.warns(IllConditionedTruncation):
        out = truncated_pinv_apply(f, [1.0, 0.0])
    assert np.all(np.isfinite(out))


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=40),
    c=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_eckart_young_gap(r, c, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((r, c))
    f = svd_small(M)
    for rank in range(1, min(r, c)):
        trunc = truncated_matrix(TruncatedFactor(source=f, rank=rank))
        gap = np.linalg.norm(M - trunc, 2)
        expected = f.singular_values[rank]
        assert abs(gap - expected) <= 1e-10 * max(expected, 1e-30) + 1e-12


def test_pinv_contract_on_truncations(rng):
    M = rng.standard_normal((9, 9))
    f = TruncatedFactor(source=svd_small(M), rank=5)
    ck = truncated_matrix(f)
    pinv = np.column_stack([truncated_pinv_apply(f, e) for e in np.eye(9)])
    assert np.linalg.norm(ck @ pinv @ ck - ck) <= 1e-10 * np.linalg.norm(ck)
