import numpy as np
import pytest

from krylreg.bidiag import (
    GolubKahanBreakdown,
    bidiag_extend,
    bidiag_init,
    extract_matrices,
    lower_bidiagonal,
)
from krylreg.operators import DenseOperator, IdentityOperator
from krylreg.problems import add_noise, gen_shaw


def test_init_normalizes_first_column():
    A = DenseOperator(np.ones((2, 3)))
    state = bidiag_init(A, [3.0, 4.0])
    assert state.beta1 == pytest.approx(5.0)
    np.testing.assert_allclose(state.P[:, 0], [0.6, 0.8])
    assert state.k == 0


def test_init_unit_vector():
    A = DenseOperator(np.eye(4))
    state = bidiag_init(A, np.eye(4)[:, 0])
    assert state.beta1 == pytest.approx(1.0)
    np.testing.assert_allclose(state.P[:, 0], np.eye(4)[:, 0])


def test_init_zero_rhs_raises():
    A = DenseOperator(np.eye(3))
    with pytest.raises(GolubKahanBreakdown, match="zero right-hand side"):
        bidiag_init(A, np.zeros(3))


def test_init_rejects_nonfinite_rhs():
    # rejected at the boundary, before any iterate silently carries it
    A = DenseOperator(np.eye(3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            bidiag_init(A, [1.0, bad, 0.0])


def test_identity_invariant_subspace_breaks_down():
    A = IdentityOperator(2)
    state = bidiag_init(A, np.array([1.0, 0.0]))
    with pytest.raises(GolubKahanBreakdown) as excinfo:
        bidiag_extend(state, A, 2)
    assert excinfo.value.step == 1
    assert state.k == 1
    assert state.alphas[0] == pytest.approx(1.0)
    np.testing.assert_allclose(state.Q[:, 0], [1.0, 0.0])
    assert state.betas[1] == pytest.approx(0.0, abs=1e-15)


def test_extend_after_breakdown_refused():
    A = IdentityOperator(2)
    state = bidiag_init(A, np.array([1.0, 0.0]))
    with pytest.raises(GolubKahanBreakdown):
        bidiag_extend(state, A, 2)
    with pytest.raises(GolubKahanBreakdown, match="cannot extend"):
        bidiag_extend(state, A, 1)


def test_first_alpha_on_diagonal_example():
    A = DenseOperator(np.diag([2.0, 1.0]))
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = bidiag_init(A, b)
    bidiag_extend(state, A, 1)
    # alpha_1 = |A^T p_1| for the normalized start vector
    assert state.alphas[0] == pytest.approx(np.sqrt(5.0 / 2.0), rel=1e-12)


def test_extract_matrices_shapes_and_values():
    A = DenseOperator(np.diag([3.0, 2.0, 1.0]))
    state = bidiag_init(A, np.array([1.0, 1.0, 1.0]))
    bidiag_extend(state, A, 2)
    mats1 = extract_matrices(state, 1)
    np.testing.assert_allclose(mats1.B_k, [[state.alphas[0]]])
    mats2 = extract_matrices(state, 2)
    a, be = state.alphas, state.betas
    np.testing.assert_allclose(mats2.B_k, [[a[0], 0.0], [be[1], a[1]]])
    np.testing.assert_allclose(mats1.B_kplus, [[a[0]], [be[1]]])
    assert mats1.B_kp1.shape == (2, 2)
    assert mats2.B_kp1 is None  # step 3 not taken


def test_extract_matrices_requires_k_at_least_one():
    A = DenseOperator(np.eye(3))
    state = bidiag_init(A, np.ones(3))
    with pytest.raises(ValueError):
        extract_matrices(state, 0)


def test_projection_identity_on_random_dense(rng):
    A = DenseOperator(rng.standard_normal((50, 40)))
    state = bidiag_init(A, rng.standard_normal(50))
    bidiag_extend(state, A, 10)
    mats = extract_matrices(state, 10)
    projected = state.P_cols(10).T @ A.entries @ state.Q_cols(10)
    assert np.abs(projected - mats.B_k).max() <= 1e-10


def test_recurrences_and_orthogonality_on_shaw():
    A, x_true, b_true = gen_shaw(64)
    b = add_noise(b_true, 1e-2, 42)
    state = bidiag_init(A, b)
    target = 20
    try:
        bidiag_extend(state, A, target)
    except GolubKahanBreakdown:
        pass
    k = state.k
    assert k >= 15
    mats = extract_matrices(state, k)
    fro = A.frobenius_norm()
    res_right = np.linalg.norm(A.entries @ state.Q_cols(k) - state.P_cols(k + 1) @ mats.B_kplus, "fro")
    res_left = np.linalg.norm(A.entries.T @ state.P_cols(k) - state.Q_cols(k) @ mats.B_k.T, "fro")
    assert res_right <= 1e-10 * fro
    assert res_left <= 1e-10 * fro
    P, Q = state.P, state.Q
    assert np.abs(P.T @ P - np.eye(P.shape[1])).max() <= 1e-10
    assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-10


def test_positive_coefficients_until_breakdown():
    A, x_true, b_true = gen_shaw(64)
    state = bidiag_init(A, b_true)
    try:
        bidiag_extend(state, A, 25)
    except GolubKahanBreakdown:
        pass
    assert np.all(np.asarray(state.alphas) > 0)
    assert np.all(np.asarray(state.betas[: state.k + 1]) > 0)


def test_singular_value_interlacing(rng):
    A = DenseOperator(rng.standard_normal((30, 24)))
    state = bidiag_init(A, rng.standard_normal(30))
    bidiag_extend(state, A, 8)
    svals_A = np.linalg.svd(A.entries, compute_uv=False)
    mats = extract_matrices(state, 8)
    theta = np.linalg.svd(mats.B_kplus, compute_uv=False)
    assert np.all(theta <= svals_A[0] * (1 + 1e-12))
    assert np.all(theta >= svals_A[-1] * (1 - 1e-12))


def test_deterministic_coefficients():
    A, x_true, b_true = gen_shaw(64)
    b = add_noise(b_true, 1e-1, 5)
    runs = []
    for _ in range(2):
        state = bidiag_init(A, b)
        bidiag_extend(state, A, 12)
        runs.append((state.alphas.copy(), state.betas.copy()))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


def test_column_reads_past_the_stored_count_are_rejected():
    A, x_true, b_true = gen_shaw(64)
    state = bidiag_init(A, add_noise(b_true, 1e-2, 8))
    bidiag_extend(state, A, 3)
    assert state.Q_cols(3).shape == (64, 3) and state.P_cols(4).shape == (64, 4)
    with pytest.raises(ValueError, match="5 columns, only 3 stored"):
        state.Q_cols(5)
    # past the initial buffer capacity, too
    with pytest.raises(ValueError, match="40 columns, only 4 stored"):
        state.P_cols(40)


def test_blocks_are_column_major_past_the_first_capacity():
    # the first buffer holds 32 columns, so 40 steps grow both blocks
    rng = np.random.default_rng(20240101)
    A = DenseOperator(rng.standard_normal((120, 90)))
    state = bidiag_init(A, rng.standard_normal(120))
    p_cols, q_cols = [state.P[:, 0].copy()], []
    for _ in range(40):
        bidiag_extend(state, A, 1)
        q_cols.append(state.Q[:, -1].copy())
        p_cols.append(state.P[:, -1].copy())
    for k in range(1, 41):
        Q, P = state.Q_cols(k), state.P_cols(k + 1)
        assert Q.flags.f_contiguous and P.flags.f_contiguous, k
        np.testing.assert_array_equal(Q, np.column_stack(q_cols[:k]))
        np.testing.assert_array_equal(P, np.column_stack(p_cols[: k + 1]))


def test_lower_bidiagonal_builder():
    B = lower_bidiagonal([1.0, 2.0, 3.0], [4.0, 5.0])
    np.testing.assert_allclose(B, [[1, 0, 0], [4, 2, 0], [0, 5, 3]])
    with pytest.raises(ValueError):
        lower_bidiagonal([1.0, 2.0], [1.0, 2.0])
