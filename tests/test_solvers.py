import numpy as np
import pytest

from krylreg.bidiag import BidiagState, GolubKahanBreakdown, bidiag_extend, bidiag_init
from krylreg.bidiag import _ColumnBlock  # test-only: hand-built states
from krylreg.operators import DenseOperator
from krylreg.problems import add_noise, gen_shaw
from krylreg.solvers import cgme_iterate, tcgme_iterate


def make_state(alphas, betas, m=None, n=None):
    """State with identity P/Q blocks and prescribed coefficients, and no
    operator: only an extension or an oracle reads ``state.A``."""
    k = len(alphas)
    m = m or k + 1
    n = n or k + 1
    p = _ColumnBlock(m)
    for j in range(min(k + 1, m)):
        p.append(np.eye(m)[:, j])
    q = _ColumnBlock(n)
    for j in range(k):
        q.append(np.eye(n)[:, j])
    return BidiagState(None, p, q, list(alphas), list(betas), 1e-300)


def shaw_state(k, n=64, seed=21, eps=1e-2):
    A, x_true, b_true = gen_shaw(n)
    b = add_noise(b_true, eps, seed)
    state = bidiag_init(A, b)
    bidiag_extend(state, k)
    return A, b, state


def test_cgme_first_iterate_is_scaled_first_column():
    A = DenseOperator(np.diag([2.0, 1.0]))
    b = np.array([1.0, 1.0]) / np.sqrt(2)
    state = bidiag_init(A, b)
    bidiag_extend(state, 1)
    it = cgme_iterate(state, 1)
    np.testing.assert_allclose(it, state.Q[:, 0] * (state.beta1 / state.alphas[0]))
    assert isinstance(it, np.ndarray) and it.shape == (2,)


def test_cgme_full_dimension_reaches_exact_solution():
    A = DenseOperator(np.diag([2.0, 1.0]))
    b = np.array([1.0, 1.0])
    state = bidiag_init(A, b)
    with pytest.raises(GolubKahanBreakdown):  # space exhausted at full dimension
        bidiag_extend(state, 2)
    assert state.k == 2
    it = cgme_iterate(state, 2)
    np.testing.assert_allclose(it, [0.5, 1.0], atol=1e-12)


def test_cgme_matches_dense_oracle_on_shaw():
    A, b, state = shaw_state(6)
    it = cgme_iterate(state, 5)
    P5 = state.P_cols(5)
    Q5 = state.Q_cols(5)
    B5 = state.P_cols(5).T @ A.entries @ Q5
    oracle = Q5 @ np.linalg.solve(B5, P5.T @ b)
    assert np.linalg.norm(it - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_tcgme_matches_dense_oracle_on_shaw():
    A, b, state = shaw_state(6)
    it = tcgme_iterate(state, 5)
    P6 = state.P_cols(6)
    Q6 = state.Q_cols(6)
    B6 = P6.T @ A.entries @ Q6
    U, s, Vt = np.linalg.svd(B6)
    C5 = (U[:, :5] * s[:5]) @ Vt[:5]
    oracle = Q6 @ (np.linalg.pinv(C5) @ (P6.T @ b))
    assert np.linalg.norm(it - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_tcgme_collapses_to_cgme_when_last_beta_vanishes():
    # With beta_{k+1} ~ 0 and alpha_{k+1} below the spectrum of B_k, the
    # square (k+1) block is block-diagonal and truncation removes exactly
    # the alpha_{k+1} direction.
    state = make_state(alphas=[2.0, 1.0, 1e-9], betas=[1.0, 0.5, 1e-12, 0.1])
    xc = cgme_iterate(state, 2)
    xt = tcgme_iterate(state, 2)
    assert np.linalg.norm(xt - xc) <= 1e-8 * np.linalg.norm(xc)


def test_iterate_range_membership():
    A, b, state = shaw_state(8)
    it = cgme_iterate(state, 7)
    Q7 = state.Q_cols(7)
    outside = it - Q7 @ (Q7.T @ it)
    assert np.linalg.norm(outside) <= 1e-10 * np.linalg.norm(it)
    itt = tcgme_iterate(state, 7)
    Q8 = state.Q_cols(8)
    outside_t = itt - Q8 @ (Q8.T @ itt)
    assert np.linalg.norm(outside_t) <= 1e-10 * np.linalg.norm(itt)


def test_depth_validation_messages():
    A, b, state = shaw_state(4)
    with pytest.raises(ValueError, match="4"):
        cgme_iterate(state, 5)
    with pytest.raises(ValueError, match="needs 5"):
        tcgme_iterate(state, 4)
    with pytest.raises(ValueError):
        cgme_iterate(state, 0)


def test_cgme_semi_convergence_interior_minimum():
    A, x_true, b_true = gen_shaw(1000)
    b = add_noise(b_true, 1e-2, 20240101)
    state = bidiag_init(A, b)
    bidiag_extend(state, 18)
    errs = []
    for k in range(1, 19):
        x = cgme_iterate(state, k)
        errs.append(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))
    best = int(np.argmin(errs))
    assert 0 < best < len(errs) - 1


def _cgme_oracle(state, k):
    """Forward substitution through ``B_k`` and one product with ``Q_k``."""
    y = np.empty(k)
    y[0] = state.beta1 / state.alphas[0]
    for i in range(1, k):
        y[i] = -state.betas[i] * y[i - 1] / state.alphas[i]
    return state.Q_cols(k) @ y


def test_cgme_memo_gives_the_same_bits_in_any_call_order():
    _, _, state = shaw_state(12)
    consecutive = [cgme_iterate(state, k) for k in range(1, 13)]
    for k in (7, 7, 12, 3, 1, 12, 5, 6):  # repeated, backwards, forwards
        np.testing.assert_array_equal(cgme_iterate(state, k), consecutive[k - 1])
    for k in (1, 6, 12):
        _, _, fresh = shaw_state(12)
        np.testing.assert_array_equal(cgme_iterate(fresh, k), consecutive[k - 1])
    for k, x in enumerate(consecutive, start=1):
        oracle = _cgme_oracle(state, k)
        assert np.linalg.norm(x - oracle) <= 1e-14 * np.linalg.norm(oracle)


def test_cgme_memo_keeps_the_step_check_and_its_own_copy():
    _, _, state = shaw_state(4)
    _, _, fresh = shaw_state(4)
    for k in (3, 3, 4):
        cgme_iterate(state, k)[:] = np.nan  # a caller that overwrites its iterate
    for k in (3, 4):
        np.testing.assert_array_equal(cgme_iterate(state, k), cgme_iterate(fresh, k))
    with pytest.raises(ValueError, match="needs 5 bidiagonalization steps"):
        cgme_iterate(state, 5)
    with pytest.raises(ValueError, match="k must be >= 1"):
        cgme_iterate(state, 0)
