import numpy as np
import pytest
from conftest import make_state

from krylreg.bidiag import GolubKahanBreakdown, bidiag_extend, bidiag_init, bidiagonal
from krylreg.operators import DenseOperator
from krylreg.problems import add_noise, gen_deriv2, gen_shaw
from krylreg.solvers import cgme_iterate, tcgme_iterate


def shaw_state(k, n=64, seed=21, eps=1e-2, gen=gen_shaw):
    A, x_true, b_true = gen(n)
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


@pytest.mark.parametrize("iterate,columns", [(cgme_iterate, 0), (tcgme_iterate, 1)])
def test_coefficients_give_the_iterate(iterate, columns):
    # x_k = Q c, with c of length k (CGME) or k + 1 (TCGME), as a new array
    _, _, state = shaw_state(9)
    for k in range(1, 9):
        c = iterate(state, k, coeffs=True)
        assert c.shape == (k + columns,)
        np.testing.assert_allclose(state.Q_cols(k + columns) @ c, iterate(state, k), rtol=1e-13, atol=1e-15)
        c[:] = np.nan  # a caller that overwrites its coefficients
        assert np.all(np.isfinite(iterate(state, k, coeffs=True)))


def count_truncations(monkeypatch):
    """Record the shape of every least-squares solve a truncation makes."""
    lstsq, calls = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq", lambda B, rhs, rcond: calls.append(B.shape) or lstsq(B, rhs, rcond))
    return calls


def test_tcgme_truncation_is_taken_once_per_k(monkeypatch):
    # the coefficients and the iterate at one k share the state's one
    # solve; in sweep order (and at k=1) that solve's first cut holds
    _, _, state = shaw_state(6)
    calls = count_truncations(monkeypatch)
    for k in (1, 1, 2, 2, 3, 3, 1):
        tcgme_iterate(state, k, coeffs=True)
        tcgme_iterate(state, k)
    assert calls == [(2, 2), (3, 3), (4, 4), (2, 2)]


def _tcgme_oracle(A, b, state, k):
    """``Q_{k+1} pinv(C_k) P_{k+1}^T b``, with ``C_k`` the rank-k SVD
    truncation of the dense ``P_{k+1}^T A Q_{k+1}``."""
    P, Q = state.P_cols(k + 1), state.Q_cols(k + 1)
    U, s, Vt = np.linalg.svd(P.T @ A.to_dense() @ Q)
    C = (U[:, :k] * s[:k]) @ Vt[:k]
    return Q @ (np.linalg.pinv(C) @ (P.T @ b))


def test_tcgme_matches_dense_oracle_past_the_divide_and_conquer_size():
    # xGELSD solves blocks above 25 x 25 by divide and conquer
    A, b, state = shaw_state(41, n=300, gen=gen_deriv2)
    for k in range(1, 41):
        x = tcgme_iterate(state, k)  # in sweep order, so each k cuts once
        if k >= 30:
            oracle = _tcgme_oracle(A, b, state, k)
            assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle), k


def test_tcgme_cut_miss_takes_a_second_solve(monkeypatch):
    # alpha_3 lifts s_1 from 1.3 to 100: the cut at s_min(B_2) / s_1(B_2)
    # then lies above s_2(B_3) / s_1(B_3), so it drops two values, and the
    # second solve cuts between s_2 and s_3 of B_3
    state = make_state(alphas=[1.0, 1.0, 100.0], betas=[1.0, 0.5, 0.5])
    calls = count_truncations(monkeypatch)
    tcgme_iterate(state, 1)
    c = tcgme_iterate(state, 2, coeffs=True)
    assert calls == [(2, 2), (3, 3), (3, 3)]
    B = bidiagonal(state, 3, 3)
    U, s, Vt = np.linalg.svd(B)
    oracle = Vt[:2].T @ (U[0, :2] / s[:2])
    assert np.linalg.norm(c - oracle) <= 1e-14 * np.linalg.norm(oracle)


def test_tcgme_memo_gives_the_same_bits_in_any_call_order():
    def fresh():
        return shaw_state(36, n=300, gen=gen_deriv2)[2]

    state = fresh()
    consecutive = [tcgme_iterate(state, k, coeffs=True) for k in range(1, 36)]
    for k in (30, 30, 35, 3, 1, 35, 29, 28, 2):  # repeated, backwards, forwards
        np.testing.assert_array_equal(tcgme_iterate(state, k, coeffs=True), consecutive[k - 1])
    for k in (2, 27, 35):
        np.testing.assert_array_equal(tcgme_iterate(fresh(), k, coeffs=True), consecutive[k - 1])
