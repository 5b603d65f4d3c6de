import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal
from krylreg.bidiag import bidiag_extend, bidiag_init
from krylreg.dct_solve import Difference2DSolver, DirectSolveRejected, dct, idct
from krylreg.hybrid import HybridConfig, IdentitySolver, LsqrSolver, hyb_cgme_step, inner_solvers, run_hybrid
from krylreg.lsqr import LsqrConfig
from krylreg.metrics import relative_error
from krylreg.operators import (
    DenseOperator,
    FirstDifferenceOperator,
    IdentityOperator,
    OrthonormalityError,
    Stacked2DDifferenceOperator,
)
from krylreg.problems import ProblemInstance, build_problem, gen_blur2d
from krylreg.solvers import cgme_iterate, tcgme_iterate


def cosine_matrix(n: int) -> np.ndarray:
    """Explicit orthonormal DCT-II matrix."""
    i = np.arange(n)
    C = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(i, 2 * i + 1) / (2 * n))
    C[0] /= np.sqrt(2.0)
    return C


@pytest.mark.parametrize("n", [2, 3, 7, 8, 15, 16])
def test_dct_matches_explicit_cosine_matrix(n):
    C = cosine_matrix(n)
    np.testing.assert_allclose(C @ C.T, np.eye(n), atol=1e-13)
    x = np.random.default_rng(n).standard_normal((n, 5))
    np.testing.assert_allclose(dct(x, axis=0), C @ x, atol=1e-13)
    np.testing.assert_allclose(dct(x.T, axis=1), (C @ x).T, atol=1e-13)
    np.testing.assert_allclose(idct(C @ x, axis=0), x, atol=1e-13)
    np.testing.assert_allclose(idct((C @ x).T, axis=1), x.T, atol=1e-13)


def pinv_oracle(L, Q, x_k):
    # acceptance criterion 3: x_L = x_k - pinv(L (I - QQ^T)) L x_k
    Ld = L.to_dense()
    M = Ld @ (np.eye(Q.shape[0]) - Q @ Q.T)
    return x_k - np.linalg.pinv(M, rcond=1e-10) @ (Ld @ x_k)


@settings(max_examples=40, deadline=None)
@given(
    side=st.integers(min_value=3, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_direct_solve_matches_pinv_oracle(side, frac, seed):
    L = Stacked2DDifferenceOperator(side)
    n = side * side
    k = 1 + int(frac * (n - 2))
    Q = random_orthonormal(n, k, seed)
    x_k = np.random.default_rng(seed + 1).standard_normal(n)
    x_L, backward_error, iterations, cap_hit = Difference2DSolver(L).solve(Q, x_k)
    oracle = pinv_oracle(L, Q, x_k)
    assert np.linalg.norm(x_L - oracle) <= 1e-10 * np.linalg.norm(oracle)
    assert backward_error <= 1e-10
    assert (iterations, cap_hit) == (0, False)


def test_direct_solve_grows_and_reuses_its_basis():
    # one solver over a growing block, including a step back to fewer
    # columns, agrees with a fresh solver at every width
    L = Stacked2DDifferenceOperator(6)
    Q = random_orthonormal(36, 9, seed=5)
    x_k = np.random.default_rng(6).standard_normal(36)
    solver = Difference2DSolver(L)
    for m in (1, 2, 5, 9, 4):
        x_L, *_ = solver.solve(Q[:, :m], x_k)
        fresh, *_ = Difference2DSolver(L).solve(Q[:, :m], x_k)
        np.testing.assert_allclose(x_L, fresh, atol=1e-12)
        np.testing.assert_allclose(x_L, pinv_oracle(L, Q[:, :m], x_k), atol=1e-10)


def constants_orthogonal_block(n: int, k: int, seed: int) -> np.ndarray:
    G = np.random.default_rng(seed).standard_normal((n, k))
    G -= G.mean(axis=0)
    return np.linalg.qr(G)[0]


def test_constants_orthogonal_to_range_rejected():
    L = Stacked2DDifferenceOperator(5)
    Q = constants_orthogonal_block(25, 3, seed=2)
    with pytest.raises(DirectSolveRejected, match="constants numerically orthogonal"):
        Difference2DSolver(L).solve(Q, np.ones(25))


def test_block_that_does_not_extend_the_cached_one_rejected():
    L = Stacked2DDifferenceOperator(5)
    x_k = np.random.default_rng(1).standard_normal(25)
    solver = Difference2DSolver(L)
    solver.solve(random_orthonormal(25, 3, seed=1), x_k)
    with pytest.raises(DirectSolveRejected, match="constraint residual"):
        solver.solve(random_orthonormal(25, 4, seed=2), x_k)


def test_wrong_spectrum_caught_by_backward_error():
    # a feasible but non-optimal answer: the constraint holds, optimality not
    L = Stacked2DDifferenceOperator(5)
    solver = Difference2DSolver(L)
    solver._inv_lam[1:] *= np.linspace(0.5, 2.0, 24)
    with pytest.raises(DirectSolveRejected, match="backward error"):
        solver.solve(random_orthonormal(25, 3, seed=1), np.random.default_rng(1).standard_normal(25))


def test_non_orthonormal_block_raises_like_lsqr_path():
    L = Stacked2DDifferenceOperator(5)
    Q = random_orthonormal(25, 3, seed=4)
    Q[:, 2] += 1e-6 * Q[:, 0]
    with pytest.raises(OrthonormalityError):
        Difference2DSolver(L).solve(Q, np.ones(25))
    with pytest.raises(OrthonormalityError):
        LsqrSolver(L, LsqrConfig()).solve(Q, np.ones(25))


def test_direct_solver_chosen_by_regularizer_type():
    def kinds(L):
        return [type(solver) for solver in inner_solvers(L, LsqrConfig())]

    assert kinds(Stacked2DDifferenceOperator(4)) == [Difference2DSolver, LsqrSolver]
    assert kinds(FirstDifferenceOperator(16)) == [LsqrSolver]
    assert kinds(IdentityOperator(16)) == [IdentitySolver, LsqrSolver]


@pytest.mark.parametrize("L_kind", ["identity", "first_diff_1d", "first_diff_2d"])
def test_every_chain_link_meets_one_contract(L_kind):
    # each link, run on its own, gives a finite x_L that keeps the projected
    # constraint and agrees with the chain's closing LSQR link
    name = "blur2d" if L_kind == "first_diff_2d" else "shaw"
    problem = build_problem(name, 8 if name == "blur2d" else 64, 1e-2, 5, L_kind=L_kind)
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, problem.A, 7)
    chain = inner_solvers(problem.L, LsqrConfig(tol=1e-12))
    assert isinstance(chain[-1], LsqrSolver)
    for k in (1, 3, 6):
        for x_k, Q in ((cgme_iterate(state, k), state.Q_cols(k)), (tcgme_iterate(state, k), state.Q_cols(k + 1))):
            reference = chain[-1].solve(Q, x_k)[0]
            for solver in chain:
                x_L = solver.solve(Q, x_k)[0]
                assert np.all(np.isfinite(x_L))
                assert np.linalg.norm(Q.T @ x_L - Q.T @ x_k) <= 1e-10 * np.linalg.norm(Q.T @ x_k)
                assert np.linalg.norm(x_L - reference) <= 1e-8 * np.linalg.norm(reference)


def centered_blur_problem(side: int = 8) -> ProblemInstance:
    # A = K (I - 11^T/n): every right Krylov vector lies in range(A^T),
    # which is orthogonal to the constants, so the direct solve must refuse
    K, x_true, _ = gen_blur2d(side, psf_sigma=1.0)
    n = side * side
    A = DenseOperator(K.to_dense() @ (np.eye(n) - np.full((n, n), 1.0 / n)))
    b_true = A.apply(x_true)
    b = b_true + 1e-2 * np.linalg.norm(b_true) * np.random.default_rng(3).standard_normal(n) / np.sqrt(n)
    return ProblemInstance(
        name="centered-blur", A=A, L=Stacked2DDifferenceOperator(side), x_true=x_true,
        b_true=b_true, b=b, epsilon=1e-2, seed=3, size=side, L_kind="first_diff_2d",
    )


def test_sweep_records_lsqr_fallback_with_reason():
    problem = centered_blur_problem()
    cfg = HybridConfig(inner=LsqrConfig(tol=1e-10), max_outer_k=3)
    sweep = run_hybrid(problem, ("hyb_cgme",), cfg)["hyb_cgme"]
    assert [row.k for row in sweep.rows] == [1, 2, 3]
    assert [fb.k for fb in sweep.fallbacks] == [1, 2, 3]
    assert all("constants numerically orthogonal" in fb.reason for fb in sweep.fallbacks)
    assert all(row.inner_iterations > 0 for row in sweep.rows)
    # the chain's direct link refuses, and the fallback iterate is the LSQR one
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, problem.A, 3)
    direct, lsqr = inner_solvers(problem.L, cfg.inner)
    with pytest.raises(DirectSolveRejected, match="constants numerically orthogonal"):
        direct.solve(state.Q_cols(3), cgme_iterate(state, 3))
    fallen = lsqr.solve(state.Q_cols(3), cgme_iterate(state, 3))[0]
    reference = hyb_cgme_step(state, problem.L, 3, cfg)
    assert reference.fallback is None
    np.testing.assert_allclose(fallen, reference.x_L, atol=1e-12)
    assert sweep.rows[2].rel_error == relative_error(problem.L, reference.x_L, problem.x_true)
