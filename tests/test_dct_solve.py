import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficients, difference_matrix, pinv_oracle, random_orthonormal
from krylreg.bidiag import bidiag_extend, bidiag_init
from krylreg.hybrid import KrylovIterate, hyb_cgme_step, hyb_tcgme_step, run_hybrid
from krylreg.inner import (
    Difference1DSolver,
    Difference2DSolver,
    DirectSolveRejected,
    HybridIterate,
    IdentitySolver,
    LsqrSolver,
    corrected,
    inner_solvers,
)
from krylreg.metrics import Truth, relative_error
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


SIDES = [2, 3, 7, 8, 9, 15, 16, 96, 97]


@pytest.mark.parametrize("n", SIDES)
def test_dct_matches_explicit_cosine_matrix(n):
    # the solver's DCT-II matrix, built with its argument reduced mod 4n,
    # against the plain closed form; it diagonalizes the 1-D Neumann
    # Laplacian with the spectrum lam1, and maps the constants to row 0
    C = cosine_matrix(n)
    np.testing.assert_allclose(C @ C.T, np.eye(n), atol=1e-13)
    solver = Difference2DSolver(Stacked2DDifferenceOperator(n))
    np.testing.assert_allclose(solver._C, C, atol=1e-13)
    D = difference_matrix(n)
    lam1 = 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
    np.testing.assert_allclose(solver._C @ D.T @ D @ solver._C.T, np.diag(lam1), atol=1e-12)
    sqrt_n_e0 = np.zeros(n)
    sqrt_n_e0[0] = np.sqrt(n)
    np.testing.assert_allclose(solver._C @ np.ones(n), sqrt_n_e0, atol=1e-13 * n)


@pytest.mark.parametrize("n", SIDES)
def test_gram_is_pinv_of_neumann_laplacian(n):
    # _gram(v) = (L^T L)^+ v for the 2-D difference stack
    L = Stacked2DDifferenceOperator(n)
    solver = Difference2DSolver(L)
    v = np.random.default_rng(n).standard_normal(n * n)
    if n <= 16:
        D = np.vstack([np.kron(np.eye(n), difference_matrix(n)), np.kron(difference_matrix(n), np.eye(n))])
        np.testing.assert_array_equal(D, L.to_dense())
        expected = np.linalg.pinv(D.T @ D) @ v
        assert np.linalg.norm(solver._gram(v) - expected) <= 1e-12 * np.linalg.norm(expected)
        return
    # matrix-free: G L^T L is the projector off the constants, which G maps
    # to zero up to rounding amplified by 1/lam_min ~ (n/pi)^2
    np.testing.assert_allclose(solver._gram(L.apply_adjoint(L.apply(v))), v - v.mean(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(solver._gram(np.ones(n * n)), 0.0, rtol=0, atol=1e-15 * n**2)


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
    # the feasible set {x : Q^T x = Q^T x_k} is the oracle's, so x_k = Q Q^T x_k has its answer
    answer = Difference2DSolver(L).solve(Q, coefficients(Q, Q.T @ x_k))
    oracle = pinv_oracle(L, Q, x_k)
    assert np.linalg.norm(answer.x_L - oracle) <= 1e-10 * np.linalg.norm(oracle)
    assert answer.inner_backward_error <= 1e-10
    assert (answer.inner_iterations, answer.inner_cap_hit) == (0, False)


def test_direct_solve_grows_and_reuses_its_basis():
    # one solver over a growing block, including a step back to fewer
    # columns, agrees with a fresh solver at every width
    L = Stacked2DDifferenceOperator(6)
    Q = random_orthonormal(36, 9, seed=5)
    x_k = np.random.default_rng(6).standard_normal(36)
    solver = Difference2DSolver(L)
    for m in (1, 2, 5, 9, 4):
        iterate = coefficients(Q[:, :m], Q[:, :m].T @ x_k)
        x_L = solver.solve(Q[:, :m], iterate).x_L
        fresh = Difference2DSolver(L).solve(Q[:, :m], iterate).x_L
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
        Difference2DSolver(L).solve(Q, coefficients(Q, Q.T @ np.ones(25)))


def test_block_that_does_not_extend_the_cached_one_rejected():
    # the k-space checks read only the cached columns, which hold the
    # constraint for a block they were not built on
    L = Stacked2DDifferenceOperator(5)
    x_k = np.random.default_rng(1).standard_normal(25)
    solver = Difference2DSolver(L)
    first, other = random_orthonormal(25, 3, seed=1), random_orthonormal(25, 4, seed=2)
    solver.solve(first, coefficients(first, first.T @ x_k))
    with pytest.raises(DirectSolveRejected, match="block does not extend the columns grown"):
        solver.solve(other, coefficients(other, other.T @ x_k))
    with pytest.raises(DirectSolveRejected, match="block does not extend the columns grown"):
        solver.solve(other[:, :2], coefficients(other[:, :2], other[:, :2].T @ x_k))


def test_wrong_spectrum_caught_by_backward_error():
    # a feasible but non-optimal answer: the constraint holds, optimality not
    L = Stacked2DDifferenceOperator(5)
    solver = Difference2DSolver(L)
    solver._inv_lam[1:] *= np.linspace(0.5, 2.0, 24)
    Q = random_orthonormal(25, 3, seed=1)
    with pytest.raises(DirectSolveRejected, match="backward error"):
        solver.solve(Q, coefficients(Q, Q.T @ np.random.default_rng(1).standard_normal(25)))


@pytest.mark.parametrize(
    ("gram", "reason"),
    [
        pytest.param(np.zeros_like, "bordered system singular", id="singular"),
        pytest.param(lambda v: np.full_like(v, np.nan), "non-finite direct solution", id="non-finite"),
    ],
)
def test_broken_gram_rejected_and_sweep_keeps_lsqr_answer(gram, reason, monkeypatch):
    # G = 0 leaves K = [0 q0^T; q0 0], singular once m >= 2; a NaN G
    # poisons x_L
    L = Stacked2DDifferenceOperator(5)
    solver = Difference2DSolver(L)
    solver._gram = gram
    Q = random_orthonormal(25, 3, seed=1)
    with pytest.raises(DirectSolveRejected, match=reason):
        solver.solve(Q, coefficients(Q, Q.T @ np.random.default_rng(1).standard_normal(25)))
    # in a sweep every hyb_tcgme step (m = k + 1 >= 2) falls back, with the
    # reason recorded, and its row is the LSQR link's answer
    monkeypatch.setattr(Difference2DSolver, "_gram", lambda self, v: gram(v))
    problem = build_problem("blur2d", 8, 1e-2, 5, L_kind="first_diff_2d")
    sweep = run_hybrid(problem, ("hyb_tcgme",), max_outer_k=3, inner_tol=1e-10)["hyb_tcgme"]
    assert [fb.k for fb in sweep.fallbacks] == [1, 2, 3]
    assert all(reason in fb.reason for fb in sweep.fallbacks)
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 4)
    for row in sweep.rows:
        reference = hyb_tcgme_step(state, problem.L, row.k, 1e-10)
        assert row.rel_error == relative_error(reference.x_L, Truth(problem.L, problem.x_true))


def test_non_orthonormal_block_raises_like_lsqr_path():
    L = Stacked2DDifferenceOperator(5)
    Q = random_orthonormal(25, 3, seed=4)
    Q[:, 2] += 1e-6 * Q[:, 0]
    with pytest.raises(OrthonormalityError):
        Difference2DSolver(L).solve(Q, coefficients(Q, Q.T @ np.ones(25)))
    with pytest.raises(OrthonormalityError):
        LsqrSolver(L, 1e-6).solve(Q, np.ones(25))


def test_direct_solver_chosen_by_regularizer_type():
    def kinds(L):
        return [type(solver) for solver in inner_solvers(L, 1e-6)]

    assert kinds(Stacked2DDifferenceOperator(4)) == [Difference2DSolver, LsqrSolver]
    assert kinds(FirstDifferenceOperator(16)) == [Difference1DSolver, LsqrSolver]
    assert kinds(DenseOperator(difference_matrix(16))) == [LsqrSolver]
    assert kinds(IdentityOperator(16)) == [IdentitySolver]  # it never rejects


def test_a_chain_whose_last_link_rejects_raises():
    # inner_solvers never builds one, since its last link never rejects;
    # the chain walk's closing raise guards that rule
    class Refuses:
        def solve(self, Q, x_k):
            raise DirectSolveRejected("refused")

    with pytest.raises(DirectSolveRejected, match="every inner solver rejected the step: refused"):
        corrected(np.ones(4), np.eye(4)[:, :1], (Refuses(),))


@pytest.mark.parametrize(
    ("L_kind", "size"),
    [
        pytest.param("identity", 64, id="identity"),
        pytest.param("first_diff_1d", 64, id="first_diff_1d"),
        pytest.param("first_diff_2d", 8, id="first_diff_2d"),
        pytest.param("first_diff_2d", 33, id="first_diff_2d-33"),
    ],
)
def test_every_chain_link_meets_one_contract(L_kind, size):
    # each link, run on its own on the sweep's own KrylovIterate, gives a
    # finite x_L that keeps the projected constraint and agrees with the LSQR
    # reference, also where no LSQR link closes the chain (L = I), in the one
    # answer record with no fallback of its own; blur2d also on an odd side.
    # The 1-D exact link answers CGME's one-column block at k=1 and passes
    # (returns None) on every wider block
    name = "blur2d" if L_kind == "first_diff_2d" else "shaw"
    problem = build_problem(name, size, 1e-2, 5, L_kind=L_kind)
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 7)
    chain = inner_solvers(problem.L, 1e-12)
    lsqr = LsqrSolver(problem.L, 1e-12)
    for k in (1, 3, 6):
        for kernel, Q in ((cgme_iterate, state.Q_cols(k)), (tcgme_iterate, state.Q_cols(k + 1))):
            iterate = KrylovIterate(kernel, state, k)
            x_k = np.asarray(iterate)
            reference = lsqr.solve(Q, x_k).x_L
            for solver in chain:
                answer = solver.solve(Q, iterate)
                if isinstance(solver, Difference1DSolver) and Q.shape[1] > 1:
                    assert answer is None
                    continue
                assert isinstance(answer, HybridIterate) and answer.fallback is None
                x_L = answer.x_L
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
        b_true=b_true, b=b, epsilon=1e-2, seed=3, size=side,
    )


def test_sweep_records_lsqr_fallback_with_reason():
    problem = centered_blur_problem()
    sweep = run_hybrid(problem, ("hyb_cgme",), max_outer_k=3, inner_tol=1e-10)["hyb_cgme"]
    assert [row.k for row in sweep.rows] == [1, 2, 3]
    assert [fb.k for fb in sweep.fallbacks] == [1, 2, 3]
    assert all("constants numerically orthogonal" in fb.reason for fb in sweep.fallbacks)
    assert all(row.inner_iterations > 0 for row in sweep.rows)
    # the chain's direct link refuses, and the fallback iterate is the LSQR one
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 3)
    direct, lsqr = inner_solvers(problem.L, 1e-10)
    with pytest.raises(DirectSolveRejected, match="constants numerically orthogonal"):
        direct.solve(state.Q_cols(3), KrylovIterate(cgme_iterate, state, 3))
    fallen = lsqr.solve(state.Q_cols(3), cgme_iterate(state, 3)).x_L
    reference = hyb_cgme_step(state, problem.L, 3, 1e-10)
    assert reference.fallback is None
    np.testing.assert_allclose(fallen, reference.x_L, atol=1e-12)
    assert sweep.rows[2].rel_error == relative_error(reference.x_L, Truth(problem.L, problem.x_true))


def first_diff_state():
    """shaw at n=64 with ``first_diff_1d``, and its first two Krylov columns."""
    problem = build_problem("shaw", 64, 1e-2, 5)
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 2)
    return problem, state


def test_constant_link_is_the_exact_answer_on_one_column():
    # x_L = t 1 is the oracle's answer; its k-space seminorm error is exactly
    # |L x_true| / |L x_true| = 1, as the formed x_L's n-space error is
    problem, state = first_diff_state()
    Q, iterate = state.Q_cols(1), KrylovIterate(cgme_iterate, state, 1)
    answer = Difference1DSolver(problem.L).solve(Q, iterate)
    assert iterate.reads == 0  # no x_k formed
    assert (answer.inner_iterations, answer.inner_backward_error, answer.inner_cap_hit) == (0, 0.0, False)
    oracle = pinv_oracle(problem.L, Q, cgme_iterate(state, 1))
    assert np.linalg.norm(answer.x_L - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert not problem.L.apply(answer.x_L).any()
    truth = Truth(problem.L, problem.x_true)
    k_space = relative_error(answer, truth)
    n_space = relative_error(answer.x_L, truth)
    assert abs(k_space - n_space) <= 1e-15 and abs(k_space - 1.0) <= 1e-15


def test_constant_link_rejects_a_block_orthogonal_to_the_constants():
    # an alternating column sums to exactly 0: the link refuses, LSQR answers
    # the minimum-norm problem, and the chain records why
    problem, _ = first_diff_state()
    Q = np.where(np.arange(64) % 2, -1.0, 1.0)[:, None] / 8.0
    iterate = coefficients(Q, np.array([0.7]))
    chain = inner_solvers(problem.L, 1e-10)
    with pytest.raises(DirectSolveRejected, match="constants numerically orthogonal"):
        chain[0].solve(Q, iterate)
    answer = corrected(iterate, Q, chain)
    assert "constants numerically orthogonal" in answer.fallback
    assert answer.inner_iterations > 0
    np.testing.assert_array_equal(answer.x_L, LsqrSolver(problem.L, 1e-10).solve(Q, Q @ [0.7]).x_L)
    np.testing.assert_allclose(answer.x_L, pinv_oracle(problem.L, Q, Q @ [0.7]), atol=1e-8)


def test_constant_link_rejects_an_unvouched_constraint(monkeypatch):
    # a sum whose error bound is as large as the sum leaves t unvouched
    import krylreg.inner as inner

    problem, state = first_diff_state()
    monkeypatch.setattr(inner, "_sum_with_bound", lambda v, sigma: (float(v.sum()), abs(float(v.sum()))))
    with pytest.raises(DirectSolveRejected, match="constraint residual"):
        Difference1DSolver(problem.L).solve(state.Q_cols(1), KrylovIterate(cgme_iterate, state, 1))


def test_constant_link_rejects_a_non_finite_answer():
    problem, state = first_diff_state()
    Q = state.Q_cols(1)
    with pytest.raises(DirectSolveRejected, match="non-finite"):
        Difference1DSolver(problem.L).solve(Q, coefficients(Q, np.array([np.nan])))


def test_constant_link_passes_a_wider_block_to_lsqr():
    problem, state = first_diff_state()
    Q, iterate = state.Q_cols(2), KrylovIterate(tcgme_iterate, state, 1)
    chain = inner_solvers(problem.L, 1e-10)
    assert chain[0].solve(Q, iterate) is None
    answer = corrected(iterate, Q, chain)
    assert answer.fallback is None and answer.inner_iterations > 0
    np.testing.assert_array_equal(answer.x_L, chain[1].solve(Q, tcgme_iterate(state, 1)).x_L)


def test_shaw_sweep_answers_hyb_cgme_k1_without_lsqr():
    records = run_hybrid(build_problem("shaw", 1000, 1e-2, 20240101), ("hyb_cgme", "hyb_tcgme"), max_outer_k=3)
    assert all(record.fallbacks == [] for record in records.values())
    first = records["hyb_cgme"].rows[0]
    assert (first.k, first.inner_iterations, first.inner_cap_hit) == (1, 0, False)
    assert abs(first.rel_error - 1.0) <= 2.0**-52
    assert all(row.inner_iterations > 0 for row in records["hyb_cgme"].rows[1:] + records["hyb_tcgme"].rows)


# Difference1DSolver's G and its solve on wider blocks.  While the 1-D link
# answers one-column blocks only, where mu = 0 and G changes no answer, these
# tests are the only check on G: each calls the unguarded solve, the base
# class's, on blocks of any width.
@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_1d_gram_is_pinv_of_neumann_laplacian(n):
    L = FirstDifferenceOperator(n)
    solver = Difference1DSolver(L)
    D = difference_matrix(n)
    np.testing.assert_array_equal(D, L.to_dense())
    v = np.random.default_rng(n).standard_normal(n) + 3.0  # a mean both sums must take off
    # pinv(D^T D) = pinv(D) pinv(D)^T, which squares no condition number
    # (np.linalg.pinv(D.T @ D) itself is off by 2.8e-12 at n=64)
    expected = np.linalg.pinv(D) @ (np.linalg.pinv(D).T @ v)
    assert np.linalg.norm(solver._gram(v) - expected) <= 1e-12 * np.linalg.norm(expected)
    np.testing.assert_allclose(solver._gram(np.ones(n)), 0.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(D.T @ D @ solver._gram(v), v - v.mean(), rtol=0, atol=1e-12 * np.linalg.norm(v))
    assert solver._pinv_norm == pytest.approx(1.0 / np.linalg.svd(D, compute_uv=False)[-1], rel=1e-13)


def test_unguarded_1d_solve_matches_pinv_oracle():
    # one solver grown over the sweep's own blocks, as a sweep grows it
    problem, state = first_diff_state()
    bidiag_extend(state, 6)
    solver = Difference1DSolver(problem.L)
    for k in (1, 2, 3, 5, 7):
        for kernel, Q in ((cgme_iterate, state.Q_cols(k)), (tcgme_iterate, state.Q_cols(k + 1))):
            answer = Difference2DSolver.solve(solver, Q, KrylovIterate(kernel, state, k))
            oracle = pinv_oracle(problem.L, Q, kernel(state, k))
            assert np.linalg.norm(answer.x_L - oracle) <= 1e-12 * np.linalg.norm(oracle)
            assert answer.inner_backward_error <= 1e-10 and answer.fallback is None


@pytest.mark.parametrize("name", ["shaw", "deriv2"])
def test_unguarded_1d_solve_matches_tight_lsqr_errors(name):
    # every per-k seminorm error, taken in k space, against the LSQR
    # reference at tol=1e-12
    problem = build_problem(name, 300, 1e-2, 20240101)
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 16)
    solver = Difference1DSolver(problem.L)
    truth = Truth(problem.L, problem.x_true)
    for k in range(1, 16):
        for kernel, step, m in ((cgme_iterate, hyb_cgme_step, k), (tcgme_iterate, hyb_tcgme_step, k + 1)):
            answer = Difference2DSolver.solve(solver, state.Q_cols(m), KrylovIterate(kernel, state, k))
            reference = relative_error(step(state, problem.L, k, 1e-12).x_L, truth)
            assert abs(relative_error(answer, truth) - reference) <= 1e-8 * reference


def test_one_column_1d_answer_is_the_constant_closed_form():
    # x_L = (c_1 / sum(q)) 1, the one feasible point in null(L)
    problem, state = first_diff_state()
    Q, iterate = state.Q_cols(1), KrylovIterate(cgme_iterate, state, 1)
    x_L = Difference1DSolver(problem.L).solve(Q, iterate).x_L
    t = iterate.coeffs()[0] / Q[:, 0].sum()
    assert np.abs(x_L - t).max() <= 1e-15 * abs(t)
