"""The exact 2-D inner solve vouches for each new Krylov column once, with the
residual of one ``L^T L`` product, and for each answer with k-space bounds on
its constraint residual, its backward error and its seminorm error.  These
tests hold the bounds against the n-space quantities they replaced, show that
a wrong column is still rejected, and count the work of a step."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coefficients, random_orthonormal
from krylreg.bidiag import _ColumnBlock, bidiag_extend, bidiag_init
from krylreg.hybrid import KrylovIterate, hyb_tcgme_step, run_hybrid
from krylreg.inner import Difference2DSolver, DirectSolveRejected, _sum_with_bound
from krylreg.metrics import relative_error
from krylreg.operators import Stacked2DDifferenceOperator
from krylreg.problems import build_problem


def n_space_backward_error(L, Q, x_k, x_L):
    """The backward error of ``z = x_k - x_L`` in LSQR's stop test, formed
    with two ``L`` products and the projector ``P = I - QQ^T``:
    ``min(|P L^T L x_L| / |L x_L|, |L x_L| / |z|) / |L|_F``, 0 when
    ``L x_L = 0``."""
    r = L.apply(x_L)
    rnorm = float(np.linalg.norm(r))
    if rnorm == 0.0:
        return 0.0
    g = L.apply_adjoint(r)
    error = float(np.linalg.norm(g - Q @ (Q.T @ g))) / rnorm
    znorm = float(np.linalg.norm(x_k - x_L))
    if znorm > 0.0:
        error = min(error, rnorm / znorm)
    return error / L.frobenius_norm()


def assert_bound_covers_oracle(L, x_L, bound, oracle):
    # The bound is taken for x_L = W mu + t e in exact arithmetic; the oracle
    # also sees the rounding of that sum, about one ulp of |x_L|, which L^T L
    # (|L|_2^2 <= 8) carries into its numerator.  Over 3000 random cases drawn
    # as in the test below, the oracle exceeded the bound by at most 1.03 ulp
    # of |x_L| in these units, an eighth of the slack.
    lx = float(np.linalg.norm(L.apply(x_L)))
    slack = 8.0 * np.finfo(float).eps * float(np.linalg.norm(x_L)) / (lx * L.frobenius_norm()) if lx else 0.0
    assert oracle <= bound + slack
    assert bound <= 1e-10 and oracle <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    side=st.integers(min_value=3, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bound_covers_n_space_backward_error_on_random_blocks(side, frac, seed):
    # the cases of test_direct_solve_matches_pinv_oracle
    L = Stacked2DDifferenceOperator(side)
    n = side * side
    Q = random_orthonormal(n, 1 + int(frac * (n - 2)), seed)
    x_k = np.random.default_rng(seed + 1).standard_normal(n)
    answer = Difference2DSolver(L, np.zeros(n)).solve(Q, coefficients(Q, Q.T @ x_k))
    oracle = n_space_backward_error(L, Q, x_k, answer.x_L)
    assert_bound_covers_oracle(L, answer.x_L, answer.inner_backward_error, oracle)


def test_bound_covers_n_space_backward_error_on_every_blur2d_step(monkeypatch):
    seen = []
    solve = Difference2DSolver.solve

    def recording(self, Q, x_k):
        answer = solve(self, Q, x_k)
        # the sweep passes coefficients; the oracle reads x_k = Q c
        x = Q @ x_k.coeffs()
        seen.append((answer.x_L, answer.inner_backward_error, n_space_backward_error(self.L, Q, x, answer.x_L)))
        return answer

    monkeypatch.setattr(Difference2DSolver, "solve", recording)
    problem = build_problem("blur2d", 16, 1e-2, 20240101, L_kind="first_diff_2d")
    sweeps = run_hybrid(problem, ("hyb_cgme", "hyb_tcgme"), max_outer_k=30, inner_tol=1e-6)
    assert [(len(s.rows), s.fallbacks) for s in sweeps.values()] == [(30, []), (30, [])]
    assert len(seen) == 60
    for x_L, bound, oracle in seen:
        assert_bound_covers_oracle(problem.L, x_L, bound, oracle)


def test_a_column_costs_one_L_product_and_a_solve_none(monkeypatch):
    L = Stacked2DDifferenceOperator(6)
    calls = []

    def counted(name):
        method = getattr(L, name)

        def call(v):
            calls.append(name)
            return method(v)

        return call

    for name in ("apply", "apply_adjoint"):
        monkeypatch.setattr(L, name, counted(name))
    solver = Difference2DSolver(L, np.zeros(36))
    Q = random_orthonormal(36, 5, seed=3)
    c = np.random.default_rng(4).standard_normal(5)
    for m, grown in ((3, 3), (3, 0), (2, 0), (5, 2)):
        calls.clear()
        solver.solve(Q[:, :m], coefficients(Q[:, :m], c[:m]))
        assert calls == ["apply", "apply_adjoint"] * grown


def corrupt_column(monkeypatch, j, Q, size=1e-3, error=None):
    """Every ``Difference2DSolver``'s ``_gram`` is off by ``size |w|`` along
    the unit vector ``error`` on column ``j`` (counted from 0) of its block,
    and exact elsewhere; returns ``error``.  By default it is a random
    direction orthogonal to ``range(Q)``, so ``S = Q^T W`` and the answer's
    constraint still hold: the answer is feasible but not the minimizer,
    and only the backward-error bound, through the column's residual, can
    refuse it."""
    if error is None:
        r = np.random.default_rng(0).standard_normal(Q.shape[0])
        error = r - Q @ (Q.T @ r)
        error /= np.linalg.norm(error)
    gram = Difference2DSolver._gram

    def corrupted(self, v):
        w = gram(self, v)
        return w + size * np.linalg.norm(w) * error if self._W.count == j else w

    monkeypatch.setattr(Difference2DSolver, "_gram", corrupted)
    return error


@pytest.mark.parametrize("j", [1, 3])
def test_corrupt_column_rejected_by_every_solve_that_reads_it(j, monkeypatch):
    L = Stacked2DDifferenceOperator(5)
    Q = random_orthonormal(25, 6, seed=1)
    corrupt_column(monkeypatch, j, Q)
    x_k = np.random.default_rng(1).standard_normal(25)
    solver = Difference2DSolver(L, np.zeros(25))
    for m in range(1, 7):
        iterate = coefficients(Q[:, :m], Q[:, :m].T @ x_k)
        if m <= j:
            assert solver.solve(Q[:, :m], iterate).inner_backward_error <= 1e-10
        else:
            with pytest.raises(DirectSolveRejected, match="backward error"):
                solver.solve(Q[:, :m], iterate)


def test_corrupt_column_sweep_falls_back_from_its_step_on(monkeypatch):
    # hyb_tcgme at k reads m = k + 1 columns, so column 2 is read from k = 2
    # on; those rows are the LSQR link's answers
    problem = build_problem("blur2d", 8, 1e-2, 5, L_kind="first_diff_2d")
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 6)
    corrupt_column(monkeypatch, 2, state.Q_cols(6))
    sweep = run_hybrid(problem, ("hyb_tcgme",), max_outer_k=5, inner_tol=1e-10)["hyb_tcgme"]
    assert [fb.k for fb in sweep.fallbacks] == [2, 3, 4, 5]
    assert all("backward error" in fb.reason for fb in sweep.fallbacks)
    assert sweep.rows[0].inner_iterations == 0
    for row in sweep.rows[1:]:
        reference = hyb_tcgme_step(state, problem.L, row.k, 1e-10)
        assert row.rel_error == relative_error(problem.L, reference.x_L, problem.x_true)


PINNED_SEEDS = (20240101, 20250607)
EXTENDED = np.finfo(np.longdouble).eps < 1e-18
needs_extended = pytest.mark.skipif(not EXTENDED, reason="needs an extended-precision long double")


def n_space_constraint_residual(Q, x_L, c):
    """``|Q^T x_L - Q^T x_k|`` for ``x_k = Q c``, in extended precision, so
    that the residual carries none of its own evaluation's rounding."""
    Ql = Q.astype(np.longdouble)
    gap = Ql.T @ x_L.astype(np.longdouble) - Ql.T @ (Ql @ c.astype(np.longdouble))
    return float(np.sqrt(np.sum(gap * gap)))


def recording_constraint_bound(monkeypatch):
    bounds = []
    bound = Difference2DSolver._constraint_bound

    def recording(self, sol, y):
        bounds.append(bound(self, sol, y))
        return bounds[-1]

    monkeypatch.setattr(Difference2DSolver, "_constraint_bound", recording)
    return bounds


# The stored S = Q^T W counts as exact in the bound; its own rounding is what
# the covering ratio below leaves room for.  Over 3000 random cases drawn as
# below, a third of them with one column, the residual reached 0.36 of the
# bound, and 0.31 on the blur2d steps at N=96.  The pinned case has one
# column, so mu = 0: its residual is the rounding of q0 = Q^T e and of
# x_L = t e, and it exceeds by 10% a bound that sums q0 plainly and leaves
# out the rounding of q0 and of evaluating |S mu + t q0 - y|.
@needs_extended
@settings(max_examples=40, deadline=None)
@given(
    side=st.integers(min_value=3, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(side=3, frac=0.0, seed=48506)
def test_constraint_bound_covers_n_space_residual_on_random_blocks(side, frac, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        bounds = recording_constraint_bound(monkeypatch)
        n = side * side
        Q = random_orthonormal(n, 1 + int(frac * (n - 2)), seed)
        c = np.random.default_rng(seed + 1).standard_normal(Q.shape[1])
        answer = Difference2DSolver(Stacked2DDifferenceOperator(side), np.zeros(n)).solve(Q, coefficients(Q, c))
    assert len(bounds) == 1
    assert n_space_constraint_residual(Q, answer.x_L, c) <= bounds[0] <= 1e-10 * np.linalg.norm(c)


@needs_extended
@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_constraint_bound_covers_n_space_residual_on_every_blur2d_step(seed, monkeypatch):
    # the benchmark's blur2d sweep: every step is vouched for, none falls back
    bounds = recording_constraint_bound(monkeypatch)
    seen = []
    solve = Difference2DSolver.solve

    def recording(self, Q, x_k):
        answer = solve(self, Q, x_k)
        seen.append((n_space_constraint_residual(Q, answer.x_L, x_k.coeffs()), bounds[-1], x_k.coeffs()))
        return answer

    monkeypatch.setattr(Difference2DSolver, "solve", recording)
    problem = build_problem("blur2d", 96, 1e-2, seed, L_kind="first_diff_2d")
    sweeps = run_hybrid(problem, ("hyb_cgme", "hyb_tcgme"), max_outer_k=30, inner_tol=1e-6)
    assert [(len(s.rows), s.fallbacks, s.breakdown, s.error) for s in sweeps.values()] == [(30, [], None, None)] * 2
    assert len(seen) == 60
    for residual, bound, c in seen:
        assert residual <= bound <= 1e-10 * np.linalg.norm(c)


@needs_extended
def test_constraint_bound_covers_a_block_that_lost_orthogonality(monkeypatch):
    # Q^T Q c differs from c by 1e-12 |c| here, far above the rounding
    # terms: only the bound's m max|Q^T Q - I| |y| term covers it
    bounds = recording_constraint_bound(monkeypatch)
    Q = random_orthonormal(36, 5, seed=7)
    Q[:, 4] += 1e-12 * Q[:, 0]
    c = np.random.default_rng(8).standard_normal(5)
    answer = Difference2DSolver(Stacked2DDifferenceOperator(6), np.zeros(36)).solve(Q, coefficients(Q, c))
    residual = n_space_constraint_residual(Q, answer.x_L, c)
    assert 1e-13 * np.linalg.norm(c) <= residual <= bounds[0] <= 1e-10 * np.linalg.norm(c)


@needs_extended
def test_constraint_bound_covers_a_column_nearly_orthogonal_to_constants(monkeypatch):
    # q0 = e^T q is 2.5e-5 here, so t = c / q0 carries any error of the stored
    # q0 forty thousand times over; q0 is summed to within an ulp, so the
    # bound stays far below the acceptance level, where gamma_64 sum|q_k| / 8
    # for a plain sum would reach 2.2e-10 |c| and reject the answer
    bounds = recording_constraint_bound(monkeypatch)
    Q = random_orthonormal(64, 1, seed=354292167)
    c = np.random.default_rng(354292168).standard_normal(1)
    answer = Difference2DSolver(Stacked2DDifferenceOperator(8), np.zeros(64)).solve(Q, coefficients(Q, c))
    assert abs(Q.sum()) / 8 < 1e-4
    residual = n_space_constraint_residual(Q, answer.x_L, c)
    assert residual <= bounds[0] <= 1e-11 * np.linalg.norm(c)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sum_with_bound_covers_the_exact_sum(n, seed):
    # a unit vector, recentred so that its sum cancels to a few ulps of its
    # entries, against the exact rational sum
    v = np.random.default_rng(seed).standard_normal(n)
    v /= np.linalg.norm(v)
    v -= v.mean()
    sigma = 2.0 ** (np.ceil(np.log2(n + 2)) + 1)
    total, error = _sum_with_bound(v, sigma)
    exact = sum(Fraction(x) for x in v.tolist())
    assert abs(Fraction(total) - exact) <= Fraction(error)
    assert error <= 2.3e-16 * abs(total) + 1e-21


def test_hybrid_only_blur2d_sweep_forms_no_krylov_iterate(monkeypatch):
    reads = []
    form = KrylovIterate.__array__

    def counted(self, *args, **kwargs):
        reads.append(self)
        return form(self, *args, **kwargs)

    monkeypatch.setattr(KrylovIterate, "__array__", counted)
    problem = build_problem("blur2d", 16, 1e-2, 5, L_kind="first_diff_2d")
    sweeps = run_hybrid(problem, ("hyb_cgme", "hyb_tcgme"), max_outer_k=8)
    assert [(len(s.rows), s.fallbacks) for s in sweeps.values()] == [(8, []), (8, [])]
    assert reads == []
    # a plain row reads its x_k, and its hybrid then reads none
    run_hybrid(problem, ("cgme", "hyb_cgme"), max_outer_k=8)
    assert len(reads) == 8


class CountedBlock(np.ndarray):
    """An array whose non-empty matrix products are logged, with their shapes."""

    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(v) if isinstance(v, CountedBlock) else v for v in inputs]
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul and np.size(result) > 0:
            CountedBlock.products.append(tuple(np.shape(v) for v in plain))
        return result


def test_exact_solve_makes_one_n_by_k_product(monkeypatch):
    # once its columns are grown, a solve makes no pass, as x_L = W mu is
    # formed only when read
    view = _ColumnBlock.view
    monkeypatch.setattr(_ColumnBlock, "view", lambda self, count=None: view(self, count).view(CountedBlock))
    monkeypatch.setattr(CountedBlock, "products", [])
    L = Stacked2DDifferenceOperator(6)
    Q = random_orthonormal(36, 5, seed=3).view(CountedBlock)
    c = np.random.default_rng(4).standard_normal(5)
    solver = Difference2DSolver(L, np.zeros(36))
    solver.solve(Q, coefficients(Q, c))
    for m in (5, 3):
        CountedBlock.products.clear()
        answer = solver.solve(Q[:, :m], coefficients(Q[:, :m], c[:m]))
        assert CountedBlock.products == []
        answer.x_L
        assert CountedBlock.products == [((36, m), (m,))]


def error_bound(answer, denom):
    """The relative bound on the answer's k-space seminorm error that
    ``relative_error`` requires to be at most 1e-10, given ``|L x_true|``."""
    _, lx_sq, cross, slack, rho = answer.error_terms
    return (slack + rho * denom * denom) / (lx_sq - 2.0 * cross + denom * denom)


def recording_answers(monkeypatch):
    answers = []
    solve = Difference2DSolver.solve

    def recording(self, Q, x_k):
        answers.append(solve(self, Q, x_k))
        return answers[-1]

    monkeypatch.setattr(Difference2DSolver, "solve", recording)
    return answers


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_k_space_error_matches_n_space_on_every_blur2d_row(seed, monkeypatch):
    # the benchmark's blur2d sweep: every row's error is vouched for in k
    # space, and no row forms its x_L
    answers = recording_answers(monkeypatch)
    problem = build_problem("blur2d", 96, 1e-2, seed, L_kind="first_diff_2d")
    sweeps = run_hybrid(problem, ("hyb_cgme", "hyb_tcgme"), max_outer_k=30, inner_tol=1e-6)
    assert [(len(s.rows), s.fallbacks) for s in sweeps.values()] == [(30, [])] * 2
    assert len(answers) == 60
    assert [answer for answer in answers if "x_L" in vars(answer)] == []
    denom = float(np.linalg.norm(problem.L.apply(problem.x_true)))
    rows = [row for pair in zip(sweeps["hyb_cgme"].rows, sweeps["hyb_tcgme"].rows) for row in pair]
    for answer, row in zip(answers, rows):
        assert error_bound(answer, denom) <= 1e-10
        n_space = relative_error(problem.L, answer.x_L, problem.x_true, denom)
        assert abs(row.rel_error - n_space) <= 1e-10 * n_space


def extended_error(solver, L, Q, c, x_true):
    """The seminorm relative error of the exact ``x_L = W mu + t e``, from the
    solver's stored ``W`` and bordered matrix, in extended precision."""
    m = Q.shape[1]
    sol = np.linalg.solve(solver._K[: m + 1, : m + 1], np.append(0.0, c)).astype(np.longdouble)
    x_L = solver._W.view(m).astype(np.longdouble) @ sol[1:] + sol[0] / solver.side
    D, x_true = L.to_dense().astype(np.longdouble), x_true.astype(np.longdouble)
    return float(np.sqrt(np.sum((D @ (x_L - x_true)) ** 2) / np.sum((D @ x_true) ** 2)))


# Over 3000 random cases drawn as below the k-space error differed from the
# extended-precision one by at most 0.1 of its bound, which reached 1.4e-13.
@needs_extended
@settings(max_examples=40, deadline=None)
@given(
    side=st.integers(min_value=3, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_error_bound_covers_n_space_error_on_random_blocks(side, frac, seed):
    L = Stacked2DDifferenceOperator(side)
    n = side * side
    Q = random_orthonormal(n, 1 + int(frac * (n - 2)), seed)
    rng = np.random.default_rng(seed + 1)
    c, x_true = rng.standard_normal(Q.shape[1]), rng.standard_normal(n)
    solver = Difference2DSolver(L, x_true)
    answer = solver.solve(Q, coefficients(Q, c))
    denom = float(np.linalg.norm(L.apply(x_true)))
    k_space = relative_error(L, answer, x_true, denom)
    assert "x_L" not in vars(answer)
    bound = error_bound(answer, denom)
    assert abs(k_space - extended_error(solver, L, Q, c, x_true)) <= bound * k_space and bound <= 1e-10


@pytest.mark.parametrize("term", ["cross", "seminorm"])
def test_error_bound_covers_a_column_corrupted_below_the_rejection_threshold(term, monkeypatch):
    # column 1 of W is off along f, too little for the solve to be refused.
    # cross: f is random and x_true lies along L^T L f, so the error enters
    # <L x_L, L x_true>, which only the bound's |x_true| delta_j term covers;
    # seminorm: f is x_L's part off range(Q), less its mean, and x_true is
    # small, so the error enters |L x_L|^2, which only the bound's
    # |L^+| delta_j term covers
    L = Stacked2DDifferenceOperator(5)
    Q = random_orthonormal(25, 3, seed=1)
    c = np.random.default_rng(1).standard_normal(3)
    x_L = Difference2DSolver(L, np.zeros(25)).solve(Q, coefficients(Q, c)).x_L
    if term == "cross":
        g = L.apply_adjoint(L.apply(corrupt_column(monkeypatch, 1, Q, size=1e-10)))
        x_true = x_L + 10.0 * g / np.linalg.norm(g)
    else:
        f = x_L - Q @ (Q.T @ x_L)
        corrupt_column(monkeypatch, 1, Q, size=1e-11, error=(f - f.mean()) / np.linalg.norm(f - f.mean()))
        x_true = 1e-3 * np.random.default_rng(5).standard_normal(25)
    answer = Difference2DSolver(L, x_true).solve(Q, coefficients(Q, c))
    denom = float(np.linalg.norm(L.apply(x_true)))
    k_space = relative_error(L, answer, x_true, denom)
    n_space = relative_error(L, answer.x_L, x_true, denom)
    assert 1e-13 * n_space <= abs(k_space - n_space) <= error_bound(answer, denom) * k_space <= 1e-10 * k_space


def test_error_against_another_x_true_is_measured_in_n_space():
    # the k-space terms hold for the x_true array the link was built on; for
    # any other array, equal or not, the answer's x_L is measured
    L = Stacked2DDifferenceOperator(6)
    Q = random_orthonormal(36, 4, seed=2)
    rng = np.random.default_rng(3)
    c, x_true, other = rng.standard_normal(4), rng.standard_normal(36), rng.standard_normal(36)
    answer = Difference2DSolver(L, x_true).solve(Q, coefficients(Q, c))
    k_space = relative_error(L, answer, x_true)
    assert "x_L" not in vars(answer)
    n_space = relative_error(L, answer.x_L, x_true)
    assert abs(k_space - n_space) <= 1e-10 * n_space
    assert relative_error(L, answer, x_true.copy()) == n_space
    assert relative_error(L, answer, other) == relative_error(L, answer.x_L, other)


def test_error_of_a_row_next_to_x_true_is_measured_in_n_space():
    # 1e-9 from x_true the three k-space terms cancel to below their rounding,
    # so the bound cannot vouch for the difference and x_L is formed
    L = Stacked2DDifferenceOperator(6)
    Q = random_orthonormal(36, 4, seed=2)
    rng = np.random.default_rng(3)
    c, step = rng.standard_normal(4), rng.standard_normal(36)
    x_true = Difference2DSolver(L, np.zeros(36)).solve(Q, coefficients(Q, c)).x_L + 1e-9 * step / np.linalg.norm(step)
    answer = Difference2DSolver(L, x_true).solve(Q, coefficients(Q, c))
    denom = float(np.linalg.norm(L.apply(x_true)))
    assert error_bound(answer, denom) > 1e-10
    error = relative_error(L, answer, x_true, denom)
    assert "x_L" in vars(answer)
    assert error == relative_error(L, answer.x_L, x_true, denom) <= 1e-9
