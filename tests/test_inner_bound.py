"""The exact 2-D inner solve vouches for each new Krylov column once, with the
residual of one ``L^T L`` product, and for each answer with a k-space bound on
its backward error.  These tests hold the bound against the n-space formula it
replaced, and show that a wrong column is still rejected."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal
from krylreg.bidiag import bidiag_extend, bidiag_init
from krylreg.hybrid import hyb_tcgme_step, run_hybrid
from krylreg.inner import Difference2DSolver, DirectSolveRejected
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
    answer = Difference2DSolver(L).solve(Q, x_k)
    oracle = n_space_backward_error(L, Q, x_k, answer.x_L)
    assert_bound_covers_oracle(L, answer.x_L, answer.inner_backward_error, oracle)


def test_bound_covers_n_space_backward_error_on_every_blur2d_step(monkeypatch):
    seen = []
    solve = Difference2DSolver.solve

    def recording(self, Q, x_k):
        answer = solve(self, Q, x_k)
        seen.append((answer.x_L, answer.inner_backward_error, n_space_backward_error(self.L, Q, x_k, answer.x_L)))
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
    solver = Difference2DSolver(L)
    Q = random_orthonormal(36, 5, seed=3)
    x_k = np.random.default_rng(4).standard_normal(36)
    for m, grown in ((3, 3), (3, 0), (2, 0), (5, 2)):
        calls.clear()
        solver.solve(Q[:, :m], x_k)
        assert calls == ["apply", "apply_adjoint"] * grown


def corrupt_column(monkeypatch, j, Q):
    """Every ``Difference2DSolver``'s ``_gram`` is off by ``1e-3 |w|`` on
    column ``j`` (counted from 0) of its block, and exact elsewhere.  The
    error is orthogonal to ``range(Q)``, so ``S = Q^T W`` and the answer's
    constraint still hold: the answer is feasible but not the minimizer, and
    only the backward-error bound, through the column's residual, can
    refuse it."""
    r = np.random.default_rng(0).standard_normal(Q.shape[0])
    error = r - Q @ (Q.T @ r)
    error /= np.linalg.norm(error)
    gram = Difference2DSolver._gram

    def corrupted(self, v):
        w = gram(self, v)
        return w + 1e-3 * np.linalg.norm(w) * error if self._W.count == j else w

    monkeypatch.setattr(Difference2DSolver, "_gram", corrupted)


@pytest.mark.parametrize("j", [1, 3])
def test_corrupt_column_rejected_by_every_solve_that_reads_it(j, monkeypatch):
    L = Stacked2DDifferenceOperator(5)
    Q = random_orthonormal(25, 6, seed=1)
    corrupt_column(monkeypatch, j, Q)
    x_k = np.random.default_rng(1).standard_normal(25)
    solver = Difference2DSolver(L)
    for m in range(1, 7):
        if m <= j:
            assert solver.solve(Q[:, :m], x_k).inner_backward_error <= 1e-10
        else:
            with pytest.raises(DirectSolveRejected, match="backward error"):
                solver.solve(Q[:, :m], x_k)


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
