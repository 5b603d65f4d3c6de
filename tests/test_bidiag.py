import re

import numpy as np
import pytest
from conftest import make_state, random_orthonormal

from krylreg.bidiag import GolubKahanBreakdown, _reorthogonalize, bidiag_extend, bidiag_init, bidiagonal
from krylreg.harness import _bidiag_recurrence_check, _krylov_state
from krylreg.operators import DenseOperator, IdentityOperator
from krylreg.problems import add_noise, build_problem, gen_shaw


def test_init_normalizes_first_column():
    A = DenseOperator(np.ones((2, 3)))
    state = bidiag_init(A, [3.0, 4.0])
    assert state.A is A  # every extension reads the operator it started from
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
    with pytest.raises(GolubKahanBreakdown, match="zero right-hand side") as excinfo:
        bidiag_init(A, np.zeros(3))
    exc = excinfo.value  # no coefficient fell below the threshold
    assert (exc.step, exc.coefficient, exc.value, exc.threshold) == (0, None, None, None)


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
        bidiag_extend(state, 2)
    assert excinfo.value.step == 1
    assert state.k == 1
    assert state.alphas[0] == pytest.approx(1.0)
    np.testing.assert_allclose(state.Q[:, 0], [1.0, 0.0])
    assert state.betas[1] == pytest.approx(0.0, abs=1e-15)


def test_extend_after_breakdown_refused():
    A = IdentityOperator(2)
    state = bidiag_init(A, np.array([1.0, 0.0]))
    with pytest.raises(GolubKahanBreakdown):
        bidiag_extend(state, 2)
    with pytest.raises(GolubKahanBreakdown, match="cannot extend"):
        bidiag_extend(state, 1)


@pytest.mark.parametrize("steps", [-3, 2.5, True, "2", None])
def test_extend_rejects_a_step_count_that_is_not_a_non_negative_integer(steps):
    A = DenseOperator(np.diag([1.0, 2.0, 3.0]))
    state = bidiag_init(A, [2.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="steps must be a non-negative integer"):
        bidiag_extend(state, steps)
    assert state.k == 0 and state.betas == [3.0]
    assert bidiag_extend(state, 0).k == 0  # zero steps change nothing
    assert bidiag_extend(state, np.int64(1)).k == 1


def test_first_alpha_on_diagonal_example():
    A = DenseOperator(np.diag([2.0, 1.0]))
    b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    state = bidiag_init(A, b)
    bidiag_extend(state, 1)
    # alpha_1 = |A^T p_1| for the normalized start vector
    assert state.alphas[0] == pytest.approx(np.sqrt(5.0 / 2.0), rel=1e-12)


def test_bidiagonal_blocks_of_all_three_shapes():
    # diagonal alpha_1..alpha_3, subdiagonal beta_2..beta_4 (beta_1 = 9 is |b|)
    state = make_state(alphas=[1.0, 2.0, 3.0], betas=[9.0, 4.0, 5.0, 6.0])
    full = np.array([[1.0, 0.0, 0.0], [4.0, 2.0, 0.0], [0.0, 5.0, 3.0], [0.0, 0.0, 6.0]])
    for k in (1, 2, 3):
        np.testing.assert_array_equal(bidiagonal(state, k, k), full[:k, :k])
        np.testing.assert_array_equal(bidiagonal(state, k + 1, k), full[: k + 1, :k])
    for k in (1, 2):
        np.testing.assert_array_equal(bidiagonal(state, k + 1, k + 1), full[: k + 1, : k + 1])


def test_bidiagonal_blocks_of_a_computed_state():
    A = DenseOperator(np.diag([3.0, 2.0, 1.0]))
    state = bidiag_init(A, np.array([1.0, 1.0, 1.0]))
    bidiag_extend(state, 2)
    a, be = state.alphas, state.betas
    np.testing.assert_array_equal(bidiagonal(state, 1, 1), [[a[0]]])
    np.testing.assert_array_equal(bidiagonal(state, 2, 1), [[a[0]], [be[1]]])
    np.testing.assert_array_equal(bidiagonal(state, 2, 2), [[a[0], 0.0], [be[1], a[1]]])
    # the (k+1) x k block at k = state.k reads beta_{k+1}, which step k computed
    np.testing.assert_array_equal(bidiagonal(state, 3, 2), [[a[0], 0.0], [be[1], a[1]], [0.0, be[2]]])
    with pytest.raises(ValueError, match="needs 3 bidiagonalization steps, have 2"):
        bidiagonal(state, 3, 3)  # step 3 not taken


@pytest.mark.parametrize("rows,cols", [(0, 0), (1, 0), (3, 1), (1, 2), (2, 3), (4, 2)])
def test_bidiagonal_refuses_k_zero_and_other_shapes(rows, cols):
    state = make_state(alphas=[1.0, 2.0, 3.0], betas=[9.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match=r"k x k or \(k\+1\) x k block with k >= 1"):
        bidiagonal(state, rows, cols)


def test_projection_identity_on_random_dense(rng):
    A = DenseOperator(rng.standard_normal((50, 40)))
    state = bidiag_init(A, rng.standard_normal(50))
    bidiag_extend(state, 10)
    projected = state.P_cols(10).T @ A.entries @ state.Q_cols(10)
    assert np.abs(projected - bidiagonal(state, 10, 10)).max() <= 1e-10


def test_recurrences_and_orthogonality_on_shaw():
    A, x_true, b_true = gen_shaw(64)
    state = _krylov_state(A, add_noise(b_true, 1e-2, 42), 20)
    assert state.k >= 15
    check = _bidiag_recurrence_check(state)
    assert check.passed, check.detail


def test_positive_coefficients_until_breakdown():
    A, x_true, b_true = gen_shaw(64)
    state = _krylov_state(A, b_true, 25)
    assert np.all(np.asarray(state.alphas) > 0)
    assert np.all(np.asarray(state.betas[: state.k + 1]) > 0)


def test_singular_value_interlacing(rng):
    A = DenseOperator(rng.standard_normal((30, 24)))
    state = bidiag_init(A, rng.standard_normal(30))
    bidiag_extend(state, 8)
    svals_A = np.linalg.svd(A.entries, compute_uv=False)
    theta = np.linalg.svd(bidiagonal(state, 9, 8), compute_uv=False)
    assert np.all(theta <= svals_A[0] * (1 + 1e-12))
    assert np.all(theta >= svals_A[-1] * (1 - 1e-12))


def test_deterministic_coefficients():
    A, x_true, b_true = gen_shaw(64)
    b = add_noise(b_true, 1e-1, 5)
    runs = []
    for _ in range(2):
        state = bidiag_init(A, b)
        bidiag_extend(state, 12)
        runs.append((state.alphas.copy(), state.betas.copy()))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


def test_column_reads_past_the_stored_count_are_rejected():
    A, x_true, b_true = gen_shaw(64)
    state = bidiag_init(A, add_noise(b_true, 1e-2, 8))
    bidiag_extend(state, 3)
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
        bidiag_extend(state, 1)
        q_cols.append(state.Q[:, -1].copy())
        p_cols.append(state.P[:, -1].copy())
    for k in range(1, 41):
        Q, P = state.Q_cols(k), state.P_cols(k + 1)
        assert Q.flags.f_contiguous and P.flags.f_contiguous, k
        np.testing.assert_array_equal(Q, np.column_stack(q_cols[:k]))
        np.testing.assert_array_equal(P, np.column_stack(p_cols[: k + 1]))


def test_negative_column_counts_are_rejected():
    # the buffers hold 32 columns, and a negative count would slice into
    # their uninitialized tail
    A, x_true, b_true = gen_shaw(64)
    state = bidiag_init(A, add_noise(b_true, 1e-2, 8))
    bidiag_extend(state, 5)
    with pytest.raises(ValueError, match="non-negative, got -1"):
        state.Q_cols(-1)
    with pytest.raises(ValueError, match="non-negative, got -2"):
        state.P_cols(-2)
    assert state.Q_cols(0).shape == (64, 0)


def _signature(exc: GolubKahanBreakdown) -> str:
    # float-stripped, as the benchmark's reference answers store it
    return re.sub(r"[-+]?\d+\.\d+e[-+]\d+", "<x>", str(exc))


def test_breakdown_message_format():
    # beta side: A = I and b = e_1 make beta_2 vanish at step 1
    state = bidiag_init(IdentityOperator(2), np.array([1.0, 0.0]))
    with pytest.raises(GolubKahanBreakdown) as beta_side:
        bidiag_extend(state, 2)
    assert str(beta_side.value) == "beta_2 = 0.000e+00 below breakdown threshold 1.414e-14 at step 1"
    exc = beta_side.value
    assert (exc.step, exc.coefficient, exc.value, exc.threshold) == (1, "beta", 0.0, 1e-14 * np.sqrt(2.0))
    # alpha side: A = e_1 e_1^T and b = (1, 1) make alpha_2 vanish at step 2
    A = DenseOperator(np.diag([1.0, 0.0]))
    state = bidiag_init(A, np.array([1.0, 1.0]))
    with pytest.raises(GolubKahanBreakdown) as alpha_side:
        bidiag_extend(state, 3)
    assert (alpha_side.value.step, alpha_side.value.coefficient) == (2, "alpha")
    assert alpha_side.value.value <= alpha_side.value.threshold
    assert _signature(alpha_side.value) == "alpha_2 = <x> below breakdown threshold <x> at step 2"
    assert _signature(GolubKahanBreakdown.at_coefficient(21, "beta", 9.1e-17, 3.7e-14)) == (
        "beta_22 = <x> below breakdown threshold <x> at step 21")


def test_one_pass_when_the_first_keeps_the_norm():
    Q = random_orthonormal(1000, 50, seed=0)
    r = np.random.default_rng(100).standard_normal(1000)
    out, norm = _reorthogonalize(r.copy(), Q)
    assert np.array_equal(out, r - Q @ (Q.T @ r))
    assert norm == np.linalg.norm(out)


@pytest.mark.parametrize("delta", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_second_pass_orthogonalizes_a_nearly_dependent_vector(delta, seed):
    # r lies in range(Q) up to delta: the first pass cancels nearly all of
    # it and leaves |Q^T r_1| / |r_1| at 8e-9 to 1.5e-4 (grows as delta
    # falls); the second brings it to at most 1.5e-16 (measured over these
    # cases and seeds 3, 4)
    Q = random_orthonormal(1000, 50, seed)
    rng = np.random.default_rng(seed + 100)
    r = Q @ rng.standard_normal(50) + delta * rng.standard_normal(1000)
    out, norm = _reorthogonalize(r.copy(), Q)
    assert np.linalg.norm(Q.T @ out) / np.linalg.norm(out) <= 1e-15
    assert norm == np.linalg.norm(out)


def _two_pass(r, block):
    # the unconditional two-pass classical Gram-Schmidt of earlier versions
    for _ in range(2):
        r = r - block @ (block.T @ r)
    return r, float(np.linalg.norm(r))


def _breakdown(problem):
    state = bidiag_init(problem.A, problem.b)
    with pytest.raises(GolubKahanBreakdown) as excinfo:
        bidiag_extend(state, 100)
    return excinfo.value.step, excinfo.value.coefficient


@pytest.mark.parametrize("eps", [1e-1, 5e-2, 1e-2])
@pytest.mark.parametrize("name", ["shaw", "baart"])
def test_breakdowns_match_two_pass_reorthogonalization(name, eps, monkeypatch):
    # the desk problems that break down, at the desk noise levels: a second
    # pass taken only on cancellation moves no breakdown (shaw beta at
    # step 21, baart alpha at step 11)
    problem = build_problem(name, 1000, eps, 20240101)
    found = _breakdown(problem)
    monkeypatch.setattr("krylreg.bidiag._reorthogonalize", _two_pass)
    assert found == _breakdown(problem)
