import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylreg.bidiag import bidiag_extend, bidiag_init
from krylreg.harness import _condition_monotonicity_check, _gap_ordering_check, _krylov_state
from krylreg.metrics import Truth, analyze_curve, gamma_gaps, projected_condition, relative_error
from krylreg.operators import DenseOperator, FirstDifferenceOperator, IdentityOperator
from krylreg.problems import add_noise, gen_shaw

from conftest import random_orthonormal


def test_relative_error_zero_at_truth():
    L = FirstDifferenceOperator(5)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert relative_error(x, Truth(L, x)) == 0.0


def test_relative_error_doubling_identity():
    L = IdentityOperator(4)
    x_true = np.array([1.0, -2.0, 0.5, 3.0])
    assert relative_error(2 * x_true, Truth(L, x_true)) == pytest.approx(1.0)


def test_relative_error_undefined_for_null_truth():
    L = FirstDifferenceOperator(4)
    with pytest.raises(ValueError):
        relative_error(np.arange(4.0), Truth(L, np.ones(4)))


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10**6))
def test_relative_error_invariant_under_regularizer_scaling(scale, seed):
    rng = np.random.default_rng(seed)
    L1 = DenseOperator(rng.standard_normal((6, 5)))
    L2 = DenseOperator(scale * L1.entries)
    x = rng.standard_normal(5)
    x_true = rng.standard_normal(5)
    a = relative_error(x, Truth(L1, x_true))
    b = relative_error(x, Truth(L2, x_true))
    assert a == pytest.approx(b, rel=1e-10)


def shaw_state(n=64, steps=17, seed=42):
    A, x_true, b_true = gen_shaw(n)
    b = add_noise(b_true, 1e-2, seed)
    return A, _krylov_state(A, b, steps)


def test_gamma_gaps_near_zero_at_numerical_rank():
    # Effective rank 3; b in the numerical range so the factorization is
    # exact at k=3 and truncation removes only delta-scale mass.
    delta = 1e-12
    A = DenseOperator(np.diag([3.0, 2.0, 1.0, delta, 0.9 * delta, 0.8 * delta]))
    state = bidiag_init(A, A.apply(np.ones(6)))
    bidiag_extend(state, 4)
    report = gamma_gaps(state, 3)
    assert report.gamma_cgme <= 1e-10
    assert report.gamma_tcgme <= 1e-10
    assert report.gamma_lsqr <= 1e-10
    # the (k+1) x k block carries the three dominant singular values
    assert report.theta_min == pytest.approx(1.0, rel=1e-6)


def test_gamma_gap_orderings_on_shaw():
    A, state = shaw_state()
    check = _gap_ordering_check(state, 15, "shaw(64)")
    assert check.passed, check.detail


def test_gamma_gaps_requires_extra_step():
    A, state = shaw_state(steps=5)
    with pytest.raises(ValueError):
        gamma_gaps(state, 5)


def test_gamma_gaps_size_guard():
    rng = np.random.default_rng(8)
    A = DenseOperator(rng.standard_normal((1001, 1001)))
    state = bidiag_init(A, rng.standard_normal(1001))
    bidiag_extend(state, 2)
    with pytest.raises(ValueError, match="oracle"):
        gamma_gaps(state, 1)


def test_projected_condition_identity_regularizer():
    L = DenseOperator(np.eye(30))
    Q = random_orthonormal(30, 7, seed=1)
    assert projected_condition(L, Q) == pytest.approx(1.0, rel=1e-10)


def test_projected_condition_single_remaining_column():
    n = 20
    L = DenseOperator(np.random.default_rng(2).standard_normal((n, n)))
    Q = random_orthonormal(n, n - 1, seed=3)
    assert projected_condition(L, Q) == pytest.approx(1.0, rel=1e-10)


def test_projected_condition_monotone_in_k():
    rng = np.random.default_rng(5)
    n = 50
    A = DenseOperator(rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    state = bidiag_init(A, b)
    bidiag_extend(state, n - 1)
    L = np.zeros((n - 1, n))
    L[np.arange(n - 1), np.arange(n - 1)] = 1.0
    L[np.arange(n - 1), np.arange(1, n)] = -1.0
    check = _condition_monotonicity_check(state, DenseOperator(L), "random(50)")
    assert check.passed, check.detail


def test_projected_condition_hypothesis_guard():
    L = DenseOperator(np.ones((3, 10)))  # p = 3 < n - k = 8
    Q = random_orthonormal(10, 2, seed=0)
    with pytest.raises(ValueError):
        projected_condition(L, Q)


def test_projected_condition_infinite_signal():
    # L kills e2, which lies in the complement of Q = e1.
    L = np.eye(5)
    L[1, 1] = 0.0
    Q = np.eye(5)[:, :1]
    assert projected_condition(DenseOperator(L), Q) == np.inf


def test_analyze_curve_monotone_tail():
    curve = analyze_curve([0.9, 0.5, 0.3, 0.2])
    assert curve.best_k == 4
    assert not curve.interior_minimum


def test_analyze_curve_interior_minimum():
    curve = analyze_curve([0.9, 0.3, 0.5])
    assert curve.best_k == 2
    assert curve.best_error == pytest.approx(0.3)
    assert curve.interior_minimum


def test_analyze_curve_tie_breaks_to_smallest_k():
    curve = analyze_curve([0.5, 0.2, 0.2, 0.4])
    assert curve.best_k == 2


def test_analyze_curve_custom_ks_and_validation():
    with pytest.raises(ValueError):
        analyze_curve([])


def test_analyze_curve_rejects_nonfinite_errors():
    # argmin would pick the first NaN and report it as the best error
    for errors in ([0.5, np.nan, 0.2], [np.inf], [0.3, -np.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            analyze_curve(errors)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
def test_analyze_curve_properties(errors):
    curve = analyze_curve(errors)
    assert curve.best_error == min(errors)
    assert curve.best_k == errors.index(min(errors)) + 1
    assert curve.interior_minimum == (0 < errors.index(min(errors)) < len(errors) - 1)
