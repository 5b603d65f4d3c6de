import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krylreg.lsqr import _orthonormal_block, lsqr_solve
from krylreg.operators import (
    DenseOperator,
    DimensionMismatch,
    FirstDifferenceOperator,
    IdentityOperator,
    KroneckerBlurOperator,
    LinearOperator,
    LowerToeplitzOperator,
    OrthonormalityError,
    Stacked2DDifferenceOperator,
    SymmetricSemiseparableOperator,
    check_orthonormal,
)
from krylreg.problems import gen_baart, make_L

from conftest import random_orthonormal


def test_shape_validation():
    for empty in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="at least 1x1"):
            DenseOperator(np.zeros(empty))
    # a shape that is not an integer, or is a bool, is no shape either
    for build in (lambda: IdentityOperator(0), lambda: IdentityOperator(True),
                  lambda: FirstDifferenceOperator(2.5), lambda: Stacked2DDifferenceOperator(2.5),
                  lambda: make_L("first_diff_1d", 4.0)):
        with pytest.raises(ValueError, match="at least 1x1"):
            build()
    A = DenseOperator(np.zeros((4, 3)))
    assert (A.rows, A.cols) == (4, 3)
    with pytest.raises(AttributeError):
        A.rows = 5


def test_first_difference_apply_examples():
    L = FirstDifferenceOperator(3)
    np.testing.assert_allclose(L.apply([1.0, 1.0, 1.0]), [0.0, 0.0])
    np.testing.assert_allclose(L.apply([3.0, 2.0, 0.0]), [1.0, 2.0])


def test_first_difference_adjoint_example():
    L = FirstDifferenceOperator(3)
    np.testing.assert_allclose(L.apply_adjoint([1.0, 0.0]), [1.0, -1.0, 0.0])


def test_dense_adjoint_example():
    A = DenseOperator([[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_allclose(A.apply_adjoint([1.0, 1.0]), [2.0, 3.0])


def test_projected_operator_example():
    # the projected operator L (I - QQ^T) is LSQR's Q path
    x = lsqr_solve(IdentityOperator(2), [1.0, 1.0], Q=np.array([[1.0], [0.0]])).solution
    np.testing.assert_allclose(x, [0.0, 1.0])


def test_dimension_mismatch():
    A = DenseOperator(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        A.apply([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        A.apply_adjoint([1.0, 2.0])


def test_dense_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseOperator([[1.0, np.nan]])


def test_dense_entries_are_read_only():
    source = np.diag([2.0, 3.0])
    public = DenseOperator(source)
    source[0, 0] = 5.0  # the constructor copied its input, which stays writable
    assert public.entries[0, 0] == 2.0
    built, *_ = gen_baart(16)  # the adopt path
    for A in (public, built):
        before = A.entries.copy()
        with pytest.raises(ValueError, match="read-only"):
            A.entries[0, 0] = 1.0
        dense = A.to_dense()
        dense[0, 0] = 1.0  # a writable copy
        np.testing.assert_array_equal(A.entries, before)


def test_dense_adopt_runs_the_constructor_checks():
    with pytest.raises(ValueError, match="2-D"):
        DenseOperator._adopt(np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        DenseOperator._adopt(np.array([[1.0, np.inf]]))
    mat = np.ones((2, 3))
    A = DenseOperator._adopt(mat)
    assert A.entries is mat and (A.rows, A.cols) == (2, 3)


def test_kronecker_blur_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        KroneckerBlurOperator([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        KroneckerBlurOperator([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        KroneckerBlurOperator(np.ones((2, 3)))


def test_structured_operators_reject_bad_generators():
    for bad, message in (([1.0, np.nan], "finite 1-D"), ([np.inf], "finite 1-D"),
                         ([[1.0, 2.0]], "finite 1-D"), ([], "at least 1x1")):
        with pytest.raises(ValueError, match=message):
            LowerToeplitzOperator(bad)
        with pytest.raises(ValueError, match=message):
            SymmetricSemiseparableOperator(bad, bad)
    with pytest.raises(ValueError, match="equal lengths"):
        SymmetricSemiseparableOperator([1.0, 2.0], [1.0])


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_structured_operators_densify_to_their_formulas(n):
    rng = np.random.default_rng(n)
    p, q, kernel = rng.standard_normal((3, n))
    i, j = np.indices((n, n))
    semi = SymmetricSemiseparableOperator(p, q)
    toeplitz = LowerToeplitzOperator(kernel)
    for op, dense in ((semi, p[np.minimum(i, j)] * q[np.maximum(i, j)]),
                      (toeplitz, np.where(i >= j, kernel[np.abs(i - j)], 0.0))):
        np.testing.assert_allclose(op.to_dense(), dense, rtol=0, atol=1e-14 * np.abs(dense).max())
        assert op.frobenius_norm() == pytest.approx(np.linalg.norm(dense), rel=1e-14)


def test_orthonormality_check_reads_columns_from_first_on():
    Q = random_orthonormal(20, 4, seed=5)
    Q[:, 1] *= 1.1  # an old column off unit length, still orthogonal to the rest
    check_orthonormal(Q, first=2)
    with pytest.raises(OrthonormalityError, match="max \\|Q'Q - I\\| = 2.100e-01"):
        check_orthonormal(Q)
    Q[:, 3] += 1e-6 * Q[:, 0]  # a new column bent toward an old one
    with pytest.raises(OrthonormalityError):
        check_orthonormal(Q, first=3)
    check_orthonormal(Q[:, :3], first=3)  # no new columns


def _operators_for_adjoint_check(seed):
    rng = np.random.default_rng(seed)
    ops = [
        DenseOperator(rng.standard_normal((7, 5))),
        FirstDifferenceOperator(9),
        Stacked2DDifferenceOperator(5),
        IdentityOperator(6),
        KroneckerBlurOperator(rng.standard_normal((4, 4))),
        SymmetricSemiseparableOperator(rng.standard_normal(8), rng.standard_normal(8)),
        LowerToeplitzOperator(rng.standard_normal(11)),
    ]
    return ops


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_adjoint_consistency(seed):
    rng = np.random.default_rng(seed)
    for op in _operators_for_adjoint_check(seed):
        v = rng.standard_normal(op.cols)
        u = rng.standard_normal(op.rows)
        lhs = op.apply(v) @ u
        rhs = v @ op.apply_adjoint(u)
        scale = np.linalg.norm(op.to_dense(), "fro") * np.linalg.norm(v) * np.linalg.norm(u)
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


def test_random_dense_adjoint_identity_tight(rng):
    A = DenseOperator(rng.standard_normal((7, 5)))
    for _ in range(50):
        v = rng.standard_normal(5)
        u = rng.standard_normal(7)
        av = A.apply(v)
        assert abs(av @ u - v @ A.apply_adjoint(u)) <= 1e-12 * np.linalg.norm(av) * np.linalg.norm(u) + 1e-15


def _project_complement(Q, v):
    # at L = I the minimum-norm solve over null(Q^T) is v - Q (Q^T v)
    return lsqr_solve(IdentityOperator(Q.shape[0]), v, Q=Q).solution


def test_project_complement_examples():
    e1 = np.eye(3)[:, :1]
    np.testing.assert_allclose(_project_complement(e1, [5.0, 1.0, 2.0]), [0.0, 1.0, 2.0])
    full = np.eye(3)
    assert np.linalg.norm(_project_complement(full, [0.3, -2.0, 4.0])) <= 1e-10


def test_project_complement_random_block():
    Q = random_orthonormal(50, 10, seed=3)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(50)
    res = _project_complement(Q, v)
    assert np.linalg.norm(Q.T @ res) <= 1e-10 * np.linalg.norm(v)


def test_projected_operator_requires_orthonormal_columns():
    L = IdentityOperator(4)
    bad = np.ones((4, 2))
    with pytest.raises(OrthonormalityError):
        lsqr_solve(L, np.ones(4), Q=bad)


def _first_difference_dense(n):
    D = np.zeros((n - 1, n))
    D[np.arange(n - 1), np.arange(n - 1)] = 1.0
    D[np.arange(n - 1), np.arange(1, n)] = -1.0
    return D


@pytest.mark.parametrize("n", [2, 3, 1000])
def test_first_difference_adjoint_is_the_dense_transpose(n):
    L = FirstDifferenceOperator(n)
    D = _first_difference_dense(n)
    u = np.random.default_rng(n).standard_normal(n - 1)
    np.testing.assert_array_equal(L.apply_adjoint(u), D.T @ u)
    if n <= 3:
        np.testing.assert_array_equal(L.to_dense(), D)


@pytest.mark.parametrize("n", [2, 3, 1000])
def test_first_difference_fused_updates_match_apply_and_adjoint(n):
    L = FirstDifferenceOperator(n)
    rng = np.random.default_rng(n)
    v, w = rng.standard_normal(n), rng.standard_normal(n)
    u, c = rng.standard_normal(n - 1), 0.7
    expected = L.apply(v) - c * u
    L._apply_sub(v, c, u)
    assert np.linalg.norm(u - expected) <= 1e-15 * np.linalg.norm(expected)
    expected = L.apply_adjoint(u) - c * w
    out = np.empty(n)
    L._adjoint_sub(u, c, w, out)
    assert np.linalg.norm(out - expected) <= 1e-15 * np.linalg.norm(expected)


def test_default_fused_updates_are_the_unfused_expressions(rng):
    A = DenseOperator(rng.standard_normal((7, 5)))
    v, w = rng.standard_normal(5), rng.standard_normal(5)
    u, c = rng.standard_normal(7), -1.3
    scaled = u * c
    expected = np.subtract(A.entries @ v, scaled, out=scaled)
    A._apply_sub(v, c, u)
    np.testing.assert_array_equal(u, expected)
    scaled = w * c
    expected = np.subtract(A.entries.T @ u, scaled, out=scaled)
    out = np.empty(5)
    A._adjoint_sub(u, c, w, out)
    np.testing.assert_array_equal(out, expected)


def _layouts(n, k, seed):
    """One orthonormal block as C- and F-ordered arrays and as a strided
    view, every other column of a wider buffer."""
    Q = random_orthonormal(n, k, seed)
    wide = np.zeros((n, 2 * k))
    wide[:, ::2] = Q
    strided = wide[:, ::2]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    return {
        "C": np.ascontiguousarray(Q),
        "F": np.asfortranarray(Q),
        "strided": strided,
    }


# LSQR at tol=1e-12 against the dense pseudo-inverse; the worst case
# measured over the examples below is 6.7e-12 relative.
PINV_RTOL = 1e-10


@pytest.mark.parametrize("n,k,seed", [(40, 5, 0), (200, 17, 1), (63, 1, 2)])
def test_projected_operator_matches_dense(n, k, seed):
    # LSQR reads every layout of Q as one F-ordered block (an F-contiguous
    # block in place, any other as a copy), so all three give the same bits
    rng = np.random.default_rng(seed)
    layouts = _layouts(n, k, seed)
    for L in (DenseOperator(rng.standard_normal((n - 1, n))), FirstDifferenceOperator(n)):
        d = rng.standard_normal(n - 1)
        solutions = {}
        for name, Q in layouts.items():
            dense = L.to_dense() @ (np.eye(n) - Q @ Q.T)
            oracle = np.linalg.pinv(dense) @ d
            z = lsqr_solve(L, d, tol=1e-12, max_iters=4 * n, Q=Q).solution
            assert np.linalg.norm(z - oracle) <= PINV_RTOL * np.linalg.norm(oracle), name
            solutions[name] = z
        np.testing.assert_array_equal(solutions["C"], solutions["F"])
        np.testing.assert_array_equal(solutions["strided"], solutions["F"])


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_projected_solve_leaves_the_callers_block_and_rhs_untouched(layout):
    n, k = 60, 4
    Q = _layouts(n, k, 5)[layout]
    Q_before = Q.copy()
    d = np.random.default_rng(6).standard_normal(n - 1)
    d_before = d.copy()
    lsqr_solve(FirstDifferenceOperator(n), d, tol=1e-10, Q=Q)
    np.testing.assert_array_equal(Q, Q_before)
    np.testing.assert_array_equal(d, d_before)
    # the loop reads an F-contiguous block in place and a copy of any other
    assert np.shares_memory(_orthonormal_block(Q, n), Q) == (layout == "F")


@pytest.mark.parametrize("N", [2, 5, 16])
def test_stacked_2d_difference_matches_kronecker(N):
    op = Stacked2DDifferenceOperator(N)
    D = _first_difference_dense(N)
    dense = np.vstack([np.kron(np.eye(N), D), np.kron(D, np.eye(N))])
    assert op.rows == 2 * N * (N - 1)
    np.testing.assert_allclose(op.to_dense(), dense, atol=1e-12)
    u = np.random.default_rng(N).standard_normal(op.rows)
    np.testing.assert_allclose(op.apply_adjoint(u), dense.T @ u, atol=1e-12)


def test_kronecker_blur_matches_dense_kron(rng):
    # a non-symmetric factor, so that a transpose on the wrong side fails
    F = rng.standard_normal((6, 6))
    assert np.abs(F - F.T).max() > 0.1
    op = KroneckerBlurOperator(F)
    dense = np.kron(F, F)  # column-major vec convention
    v = rng.standard_normal(36)
    np.testing.assert_allclose(op.apply(v), dense @ v, atol=1e-12)
    u = rng.standard_normal(36)
    np.testing.assert_allclose(op.apply_adjoint(u), dense.T @ u, atol=1e-12)
    # bit-equal to the product of the two factors' norms, which sets the
    # Golub-Kahan breakdown threshold
    assert op.frobenius_norm() == float(np.linalg.norm(F, "fro") * np.linalg.norm(F, "fro"))


def test_frobenius_norms_exact_paths(rng):
    A = rng.standard_normal((9, 7))
    assert DenseOperator(A).frobenius_norm() == pytest.approx(np.linalg.norm(A, "fro"))
    assert FirstDifferenceOperator(10).frobenius_norm() == pytest.approx(np.sqrt(18.0))
    assert Stacked2DDifferenceOperator(4).frobenius_norm() == pytest.approx(np.sqrt(48.0))


def test_operator_without_exact_frobenius_norm_raises():
    class Opaque(LinearOperator):
        def __init__(self):
            super().__init__(3, 3)

        def _apply(self, v):
            return 2.0 * v

    with pytest.raises(NotImplementedError):
        Opaque().frobenius_norm()
