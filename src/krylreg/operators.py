"""Matrix-free linear operators.

Every solver in this package works against the :class:`LinearOperator`
interface: an ``m x n`` real map exposing ``apply`` (the action of the
matrix) and ``apply_adjoint`` (the action of its transpose).  Concrete
operators either wrap a dense array or implement their action directly so
that large structured matrices (semiseparable and Toeplitz kernels, 2-D
difference stacks, Kronecker blurs) are never materialized.

All vectors are 1-D float64 numpy arrays.  Operators are immutable after
construction (``DenseOperator.entries`` is read-only) and safe to share
across threads; ``apply``/``apply_adjoint`` allocate their own buffers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatch",
    "OrthonormalityError",
    "LinearOperator",
    "DenseOperator",
    "SymmetricSemiseparableOperator",
    "LowerToeplitzOperator",
    "IdentityOperator",
    "FirstDifferenceOperator",
    "Stacked2DDifferenceOperator",
    "KroneckerBlurOperator",
]

# Orthonormality slack accepted for projector blocks.
ORTHONORMALITY_TOL = 1e-10
# Most entries a dense test oracle materializes.
MAX_DENSE_ENTRIES = 10**6


class DimensionMismatch(ValueError):
    """A vector length does not match the operator dimension it feeds."""


class OrthonormalityError(ValueError):
    """A column block required to be orthonormal is not (beyond tolerance)."""


def check_orthonormal(Q: np.ndarray, first: int = 0) -> float:
    """Raise :class:`OrthonormalityError` unless columns ``first:`` of ``Q``
    are orthonormal to all of ``Q`` within ``ORTHONORMALITY_TOL``, using
    one product ``Q^T Q[:, first:]``; return the largest ``|Q^T Q - I|``
    entry it saw."""
    gram = Q.T @ Q[:, first:]
    new = np.arange(gram.shape[1])
    gram[first + new, new] -= 1.0
    gram_err = np.abs(gram).max(initial=0.0)
    if gram_err > ORTHONORMALITY_TOL:
        raise OrthonormalityError(f"columns are not orthonormal: max |Q'Q - I| = {gram_err:.3e}")
    return float(gram_err)


def _as_vector(v, length: int, what: str) -> np.ndarray:
    vec = np.asarray(v, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != length:
        raise DimensionMismatch(f"{what} must be a vector of length {length}, got shape {vec.shape}")
    return vec


def _finite_array(values, what: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be a finite {ndim}-D array")
    arr.flags.writeable = False
    return arr


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


class LinearOperator:
    """Abstract ``m x n`` real linear map.

    Subclasses call ``LinearOperator.__init__(rows, cols)``, which rejects
    a shape that is not two integers of at least ``1 x 1``, and implement
    ``_apply``/``_adjoint`` on validated float64 vectors, and
    ``frobenius_norm`` exactly.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if not (_is_int(rows) and _is_int(cols)) or rows < 1 or cols < 1:
            raise ValueError(f"operator shape must be integers at least 1x1, got {rows!r}x{cols!r}")
        self._rows, self._cols = rows, cols

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    def apply(self, v) -> np.ndarray:
        """Return ``A @ v`` for a length-``cols`` vector ``v``."""
        return self._apply(_as_vector(v, self.cols, "apply input"))

    def apply_adjoint(self, u) -> np.ndarray:
        """Return ``A.T @ u`` for a length-``rows`` vector ``u``."""
        return self._adjoint(_as_vector(u, self.rows, "adjoint input"))

    def _apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # LSQR's two updates; a subclass may fuse them into fewer passes.
    def _apply_sub(self, v: np.ndarray, c: float, u: np.ndarray) -> None:
        """``u <- A v - c u``, in place."""
        u *= c
        np.subtract(self._apply(v), u, out=u)

    def _adjoint_sub(self, u: np.ndarray, c: float, v: np.ndarray, out: np.ndarray) -> None:
        """``out <- A^T u - c v``."""
        np.multiply(v, c, out=out)
        np.subtract(self._adjoint(u), out, out=out)

    def frobenius_norm(self) -> float:
        """Exact Frobenius norm ``|A|_F``."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialize the operator column by column (test oracles only)."""
        if self.rows * self.cols > MAX_DENSE_ENTRIES:
            raise ValueError(f"refusing to densify a {self.rows}x{self.cols} operator")
        out = np.empty((self.rows, self.cols))
        e = np.zeros(self.cols)
        for j in range(self.cols):
            e[j] = 1.0
            out[:, j] = self._apply(e)
            e[j] = 0.0
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols})"


class DenseOperator(LinearOperator):
    """Operator backed by an explicit row-major array, held read-only."""

    def __init__(self, entries) -> None:
        # private copy: operators are immutable after construction
        self._own(np.array(entries, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _adopt(cls, mat: np.ndarray) -> "DenseOperator":
        """The operator on ``mat`` itself, uncopied: for the problem
        generators, which hand over the array they built."""
        op = cls.__new__(cls)
        op._own(mat)
        return op

    def _own(self, mat: np.ndarray) -> None:
        if mat.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        if not np.all(np.isfinite(mat)):
            raise ValueError("entries must be finite")
        mat.flags.writeable = False
        self.entries = mat
        super().__init__(*mat.shape)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.entries @ v

    def _adjoint(self, u: np.ndarray) -> np.ndarray:
        return self.entries.T @ u

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries, "fro"))

    def to_dense(self) -> np.ndarray:
        return self.entries.copy()


class SymmetricSemiseparableOperator(LinearOperator):
    """Symmetric ``n x n`` matrix ``A_ij = p_min(i,j) q_max(i,j)`` from two
    generator vectors, applied in O(n) by a prefix and a suffix sum:
    ``(A v)_i = q_i sum_{j<=i} p_j v_j + p_i sum_{j>i} q_j v_j``."""

    def __init__(self, p, q) -> None:
        self.p, self.q = _finite_array(p, "p", 1), _finite_array(q, "q", 1)
        if self.q.shape != self.p.shape:
            raise ValueError("generators p and q must have equal lengths")
        super().__init__(self.p.size, self.p.size)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        out = self.q * np.cumsum(self.p * v)
        out[:-1] += self.p[:-1] * np.cumsum((self.q * v)[:0:-1])[::-1]  # sum_{j>i} q_j v_j
        return out

    _adjoint = _apply

    def frobenius_norm(self) -> float:
        p2, q2 = self.p**2, self.q**2
        return float(np.sqrt(p2 @ q2 + 2.0 * (q2[1:] @ np.cumsum(p2)[:-1])))


class LowerToeplitzOperator(LinearOperator):
    """Lower-triangular Toeplitz ``n x n`` matrix ``A_ij = kernel[i - j]``
    for ``i >= j``, applied as a zero-padded FFT convolution in O(n log n).
    The padded length is at least ``2n - 1``, so nothing wraps around."""

    def __init__(self, kernel) -> None:
        self.kernel = _finite_array(kernel, "kernel", 1)
        super().__init__(self.kernel.size, self.kernel.size)
        self._fft_len = 1 << (2 * self.cols - 2).bit_length()
        self._kernel_hat = np.fft.rfft(self.kernel, self._fft_len)
        # the conjugate spectrum correlates: (A^T u)_j = sum_m kernel[m] u[j + m]
        self._kernel_hat_conj = self._kernel_hat.conj()

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self._kernel_hat * np.fft.rfft(v, self._fft_len), self._fft_len)[: self.cols]

    def _adjoint(self, u: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self._kernel_hat_conj * np.fft.rfft(u, self._fft_len), self._fft_len)[: self.cols]

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.arange(self.cols, 0, -1) @ self.kernel**2))


class IdentityOperator(LinearOperator):
    """The ``n x n`` identity."""

    def __init__(self, n: int) -> None:
        super().__init__(n, n)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return v.copy()

    _adjoint = _apply

    def frobenius_norm(self) -> float:
        return float(np.sqrt(self.cols))


class FirstDifferenceOperator(LinearOperator):
    """Forward first-difference matrix: ``(n-1) x n`` with rows (1, -1);
    ``n < 2`` fails the base class's ``1 x 1`` shape check."""

    def __init__(self, n: int) -> None:
        super().__init__(n - 1, n)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return v[:-1] - v[1:]

    def _adjoint(self, u: np.ndarray) -> np.ndarray:
        w = np.empty(self.cols)
        np.subtract(u[1:], u[:-1], out=w[1:-1])
        w[0] = u[0]
        w[-1] = -u[-1]
        return w

    def _apply_sub(self, v: np.ndarray, c: float, u: np.ndarray) -> None:
        u *= -c
        u += v[:-1]
        u -= v[1:]

    def _adjoint_sub(self, u: np.ndarray, c: float, v: np.ndarray, out: np.ndarray) -> None:
        np.multiply(v, -c, out=out)
        out[:-1] += u
        out[1:] -= u

    def frobenius_norm(self) -> float:
        return float(np.sqrt(2.0 * (self.cols - 1)))


class Stacked2DDifferenceOperator(LinearOperator):
    """First differences along both axes of an ``N x N`` image.

    Represents the stack [I_N kron D ; D kron I_N] with D the 1-D
    first-difference matrix, acting on column-major vectorized images.
    The matrix, of shape ``2N(N-1) x N^2``, is never formed: both blocks
    are one-dimensional difference passes over image rows and columns.
    """

    def __init__(self, grid_side: int) -> None:
        if grid_side < 2:
            raise ValueError("2-D difference operator needs grid_side >= 2")
        self.grid_side = grid_side
        n = grid_side
        super().__init__(2 * n * (n - 1), n * n)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        n = self.grid_side
        nblk = n * (n - 1)
        x = v.reshape((n, n), order="F")
        out = np.empty(2 * nblk)
        # (I kron D) vec(X) = vec(D X), then (D kron I) vec(X) = vec(X D^T),
        # each written through an F-order view of its block of ``out``
        np.subtract(x[:-1, :], x[1:, :], out=out[:nblk].reshape((n - 1, n), order="F"))
        np.subtract(x[:, :-1], x[:, 1:], out=out[nblk:].reshape((n, n - 1), order="F"))
        return out

    def _adjoint(self, u: np.ndarray) -> np.ndarray:
        n = self.grid_side
        nblk = n * (n - 1)
        u1 = u[:nblk].reshape((n - 1, n), order="F")
        u2 = u[nblk:].reshape((n, n - 1), order="F")
        w = np.zeros((n, n), order="F")  # its F-ravel below is a view
        w[:-1, :] += u1
        w[1:, :] -= u1
        w[:, :-1] += u2
        w[:, 1:] -= u2
        return w.ravel(order="F")

    def frobenius_norm(self) -> float:
        n = self.grid_side
        return float(np.sqrt(4.0 * n * (n - 1)))


class KroneckerBlurOperator(LinearOperator):
    """Separable blur ``X -> F @ X @ F^T`` on vectorized images, with one
    square ``factor`` ``F`` along both axes.

    Uses column-major vectorization, so the matrix form is
    ``F kron F`` of shape ``N^2 x N^2``.  The products run on the
    vector's row-major view ``X^T``: ``vec_F(F X F^T) = vec_C(F X^T F^T)``,
    so no result is copied into column-major order.
    """

    def __init__(self, factor) -> None:
        self.factor = _finite_array(factor, "factor", 2)
        if self.factor.shape[0] != self.factor.shape[1]:
            raise ValueError("factor must be square")
        n2 = self.factor.shape[0] ** 2
        super().__init__(n2, n2)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        xt = v.reshape(self.factor.shape)  # X^T
        return (self.factor @ xt @ self.factor.T).ravel()

    def _adjoint(self, u: np.ndarray) -> np.ndarray:
        xt = u.reshape(self.factor.shape)
        return (self.factor.T @ xt @ self.factor).ravel()

    def frobenius_norm(self) -> float:
        # |F kron F|_F = |F|_F^2, which scales the Golub-Kahan breakdown threshold
        norm = np.linalg.norm(self.factor, "fro")
        return float(norm * norm)
