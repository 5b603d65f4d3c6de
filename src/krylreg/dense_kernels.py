"""Small dense factorizations used by the iterate constructions.

These kernels only ever see the projected coefficient blocks (order a few
hundred at most): SVD of bidiagonal blocks, the rank-k truncation, the
pseudo-inverse of the truncation applied to a vector, and the O(k)
forward substitution for lower-bidiagonal systems.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IllConditionedTruncation",
    "SmallSVD",
    "TruncatedFactor",
    "svd_small",
    "bidiag_solve",
    "truncated_pinv_apply",
]

_SIZE_GUARD = 10**6
_PINV_CONDITION_SCALE = 1e-14


class IllConditionedTruncation(UserWarning):
    """The retained singular values span more than ~14 orders of magnitude."""


@dataclass(frozen=True)
class SmallSVD:
    """Full SVD ``M = U diag(s) V^T`` with square orthogonal factors."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray

    @property
    def rows(self) -> int:
        return self.U.shape[0]

    @property
    def cols(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True)
class TruncatedFactor:
    """Best rank-``rank`` approximation of the factored matrix."""

    source: SmallSVD
    rank: int

    def __post_init__(self) -> None:
        if not 1 <= self.rank <= self.source.singular_values.shape[0]:
            raise ValueError(
                f"rank must be in [1, {self.source.singular_values.shape[0]}], got {self.rank}"
            )


def svd_small(M) -> SmallSVD:
    """Full SVD of a small dense matrix, values sorted non-increasing."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("expected a 2-D array")
    if M.size > _SIZE_GUARD:
        raise ValueError(f"matrix with {M.size} entries exceeds the dense-kernel guard")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    U, s, Vt = np.linalg.svd(M, full_matrices=True)
    return SmallSVD(U=U, singular_values=s, V=Vt.T)


def bidiag_solve(B, rhs) -> np.ndarray:
    """Solve ``B y = rhs`` for lower-bidiagonal ``B`` by forward substitution."""
    B = np.asarray(B, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    k = B.shape[0]
    if B.shape != (k, k) or rhs.shape != (k,):
        raise ValueError(f"shape mismatch: B {B.shape}, rhs {rhs.shape}")
    diag = np.diagonal(B)
    if np.any(diag == 0.0):
        raise np.linalg.LinAlgError("singular lower-bidiagonal system (zero diagonal)")
    sub = np.diagonal(B, offset=-1)
    y = np.empty(k)
    y[0] = rhs[0] / diag[0]
    for i in range(1, k):
        y[i] = (rhs[i] - sub[i - 1] * y[i - 1]) / diag[i]
    return y


def truncated_pinv_apply(factor: TruncatedFactor, rhs) -> np.ndarray:
    """Apply the Moore-Penrose pseudo-inverse of the truncated matrix.

    Returns ``V diag(1/s_1..1/s_k, 0..) U^T rhs`` where ``k`` is the
    truncation rank.  Warns (without failing) when the retained values
    are themselves nearly rank-deficient.
    """
    s = factor.source
    k = factor.rank
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (s.rows,):
        raise ValueError(f"rhs must have length {s.rows}, got shape {rhs.shape}")
    svals = s.singular_values[:k]
    if svals[-1] <= _PINV_CONDITION_SCALE * svals[0]:
        warnings.warn(
            f"retained singular values span [{svals[-1]:.3e}, {svals[0]:.3e}]; "
            "pseudo-inverse application is ill conditioned",
            IllConditionedTruncation,
            stacklevel=2,
        )
    # Moore-Penrose semantics: exactly zero values are excluded, not inverted.
    inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=svals > 0.0)
    return s.V[:, :k] @ ((s.U[:, :k].T @ rhs) * inv)
