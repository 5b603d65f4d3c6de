"""CGME and TCGME iterates built from a bidiagonalization state.

CGME takes the minimum-norm solution of the rank-k projected problem
``min |P_k B_k Q_k^T x - b|``, i.e. ``x_k = Q_k B_k^{-1} P_k^T b``.
TCGME first replaces the square ``(k+1) x (k+1)`` bidiagonal block by its
best rank-k approximation ``C_k`` and solves
``min |P_{k+1} C_k Q_{k+1}^T x - b|``, giving
``x_k = Q_{k+1} pinv(C_k) P_{k+1}^T b``, a strictly better rank-k
approximation route when the discarded singular value is small.

In both cases ``P^T b`` collapses analytically to ``beta_1 e_1``.
"""

from __future__ import annotations

import numpy as np

from .bidiag import BidiagState, extract_matrices
from .dense_kernels import TruncatedFactor, bidiag_solve, svd_small, truncated_pinv_apply

__all__ = ["cgme_iterate", "tcgme_iterate"]


def _require_steps(state: BidiagState, needed: int, k: int, method: str) -> None:
    if state.k < needed:
        detail = f"have {state.k} completed steps"
        if state.breakdown_step is not None:
            detail += f" (breakdown at step {state.breakdown_step})"
        raise ValueError(f"{method} iterate at k={k} needs {needed} bidiagonalization steps; {detail}")


def cgme_iterate(state: BidiagState, k: int) -> np.ndarray:
    """CGME iterate ``x_k = Q_k B_k^{-1} (beta_1 e_1)``, in range(Q_k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _require_steps(state, k, k, "cgme")
    mats = extract_matrices(state, k)
    rhs = np.zeros(k)
    rhs[0] = state.beta1
    y = bidiag_solve(mats.B_k, rhs)
    return state.Q_cols(k) @ y


def tcgme_iterate(state: BidiagState, k: int) -> np.ndarray:
    """TCGME iterate through the rank-k truncation of the square
    ``(k+1) x (k+1)`` bidiagonal block, in range(Q_{k+1}) (requires
    ``state.k >= k + 1``)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _require_steps(state, k + 1, k, "tcgme")
    mats = extract_matrices(state, k)
    factor = TruncatedFactor(source=svd_small(mats.B_kp1), rank=k)
    rhs = np.zeros(k + 1)
    rhs[0] = state.beta1
    y = truncated_pinv_apply(factor, rhs)
    return state.Q_cols(k + 1) @ y
