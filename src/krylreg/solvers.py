"""CGME and TCGME iterates built from a bidiagonalization state.

CGME takes the minimum-norm solution of the rank-k projected problem
``min |P_k B_k Q_k^T x - b|``, i.e. ``x_k = Q_k B_k^{-1} P_k^T b``.
TCGME first replaces the square ``(k+1) x (k+1)`` bidiagonal block by its
best rank-k approximation ``C_k`` and solves
``min |P_{k+1} C_k Q_{k+1}^T x - b|``, giving
``x_k = Q_{k+1} pinv(C_k) P_{k+1}^T b``, a strictly better rank-k
approximation route when the discarded singular value is small.

In both cases ``P^T b`` collapses analytically to ``beta_1 e_1``, so both
iterates are read straight from the recurrence coefficients.
"""

from __future__ import annotations

import warnings

import numpy as np

from .bidiag import BidiagState, bidiagonal

__all__ = ["IllConditionedTruncation", "cgme_iterate", "tcgme_iterate"]

_PINV_CONDITION_SCALE = 1e-14


class IllConditionedTruncation(UserWarning):
    """The retained singular values span more than ~14 orders of magnitude."""


def _require_steps(state: BidiagState, k: int, needed: int, method: str) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if state.k < needed:
        detail = f"have {state.k} completed steps"
        if state.breakdown_step is not None:
            detail += f" (breakdown at step {state.breakdown_step})"
        raise ValueError(f"{method} iterate at k={k} needs {needed} bidiagonalization steps; {detail}")


def cgme_iterate(state: BidiagState, k: int) -> np.ndarray:
    """CGME iterate ``x_k = Q_k B_k^{-1} (beta_1 e_1)``, in range(Q_k).

    ``B_k`` is lower bidiagonal with diagonal ``alpha_1..alpha_k`` and
    subdiagonal ``beta_2..beta_k``; forward substitution is O(k).  Every
    stored ``alpha`` exceeds the breakdown threshold, so none is zero.
    """
    _require_steps(state, k, k, "cgme")
    alphas, betas = state.alphas, state.betas
    y = np.empty(k)
    y[0] = state.beta1 / alphas[0]
    for i in range(1, k):
        y[i] = (0.0 - betas[i] * y[i - 1]) / alphas[i]
    return state.Q_cols(k) @ y


def tcgme_iterate(state: BidiagState, k: int) -> np.ndarray:
    """TCGME iterate through the rank-k truncation of the square
    ``(k+1) x (k+1)`` bidiagonal block, in range(Q_{k+1}) (requires
    ``state.k >= k + 1``).

    With ``B_{k+1} = U diag(s) V^T``, ``pinv(C_k) beta_1 e_1`` is
    ``V_k diag(1/s_1..1/s_k) U_k^T beta_1 e_1``, and ``U_k^T e_1`` is the
    first row of ``U_k``.  Warns (without failing) when the retained
    values are themselves nearly rank-deficient.
    """
    _require_steps(state, k, k + 1, "tcgme")
    U, s, Vt = np.linalg.svd(bidiagonal(state, k + 1, k + 1))
    kept = s[:k]
    if kept[-1] <= _PINV_CONDITION_SCALE * kept[0]:
        warnings.warn(
            f"retained singular values span [{kept[-1]:.3e}, {kept[0]:.3e}]; "
            "pseudo-inverse application is ill conditioned",
            IllConditionedTruncation,
            stacklevel=2,
        )
    # Moore-Penrose semantics: exactly zero values are excluded, not inverted.
    inv = np.divide(1.0, kept, out=np.zeros_like(kept), where=kept > 0.0)
    return state.Q_cols(k + 1) @ (Vt.T[:, :k] @ ((U[0, :k] * state.beta1) * inv))
