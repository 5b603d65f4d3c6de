"""CGME and TCGME iterates built from a bidiagonalization state.

CGME takes the minimum-norm solution of the rank-k projected problem
``min |P_k B_k Q_k^T x - b|``, i.e. ``x_k = Q_k B_k^{-1} P_k^T b``.
TCGME first replaces the square ``(k+1) x (k+1)`` bidiagonal block by its
best rank-k approximation ``C_k`` and solves
``min |P_{k+1} C_k Q_{k+1}^T x - b|``, giving
``x_k = Q_{k+1} pinv(C_k) P_{k+1}^T b``, a strictly better rank-k
approximation route when the discarded singular value is small.

In both cases ``P^T b`` collapses analytically to ``beta_1 e_1``, so both
iterates are read straight from the recurrence coefficients.  CGME's
coefficients gain one entry per step, so a sweep's CGME step is O(n).
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
    """CGME iterate ``x_k = Q_k B_k^{-1} (beta_1 e_1) = sum_j y_j q_j``, in
    range(Q_k), as a new array.

    ``B_k`` is lower bidiagonal with diagonal ``alpha_1..alpha_k`` and
    subdiagonal ``beta_2..beta_k``, so forward substitution only appends
    to ``y``; every stored ``alpha`` exceeds the breakdown threshold.  The
    state memoizes ``y`` and the last iterate, so the next ``k`` costs one
    O(n) update.  Any call sums ``y_j q_j`` in column order, from the memo
    or from zero, so a ``k`` gives the same bits whatever came before.
    """
    _require_steps(state, k, k, "cgme")
    alphas, betas, y = state.alphas, state.betas, state.cgme_coeffs
    if not y:
        y.append(state.beta1 / alphas[0])
    for i in range(len(y), k):
        y.append((0.0 - betas[i] * y[i - 1]) / alphas[i])
    done, x = state.cgme_last if state.cgme_last[0] <= k else (0, None)
    Q = state.Q_cols(k)
    for j in range(done, k):
        x = y[j] * Q[:, j] if x is None else x + y[j] * Q[:, j]
    state.cgme_last = (k, x)  # never handed out, so no caller can mutate it
    return x.copy()


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
