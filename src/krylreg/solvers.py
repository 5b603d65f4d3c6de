"""CGME and TCGME iterates built from a bidiagonalization state.

CGME takes the minimum-norm solution of the rank-k projected problem
``min |P_k B_k Q_k^T x - b|``, i.e. ``x_k = Q_k B_k^{-1} P_k^T b``.
TCGME first replaces the square ``(k+1) x (k+1)`` bidiagonal block by its
best rank-k approximation ``C_k`` and solves
``min |P_{k+1} C_k Q_{k+1}^T x - b|``, giving
``x_k = Q_{k+1} pinv(C_k) P_{k+1}^T b``, a strictly better rank-k
approximation route when the discarded singular value is small.

In both cases ``P^T b`` collapses analytically to ``beta_1 e_1``, so both
iterates ``x_k = Q c``, and ``c`` with ``coeffs=True``, are read straight from
the recurrence: CGME's ``c`` gains one entry a step (an O(n) sweep step), and
TCGME's is one LAPACK least-squares solve of ``B_{k+1}``, with no SVD.
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


def cgme_iterate(state: BidiagState, k: int, *, coeffs: bool = False) -> np.ndarray:
    """CGME iterate ``x_k = Q_k B_k^{-1} (beta_1 e_1) = sum_j y_j q_j``, in
    range(Q_k), or with ``coeffs`` its coefficients ``y``, as a new array.

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
    if coeffs:
        return np.array(y[:k])
    done, x = state.cgme_last if state.cgme_last[0] <= k else (0, None)
    Q = state.Q_cols(k)
    for j in range(done, k):
        x = y[j] * Q[:, j] if x is None else x + y[j] * Q[:, j]
    state.cgme_last = (k, x)  # never handed out, so no caller can mutate it
    return x.copy()


def tcgme_iterate(state: BidiagState, k: int, *, coeffs: bool = False) -> np.ndarray:
    """TCGME iterate through the rank-k truncation of the square
    ``(k+1) x (k+1)`` bidiagonal block, in range(Q_{k+1}) (requires
    ``state.k >= k + 1``), or with ``coeffs`` its coefficients ``c``.

    ``c = pinv(C_k) beta_1 e_1`` is the minimum-norm solution of ``B_{k+1} c =
    beta_1 e_1`` with ``s_{k+1}`` cut off, which LAPACK's xGELSD (``lstsq``)
    returns with all of ``s`` and no singular vectors.  Interlacing puts
    ``s_min(B_k)`` in ``[s_{k+1}, s_k]``, so the cut is the last ``s_min / s_1``
    (``alpha_1 / |B_2|_F`` at k=1); a rank other than k (or a ``k`` out of
    sweep order) takes a second solve at ``sqrt(s_k s_{k+1}) / s_1``.  Warns
    (without failing) when the retained values are themselves nearly
    rank-deficient.  The state memoizes ``c`` and ``s``.
    """
    _require_steps(state, k, k + 1, "tcgme")
    last, c, s = state.tcgme_last
    if last != k:
        B, rhs = bidiagonal(state, k + 1, k + 1), np.zeros(k + 1)
        rhs[0] = state.beta1
        cut = state.alphas[0] / np.linalg.norm(B) if k == 1 else s[-1] / s[0] if last == k - 1 else -1.0
        c, _, rank, s = np.linalg.lstsq(B, rhs, rcond=cut)
        if rank != k:
            c, _, rank, s = np.linalg.lstsq(B, rhs, rcond=np.sqrt(s[k - 1] * s[k]) / s[0])
        if s[k - 1] <= _PINV_CONDITION_SCALE * s[0]:
            warnings.warn(
                f"retained singular values span [{s[k - 1]:.3e}, {s[0]:.3e}]; "
                "pseudo-inverse application is ill conditioned",
                IllConditionedTruncation,
                stacklevel=2,
            )
        state.tcgme_last = (k, c, s)
    return c.copy() if coeffs else state.Q_cols(k + 1) @ c
