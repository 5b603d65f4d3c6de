"""Evaluation quantities: seminorm relative errors, rank-k approximation
gaps, projected condition numbers, and convergence-curve analysis.

The gap and condition probes assemble dense matrices and run full SVDs;
they are test oracles, size-guarded and never part of a solver path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidiag import BidiagState, bidiagonal
from .operators import MAX_DENSE_ENTRIES, LinearOperator

__all__ = [
    "ErrorCurve",
    "GammaGapReport",
    "relative_error",
    "gamma_gaps",
    "projected_condition",
    "analyze_curve",
]

_COND_FLOOR_SCALE = 1e-14


@dataclass(frozen=True)
class ErrorCurve:
    """Where a relative-error sequence over outer indices is smallest.

    ``best_k`` is the 1-based argmin (smallest on ties) and ``best_error``
    its error; ``interior_minimum`` flags semi-convergence: the argmin is
    strictly between the first and last index.
    """

    best_k: int
    best_error: float
    interior_minimum: bool


@dataclass(frozen=True)
class GammaGapReport:
    """Spectral gaps of the three rank-k approximations at index ``k``,
    together with the smallest singular value of the ``(k+1) x k``
    bidiagonal block."""

    k: int
    gamma_cgme: float
    gamma_tcgme: float
    gamma_lsqr: float
    theta_min: float


def relative_error(L: LinearOperator, x, x_true, denom: float | None = None) -> float:
    """Seminorm relative error ``|L (x - x_true)| / |L x_true|``.  A sweep over
    one ``x_true`` passes ``denom = float(np.linalg.norm(L.apply(x_true)))``."""
    x = np.asarray(x, dtype=np.float64)
    x_true = np.asarray(x_true, dtype=np.float64)
    if denom is None:
        denom = float(np.linalg.norm(L.apply(x_true)))
    if denom == 0.0:
        raise ValueError("relative error is undefined: L x_true = 0")
    return float(np.linalg.norm(L.apply(x - x_true)) / denom)


def gamma_gaps(state: BidiagState, k: int) -> GammaGapReport:
    """Gaps ``|A - (rank-k approximation)|`` of ``A = state.A`` for the
    CGME, TCGME and LSQR projections, by explicit dense assembly (oracle only).

    Requires ``state.k >= k + 1`` so the square ``(k+1)`` block exists.
    """
    A = state.A
    if A.rows * A.cols > MAX_DENSE_ENTRIES:
        raise ValueError(f"gamma-gap oracle refuses matrices with {A.rows * A.cols} entries")
    B_kp1 = bidiagonal(state, k + 1, k + 1)
    B_kplus = bidiagonal(state, k + 1, k)
    dense = A.to_dense()
    P_k = state.P_cols(k)
    P_k1 = state.P_cols(k + 1)
    Q_k = state.Q_cols(k)
    Q_k1 = state.Q_cols(k + 1)
    U, s, Vt = np.linalg.svd(B_kp1)
    C_k = (U[:, :k] * s[:k]) @ Vt.T[:, :k].T
    gamma_cgme = float(np.linalg.norm(dense - P_k @ bidiagonal(state, k, k) @ Q_k.T, 2))
    gamma_tcgme = float(np.linalg.norm(dense - P_k1 @ C_k @ Q_k1.T, 2))
    gamma_lsqr = float(np.linalg.norm(dense - P_k1 @ B_kplus @ Q_k.T, 2))
    theta_min = float(np.linalg.svd(B_kplus, compute_uv=False)[-1])
    return GammaGapReport(
        k=k,
        gamma_cgme=gamma_cgme,
        gamma_tcgme=gamma_tcgme,
        gamma_lsqr=gamma_lsqr,
        theta_min=theta_min,
    )


def projected_condition(L: LinearOperator, Q) -> float:
    """Condition number of ``L Q_perp`` with ``Q_perp`` a full
    orthogonal completion of ``Q`` (dense SVD oracle).

    Returns ``inf`` when the smallest singular value is below
    ``1e-14`` times the largest.  Requires ``p >= n - k``.
    """
    dense = L.to_dense()
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim == 1:
        Q = Q[:, None]
    n, k = Q.shape
    p = dense.shape[0]
    if dense.shape[1] != n:
        raise ValueError(f"L has {dense.shape[1]} columns but Q has {n} rows")
    if k >= n:
        raise ValueError("Q already spans the whole space; no complement left")
    if p < n - k:
        raise ValueError(f"condition probe needs p >= n - k (p={p}, n={n}, k={k})")
    full, _ = np.linalg.qr(Q, mode="complete")
    q_perp = full[:, k:]
    svals = np.linalg.svd(dense @ q_perp, compute_uv=False)
    if svals[-1] <= _COND_FLOOR_SCALE * svals[0]:
        return float("inf")
    return float(svals[0] / svals[-1])


def analyze_curve(rel_errors) -> ErrorCurve:
    """Locate the best ``k`` of relative errors at ``k = 1..len(rel_errors)``.

    Ties resolve to the smallest ``k`` (the cheaper solution).  Every
    error must be finite.
    """
    errors = tuple(float(e) for e in rel_errors)
    if not errors:
        raise ValueError("cannot analyze an empty error sequence")
    if not np.all(np.isfinite(errors)):
        raise ValueError(f"relative errors must be finite, got {errors}")
    best_pos = int(np.argmin(errors))
    return ErrorCurve(
        best_k=best_pos + 1,
        best_error=errors[best_pos],
        interior_minimum=0 < best_pos < len(errors) - 1,
    )
