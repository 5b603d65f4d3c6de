"""Matrix-free LSQR for ``min |M (I - Q Q^T) z - d|`` over a :class:`LinearOperator`.

The implementation follows the Paige-Saunders recurrences (Golub-Kahan
bidiagonalization of ``M`` driven by ``d``, with the QR factorization of
the bidiagonal block updated by Givens rotations).  Starting from the
zero vector, the iterates converge to the minimum-norm least-squares
solution whether or not the system is consistent or full rank.

The primary stopping test is the backward-error criterion

    |M^T r_j| / (|M|_est * |r_j|)  <=  tol

with ``|M|_est`` the running Frobenius-style estimate accumulated from
the bidiagonal coefficients.  Stopping there means the computed solution
exactly solves a perturbed problem ``min |(M + E) z - d|`` with
``|E| / |M| <= tol``, which is the contract the outer hybrid iterations
rely on.

With an orthonormal block ``Q`` the solve runs on the subspace
``null(Q^T)``: every right vector ``v`` of the bidiagonalization of
``M P`` (``P = I - Q Q^T``) lies in ``range(P M^T) ⊆ null(Q^T)``, so
``M P v = M v`` and one projection per iteration, on the whole update
``v <- P (M^T u - beta v) / alfa``, gives in exact arithmetic the same
coefficients, stop test and iterates as LSQR on ``M P``.  In floating
point each ``v`` is projected afresh, so the solution stays in
``null(Q^T)`` to rounding.  Without ``Q`` the block has no columns and the
projection subtracts an exact zero.

The loop runs once per inner iteration of every hybrid step, so it keeps
its scalars in Python floats and updates its vectors in place; the
only arrays it allocates per iteration are the two products with ``M``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .operators import (
    ORTHONORMALITY_TOL,
    DimensionMismatch,
    LinearOperator,
    OrthonormalityError,
    _as_vector,
)

__all__ = [
    "NumericalFailure",
    "LsqrConfig",
    "LsqrReport",
    "lsqr_solve",
]

_TINY = float(np.finfo(np.float64).tiny)

StopReason = Literal["backward_error", "max_iters", "exact_breakdown"]


class NumericalFailure(FloatingPointError):
    """A non-finite quantity appeared inside the iteration."""


@dataclass(frozen=True)
class LsqrConfig:
    """Stopping controls.

    ``tol`` is the relative backward-error tolerance; ``max_iters``
    defaults to ``min(rows, cols)``.
    """

    tol: float = 1e-6
    max_iters: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class LsqrReport:
    """Outcome of one LSQR solve.

    ``final_backward_error`` is the stopping quantity at exit and
    satisfies ``<= tol`` whenever ``stop_reason == "backward_error"``.
    ``residual_history`` holds the recurrence estimates of ``|r_j|``
    from ``j = 0`` (they are non-increasing by construction).
    """

    solution: np.ndarray
    iterations: int
    final_backward_error: float
    residual_norm: float
    stop_reason: StopReason
    operator_norm_estimate: float
    residual_history: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


def _sym_ortho(a: float, b: float) -> tuple[float, float, float]:
    """Stable Givens rotation (c, s, r) with r = hypot(a, b)."""
    if b == 0.0:
        return math.copysign(1.0, a) if a != 0 else 1.0, 0.0, abs(a)
    if a == 0.0:
        return 0.0, math.copysign(1.0, b), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = math.copysign(1.0, b) / math.sqrt(1.0 + tau * tau)
        return s * tau, s, b / s
    tau = b / a
    c = math.copysign(1.0, a) / math.sqrt(1.0 + tau * tau)
    return c, c * tau, a / c


def _nonfinite(name: str, value, itn: int) -> NumericalFailure:
    return NumericalFailure(f"non-finite {name} = {value} at iteration {itn}")


def _orthonormal_block(Q, n: int) -> np.ndarray:
    """Private column-major copy of ``Q``, validated as an ``n x k`` block
    with orthonormal columns (a missing block has no columns)."""
    if Q is None:
        return np.empty((n, 0), order="F")
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] < Q.shape[1]:
        raise ValueError(f"expected a tall orthonormal block, got shape {Q.shape}")
    if Q.shape[0] != n:
        raise DimensionMismatch(f"Q has {Q.shape[0]} rows but M has {n} columns")
    Q = Q.copy(order="F")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q must be finite")
    gram_err = np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0)
    if gram_err > ORTHONORMALITY_TOL:
        raise OrthonormalityError(f"columns are not orthonormal: max |Q'Q - I| = {gram_err:.3e}")
    return Q


def lsqr_solve(M: LinearOperator, d, cfg: LsqrConfig | None = None, *, Q=None) -> LsqrReport:
    """Minimum-norm least-squares solve of ``min |M (I - Q Q^T) z - d|``.

    ``Q`` is an ``n x k`` block (``n = M.cols``) whose columns must be
    orthonormal to ``ORTHONORMALITY_TOL``, or :class:`OrthonormalityError`
    is raised; without it the solve is ``min |M z - d|``.  The solution
    lies in ``null(Q^T)``.  The operator's private ``_apply``/``_adjoint``
    run on the loop's own vectors, which have the right lengths by
    construction.  The caller's ``d`` and ``Q`` are left untouched.

    Raises :class:`NumericalFailure` as soon as a bidiagonal coefficient
    (``alfa``, ``beta``) or a rotation quantity (``rho``, ``phi``) is
    non-finite, and at exit if any entry of the solution is.
    """
    if cfg is None:
        cfg = LsqrConfig()
    d = _as_vector(d, M.rows, "right-hand side")
    if not np.all(np.isfinite(d)):
        raise ValueError("right-hand side must be finite")
    n = M.cols
    Q = _orthonormal_block(Q, n)
    max_iters = cfg.max_iters if cfg.max_iters is not None else min(M.rows, n)

    x = np.zeros(n)
    bnorm = math.sqrt(d @ d)
    if bnorm == 0.0:
        return LsqrReport(x, 0, 0.0, 0.0, "exact_breakdown", 0.0, np.zeros(1))

    Qt = Q.T
    qtv = np.empty(Q.shape[1])
    step = np.empty(n)

    def project(v: np.ndarray) -> None:
        # v -= Q (Q^T v), through the preallocated buffers
        np.matmul(Qt, v, out=qtv)
        np.matmul(Q, qtv, out=step)
        v -= step

    beta = bnorm
    u = d / beta
    v = M._adjoint(u)
    project(v)
    alfa = math.sqrt(v @ v)
    if not math.isfinite(alfa):
        raise _nonfinite("alfa", alfa, 0)
    if alfa == 0.0:
        # d is orthogonal to the range of M P: the solution is exactly 0.
        return LsqrReport(x, 0, 0.0, bnorm, "exact_breakdown", 0.0, np.array([bnorm]))
    v /= alfa
    w = v.copy()

    rhobar = alfa
    phibar = beta
    anorm2 = alfa * alfa
    rnorm = bnorm
    history = [bnorm]

    # A NaN or Inf in u or v shows in beta or alfa within the iteration it
    # appears in, before any division by them.
    isfinite = math.isfinite
    itn = 0
    stop: StopReason | None = None
    backward_error = 1.0
    while itn < max_iters:
        itn += 1
        # u = M v - alfa u  (M P v = M v, since v lies in null(Q^T))
        u *= alfa
        np.subtract(M._apply(v), u, out=u)
        beta = math.sqrt(u @ u)
        if not isfinite(beta):
            raise _nonfinite("beta", beta, itn)
        exact = beta == 0.0
        if beta > 0.0:
            u /= beta
            anorm2 += beta * beta
            # v = P (M^T u - beta v)
            v *= beta
            np.subtract(M._adjoint(u), v, out=v)
            project(v)
            alfa = math.sqrt(v @ v)
            if not isfinite(alfa):
                raise _nonfinite("alfa", alfa, itn)
            if alfa > 0.0:
                v /= alfa
                anorm2 += alfa * alfa
            else:
                exact = True

        cs, sn, rho = _sym_ortho(rhobar, beta)
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi
        if not (isfinite(rho) and isfinite(phi)):
            raise _nonfinite("rotation (rho, phi)", (rho, phi), itn)

        # x += (phi / rho) w;  w = v - (theta / rho) w
        np.multiply(w, phi / rho, out=step)
        x += step
        w *= theta / rho
        np.subtract(v, w, out=w)

        rnorm = phibar
        arnorm = alfa * abs(tau)
        anorm = math.sqrt(anorm2)
        backward_error = arnorm / (anorm * rnorm + _TINY)
        history.append(rnorm)

        if exact:
            stop = "exact_breakdown"
        elif backward_error <= cfg.tol:
            stop = "backward_error"
        if stop is not None:
            break

    if stop is None:
        stop = "max_iters"
    if not np.all(np.isfinite(x)):
        raise NumericalFailure(f"non-finite solution after {itn} iterations")
    return LsqrReport(
        solution=x,
        iterations=itn,
        final_backward_error=float(backward_error),
        residual_norm=float(rnorm),
        stop_reason=stop,
        operator_norm_estimate=math.sqrt(anorm2),
        residual_history=np.array(history),
    )
