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

The loop runs once per inner iteration of every hybrid step, and on short
vectors its cost is the number of numpy calls, so it makes 11 per
iteration: the two updates ``u <- M v - c u`` and ``v' <- M^T u - c v``,
three calls each through the operator's ``_apply_sub``/``_adjoint_sub``,
the projection (two gemvs and a subtraction) and two norms.  A first
difference fuses its products into those updates as in-place passes over
slices, with no temporary vector.  ``u`` and ``v`` are kept
unnormalized, as their Golub-Kahan vectors times scales the loop tracks in
Python floats; ``1/beta`` and ``1/alfa`` are folded into the coefficients
of the next update, and a vector is rescaled, exactly, by a power of two
only when its scale leaves a safe range.  The search direction ``w`` and
the solution ``x`` are not updated every iteration either: the right
vectors of up to ``_BLOCK`` iterations are written into the rows of a
fixed ring, and every ``_BLOCK`` iterations, and at exit, a
back-substitution over the block's rotation scalars gives the
coefficients of one product with the ring that advances ``x`` and the
carried ``w``.
Memory is ``_BLOCK + 1`` vectors of length ``n`` whatever the iteration
count.  The iterates are those of the textbook recurrence up to rounding,
and starting from ``d`` itself, not ``d / |d|``, removes the one rounding
that the hybrids' inner problems magnify most: there ``d = L x_k`` with
``x_k`` in ``range(Q)``, so ``P M^T d`` can be a small remainder of
``M^T d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .operators import DimensionMismatch, LinearOperator, _as_vector, _is_int, _is_real, check_orthonormal

__all__ = [
    "NumericalFailure",
    "LsqrReport",
    "lsqr_solve",
]

_TINY = float(np.finfo(np.float64).tiny)
# Right vectors held between two updates of the solution: memory is
# (_BLOCK + 1) vectors of length n, whatever the iteration count.
_BLOCK = 64
# A tracked scale is brought back into [0.5, 1), by a power of two, once it
# leaves [_SCALE_LO, _SCALE_HI].  It grows by about alfa * beta per
# iteration, and each norm is taken of a vector up to _SCALE_HI times the
# normalized recurrence's, so the range is kept narrow: the squared norms
# overflow or underflow only for alfa or beta within 2^64 of where the
# normalized recurrence's would.
_SCALE_LO, _SCALE_HI = 2.0**-64, 2.0**64

StopReason = Literal["backward_error", "max_iters", "exact_breakdown"]


class NumericalFailure(FloatingPointError):
    """A non-finite quantity appeared inside the iteration."""


@dataclass
class LsqrReport:
    """Outcome of one LSQR solve.

    ``final_backward_error`` is the stopping quantity at exit and
    satisfies ``<= tol`` whenever ``stop_reason == "backward_error"``.
    ``residual_history`` holds the recurrence estimates of ``|r_j|``
    from ``j = 0`` (they are non-increasing by construction); its last
    entry is the residual norm at exit.
    """

    solution: np.ndarray
    iterations: int
    final_backward_error: float
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
    """``Q`` validated as an ``n x k`` block with orthonormal columns, laid
    out column-major: a block in another layout is copied, an F-contiguous
    one is read in place (a missing block has no columns)."""
    if Q is None:
        return np.empty((n, 0), order="F")
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] < Q.shape[1]:
        raise ValueError(f"expected a tall orthonormal block, got shape {Q.shape}")
    if Q.shape[0] != n:
        raise DimensionMismatch(f"Q has {Q.shape[0]} rows but M has {n} columns")
    Q = np.asfortranarray(Q)
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q must be finite")
    check_orthonormal(Q)
    return Q


def _rescale(vec: np.ndarray, scale: float) -> float:
    """Multiply ``vec`` by the power of two that brings ``scale`` into
    ``[0.5, 1)``, and return the new scale.  The product is exact."""
    factor = math.ldexp(1.0, -math.frexp(scale)[1])
    vec *= factor
    return scale * factor


def _back_substitute(f: list, t: list, scales: list, carry: bool) -> np.ndarray:
    """Coefficients that apply one block of LSQR's ``x``/``w`` updates.

    Row 0 of the block holds the search direction ``w`` carried into it
    and row ``r >= 1`` the right vector that iteration ``r - 1`` produced,
    each ``scales[r]`` times its true length.  Iteration ``l`` sets
    ``x += f[l] w_l`` and ``w_{l+1} = v_{l+1} - t[l] w_l``, so the block's
    increment of ``x`` is ``sum_r G_r w_r`` with ``G_l = f[l] - t[l] G_{l+1}``,
    and the direction it carries out is ``w_m = sum_r E_r v_r`` with
    ``E_l = -t[l] E_{l+1}``, ``E_m = 1``.  Returns the coefficients on the
    stored rows: ``G`` over rows ``0 .. m-1``, and with ``carry`` a second
    row ``E`` over rows ``0 .. m`` (``G`` padded with a zero).
    """
    m = len(f)
    coef = np.zeros((2 if carry else 1, m + 1 if carry else m))
    g, e = 0.0, 1.0
    if carry:
        coef[1, m] = 1.0 / scales[m]
    for r in range(m - 1, -1, -1):
        g = f[r] - t[r] * g
        coef[0, r] = g / scales[r]
        if carry:
            e = -t[r] * e
            coef[1, r] = e / scales[r]
    return coef


def lsqr_solve(M: LinearOperator, d, *, tol: float = 1e-6, max_iters: int | None = None,
               Q=None) -> LsqrReport:
    """Minimum-norm least-squares solve of ``min |M (I - Q Q^T) z - d|``,
    stopped once the relative backward error is at most ``tol`` (in
    ``(0, 1)``) or after ``max_iters`` iterations (a positive integer);
    other values of either raise ``ValueError``.  The default cap for a
    ``k``-column ``Q`` is ``min(M.rows, n, max(2 (n - k), 1))``: exact
    termination on ``null(Q^T)`` needs at most ``n - k`` iterations, and
    the cap doubles that for floating-point slack, so it binds only once
    ``k`` passes about ``n / 2``.

    ``Q`` is an ``n x k`` block (``n = M.cols``) whose columns must be
    orthonormal to ``ORTHONORMALITY_TOL``, or :class:`OrthonormalityError`
    is raised; without it the solve is ``min |M z - d|``.  The solution
    lies in ``null(Q^T)``.  The operator's private ``_adjoint`` and fused
    updates ``_apply_sub``/``_adjoint_sub`` run on the loop's own vectors,
    which have the right lengths by construction.  The caller's ``d`` and
    ``Q`` are left untouched.

    Raises :class:`NumericalFailure` as soon as a bidiagonal coefficient
    (``alfa``, ``beta``) or a rotation quantity (``rho``, ``phi``) is
    non-finite, and at exit if any entry of the solution is.
    """
    if not _is_real(tol) or not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iters is not None and (not _is_int(max_iters) or max_iters < 1):
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    d = _as_vector(d, M.rows, "right-hand side")
    if not np.all(np.isfinite(d)):
        raise ValueError("right-hand side must be finite")
    n = M.cols
    Q = _orthonormal_block(Q, n)
    if max_iters is None:
        max_iters = min(M.rows, n, max(2 * (n - Q.shape[1]), 1))

    x = np.zeros(n)
    bnorm = math.sqrt(d @ d)
    if bnorm == 0.0:
        return LsqrReport(x, 0, 0.0, "exact_breakdown", 0.0, np.zeros(1))

    dot = np.dot
    apply_sub, adjoint_sub = M._apply_sub, M._adjoint_sub
    sqrt, isfinite = math.sqrt, math.isfinite
    Qt = Q.T
    qtv = np.empty(Q.shape[1])
    step = np.empty(n)
    # ``u`` and ``v`` are the Golub-Kahan vectors times the scales ``cu``
    # and ``cv``, their computed norms.  Row 0 of the ring holds the
    # carried search direction (at first ``w = v``), the rows after it the
    # right vectors of the current block, each with its scale.
    ring = np.empty((_BLOCK + 1, n))
    f: list[float] = []
    t: list[float] = []

    beta = cu = bnorm
    u = d.copy()
    if not _SCALE_LO <= cu <= _SCALE_HI:
        cu = _rescale(u, cu)
    v = ring[0]
    v[:] = M._adjoint(u)
    dot(Qt, v, out=qtv)
    dot(Q, qtv, out=step)
    v -= step
    cv = sqrt(dot(v, v))
    alfa = cv / cu
    if not isfinite(alfa):
        raise _nonfinite("alfa", alfa, 0)
    if alfa == 0.0:
        # d is orthogonal to the range of M P: the solution is exactly 0.
        return LsqrReport(x, 0, 0.0, "exact_breakdown", 0.0, np.array([bnorm]))
    if not _SCALE_LO <= cv <= _SCALE_HI:
        cv = _rescale(v, cv)
    scales = [cv]

    rhobar = alfa
    phibar = beta
    anorm2 = alfa * alfa
    history = [bnorm]

    # A NaN or Inf in u or v shows in beta or alfa within the iteration it
    # appears in, before any division by them.
    itn = 0
    stop: StopReason | None = None
    backward_error = 1.0
    while itn < max_iters:
        itn += 1
        # u = M v - alfa u  (M P v = M v, since v lies in null(Q^T)), times cv
        apply_sub(v, alfa * cv / cu, u)
        cu = sqrt(dot(u, u))
        beta = cu / cv
        if not isfinite(beta):
            raise _nonfinite("beta", beta, itn)
        exact = beta == 0.0
        if beta > 0.0:
            anorm2 += beta * beta
            if not _SCALE_LO <= cu <= _SCALE_HI:
                cu = _rescale(u, cu)
            # v = P (M^T u - beta v), times cu, into the next row
            row = ring[len(scales)]
            adjoint_sub(u, beta * cu / cv, v, row)
            dot(Qt, row, out=qtv)
            dot(Q, qtv, out=step)
            row -= step
            v = row
            cv = sqrt(dot(v, v))
            alfa = cv / cu
            if not isfinite(alfa):
                raise _nonfinite("alfa", alfa, itn)
            if alfa > 0.0:
                anorm2 += alfa * alfa
                if not _SCALE_LO <= cv <= _SCALE_HI:
                    cv = _rescale(v, cv)
            else:
                exact = True
            scales.append(cv)

        cs, sn, rho = _sym_ortho(rhobar, beta)
        theta = sn * alfa
        rhobar = -cs * alfa
        phi = cs * phibar
        phibar = sn * phibar
        tau = sn * phi
        if not (isfinite(rho) and isfinite(phi)):
            raise _nonfinite("rotation (rho, phi)", (rho, phi), itn)
        # x += (phi / rho) w;  w = v - (theta / rho) w, applied per block
        f.append(phi / rho)
        t.append(theta / rho)

        rnorm = phibar
        arnorm = alfa * abs(tau)
        anorm = sqrt(anorm2)
        backward_error = arnorm / (anorm * rnorm + _TINY)
        history.append(rnorm)

        if exact:
            stop = "exact_breakdown"
        elif backward_error <= tol:
            stop = "backward_error"
        if stop is not None:
            break
        if len(f) == _BLOCK:
            # advance x and carry w into row 0; v stays in its row
            out = dot(_back_substitute(f, t, scales, carry=True), ring)
            x += out[0]
            ring[0] = out[1]
            f.clear()
            t.clear()
            scales = [1.0]

    if f:
        x += dot(_back_substitute(f, t, scales, carry=False)[0], ring[: len(f)])
    if stop is None:
        stop = "max_iters"
    if not np.all(np.isfinite(x)):
        raise NumericalFailure(f"non-finite solution after {itn} iterations")
    return LsqrReport(
        solution=x,
        iterations=itn,
        final_backward_error=float(backward_error),
        stop_reason=stop,
        operator_norm_estimate=math.sqrt(anorm2),
        residual_history=np.array(history),
    )
