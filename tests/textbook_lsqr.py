"""Textbook LSQR, the reference the production loop is tested against.

This is Paige and Saunders' algorithm as printed (ACM TOMS 8, 1982): the
Golub-Kahan vectors ``u`` and ``v`` are normalized every iteration, and the
search direction ``w`` and the solution ``x`` are updated every iteration.
It solves the same problem as :func:`krylreg.lsqr.lsqr_solve`,
``min |M (I - Q Q^T) z - d|``, with the same rotations, coefficients and
stop test, so both must report the same iteration count and stop reason,
and solutions equal to rounding.

:func:`extended_lsqr` runs the same recurrence in ``np.longdouble`` for a
fixed number of iterations: where rounding alone separates two float64
loops, it says which of them is nearer the exact-arithmetic iterate.
"""

import math

import numpy as np

from krylreg.lsqr import _TINY, LsqrReport, _orthonormal_block, _sym_ortho
from krylreg.operators import _as_vector


def textbook_lsqr(M, d, *, tol=1e-6, max_iters=None, Q=None) -> LsqrReport:
    d = _as_vector(d, M.rows, "right-hand side")
    n = M.cols
    Q = _orthonormal_block(Q, n)
    if max_iters is None:
        max_iters = min(M.rows, n)

    def project(v):
        v -= Q @ (Q.T @ v)

    x = np.zeros(n)
    beta = math.sqrt(d @ d)
    if beta == 0.0:
        return LsqrReport(x, 0, 0.0, "exact_breakdown", 0.0, np.zeros(1))
    u = d / beta
    v = M.apply_adjoint(u)
    project(v)
    alfa = math.sqrt(v @ v)
    if alfa == 0.0:
        return LsqrReport(x, 0, 0.0, "exact_breakdown", 0.0, np.array([beta]))
    v /= alfa
    w = v.copy()

    rhobar, phibar = alfa, beta
    anorm2 = alfa * alfa
    history = [beta]
    itn = 0
    stop = None
    backward_error = 1.0
    while itn < max_iters:
        itn += 1
        u = M.apply(v) - alfa * u
        beta = math.sqrt(u @ u)
        exact = beta == 0.0
        if beta > 0.0:
            u /= beta
            anorm2 += beta * beta
            v = M.apply_adjoint(u) - beta * v
            project(v)
            alfa = math.sqrt(v @ v)
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

        x += (phi / rho) * w
        w = v - (theta / rho) * w

        rnorm = phibar
        backward_error = alfa * abs(tau) / (math.sqrt(anorm2) * rnorm + _TINY)
        history.append(rnorm)
        if exact:
            stop = "exact_breakdown"
        elif backward_error <= tol:
            stop = "backward_error"
        if stop is not None:
            break

    return LsqrReport(
        solution=x,
        iterations=itn,
        final_backward_error=backward_error,
        stop_reason=stop or "max_iters",
        operator_norm_estimate=math.sqrt(anorm2),
        residual_history=np.array(history),
    )


def extended_lsqr(A, d, Q, iterations) -> np.ndarray:
    """The textbook iterate after ``iterations`` steps, computed in
    ``np.longdouble`` on the dense matrix ``A`` and rounded to float64."""
    dt = np.longdouble
    A = np.asarray(A, dtype=dt)
    Q = np.asarray(Q, dtype=dt)
    d = np.asarray(d, dtype=dt)
    x = np.zeros(A.shape[1], dtype=dt)

    def project(v):
        return v - Q @ (Q.T @ v)

    beta = np.sqrt(d @ d)
    u = d / beta
    v = project(A.T @ u)
    alfa = np.sqrt(v @ v)
    v /= alfa
    w = v.copy()
    rhobar, phibar = alfa, beta
    for _ in range(iterations):
        u = A @ v - alfa * u
        beta = np.sqrt(u @ u)
        u /= beta
        v = project(A.T @ u - beta * v)
        alfa = np.sqrt(v @ v)
        v /= alfa
        rho = np.sqrt(rhobar * rhobar + beta * beta)
        cs, sn = rhobar / rho, beta / rho
        theta, rhobar = sn * alfa, -cs * alfa
        phi, phibar = cs * phibar, sn * phibar
        x += (phi / rho) * w
        w = v - (theta / rho) * w
    return x.astype(np.float64)
