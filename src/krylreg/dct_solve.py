"""Direct inner solve for the 2-D first-difference regularizer.

For ``L`` the stacked 2-D difference operator, ``L^T L`` is the 2-D
Neumann Laplacian, which the orthonormal 2-D DCT-II ``C`` diagonalizes:
``L^T L = C^T diag(lam) C`` with ``lam_ij = 4 sin^2(pi i / 2N) +
4 sin^2(pi j / 2N)`` and a single zero eigenvalue for the constant mode.
The corrected hybrid iterate ``x_L = x_k - z_k`` is the minimizer of
``|L x|`` subject to ``Q^T x = Q^T x_k``, and its Lagrange conditions in
the DCT basis reduce to a bordered ``(m+1) x (m+1)`` system with ``m``
the number of columns of ``Q``:

    [ S     q0 ] [ mu ]   [ Q^T x_k ]
    [ q0^T  0  ] [ t  ] = [    0    ],   S = Qh_r^T diag(lam_r)^{-1} Qh_r,

where ``Qh = C Q``, ``q0`` is its zero-mode row and ``Qh_r`` the other
rows.  Then ``x_L = C^T [t; diag(lam_r)^{-1} Qh_r mu]``.  The minimizer
is unique, and equals the minimum-norm inner LSQR answer, whenever the
constants are not orthogonal to ``range(Q)``.

Over one sweep ``Q`` only grows, so :class:`Difference2DSolver` keeps
``Qh`` and ``S``: each new Krylov column costs one transform and one new
row of ``S``.  Each 2-D transform is two ``N x N`` matrix products with
the explicit DCT-II matrix, which the solver builds once.
"""

from __future__ import annotations

import numpy as np

from .bidiag import _ColumnBlock
from .operators import Stacked2DDifferenceOperator, check_orthonormal

__all__ = ["DirectSolveRejected", "Difference2DSolver"]

# The direct answer is accepted only when it reproduces the constraint
# Q^T x_L = Q^T x_k, and meets LSQR's backward-error stop test, to this
# relative accuracy.  Exact answers sit near 1e-14 (constraint) and 1e-17
# (backward error) on the tests and on blur2d at N=96.
ACCEPT_RTOL = 1e-10
# Below this |Q^T 1| / sqrt(n) the constants are numerically orthogonal to
# range(Q): the minimum-norm inner solution then fixes the mean, and the
# bordered system does not.
ZERO_MODE_TOL = 1e-8


class DirectSolveRejected(ArithmeticError):
    """The direct inner solve cannot vouch for its answer; the message says
    why.  Callers fall back to LSQR."""


class Difference2DSolver:
    """Exact corrected iterates ``x_L`` for one sweep with a 2-D difference ``L``.

    ``solve`` takes the sweep's growing orthonormal block ``Q``: each call
    must pass a block whose leading columns are the ones earlier calls
    passed (fewer columns than before reuse the leading part).
    """

    def __init__(self, L: Stacked2DDifferenceOperator) -> None:
        self.L = L
        self.side = n = L.grid_side
        # orthonormal DCT-II, C_ij = sqrt(2/n) cos(pi i (2j + 1) / 2n) with
        # row 0 scaled to 1/sqrt(n); the integer argument is reduced mod 4n
        # first, so every cosine is taken on [0, 2 pi)
        i = np.arange(n)
        self._C = np.sqrt(2.0 / n) * np.cos(0.5 * np.pi / n * (np.outer(i, 2 * i + 1) % (4 * n)))
        self._C[0] = 1.0 / np.sqrt(n)
        lam1 = 4.0 * np.sin(0.5 * np.pi * i / n) ** 2
        lam = (lam1[:, None] + lam1[None, :]).ravel()
        self._inv_lam = np.zeros_like(lam)
        self._inv_lam[1:] = 1.0 / lam[1:]  # mode 0 is the constant image
        self._hat = _ColumnBlock(self.side * self.side)
        self._S = np.empty((0, 0))

    # Both transforms run on the C-order view of the image, its transpose, so
    # the coefficients come out transposed; ``lam`` is symmetric.
    def _forward(self, v: np.ndarray) -> np.ndarray:
        image_t = v.reshape((self.side, self.side))
        return (self._C @ image_t @ self._C.T).ravel()

    def _inverse(self, vh: np.ndarray) -> np.ndarray:
        image_t = vh.reshape((self.side, self.side))
        return (self._C.T @ image_t @ self._C).ravel()

    def _grow(self, Q: np.ndarray) -> None:
        # the LSQR path's orthonormality check on the new columns only:
        # O(nk) per step instead of O(nk^2)
        check_orthonormal(Q, first=self._hat.count)
        for j in range(self._hat.count, Q.shape[1]):
            self._hat.append(self._forward(Q[:, j]))
            hat = self._hat.view()
            row = hat.T @ (self._inv_lam * hat[:, j])
            S = np.empty((j + 1, j + 1))
            S[:j, :j] = self._S
            S[j, :] = S[:, j] = row
            self._S = S

    def solve(self, Q: np.ndarray, x_k: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
        """``argmin |L x|`` subject to ``Q^T x = Q^T x_k``, with the backward
        error of ``z = x_k - x_L`` in LSQR's stop test, no inner iterations
        and no cap hit (the shape of every inner solver's answer).

        Raises :class:`DirectSolveRejected` when the answer cannot be
        vouched for, and :class:`OrthonormalityError` when ``Q`` is not
        orthonormal (as the LSQR path would).
        """
        self._grow(Q)
        m = Q.shape[1]
        hat = self._hat.view(m)
        q0 = hat[0]
        if np.linalg.norm(q0) <= ZERO_MODE_TOL:
            raise DirectSolveRejected(
                f"constants numerically orthogonal to range(Q): "
                f"|Q^T 1|/sqrt(n) = {np.linalg.norm(q0):.3e}"
            )
        y = Q.T @ x_k
        K = np.zeros((m + 1, m + 1))
        K[:m, :m] = self._S[:m, :m]
        K[:m, m] = K[m, :m] = q0
        try:
            sol = np.linalg.solve(K, np.append(y, 0.0))
        except np.linalg.LinAlgError as exc:
            raise DirectSolveRejected(f"bordered system singular: {exc}") from exc
        xh = self._inv_lam * (hat @ sol[:m])
        xh[0] = sol[m]
        x_L = self._inverse(xh)
        if not np.all(np.isfinite(x_L)):
            raise DirectSolveRejected("non-finite direct solution")
        gap = float(np.linalg.norm(Q.T @ x_L - y))
        if gap > ACCEPT_RTOL * float(np.linalg.norm(y)):
            raise DirectSolveRejected(
                f"constraint residual |Q^T x_L - Q^T x_k| = {gap:.3e} "
                f"above {ACCEPT_RTOL:g} relative"
            )
        # With z = x_k - x_L the inner residual is L(I - QQ^T) z - L x_k =
        # -L x_L.  z solves a problem perturbed by E exactly, where |E|/|M|
        # is the normal-equation backward error |(I - QQ^T) L^T L x_L| /
        # (|M| |L x_L|) or, for a nearly consistent system, |L x_L| /
        # (|M| |z|); the smaller one is reported.  The exact |L|_F stands in
        # for |M| = |L(I - QQ^T)|_F, which it bounds from above.
        r = self.L.apply(x_L)
        rnorm = float(np.linalg.norm(r))
        backward_error = 0.0
        if rnorm > 0.0:
            g = self.L.apply_adjoint(r)
            backward_error = float(np.linalg.norm(g - Q @ (Q.T @ g))) / rnorm
            znorm = float(np.linalg.norm(x_k - x_L))
            if znorm > 0.0:
                backward_error = min(backward_error, rnorm / znorm)
            backward_error /= self.L.frobenius_norm()
        if not backward_error <= ACCEPT_RTOL:
            raise DirectSolveRejected(
                f"backward error {backward_error:.3e} above {ACCEPT_RTOL:g}"
            )
        return x_L, backward_error, 0, False
