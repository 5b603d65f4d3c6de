"""The inner solve of the hybrids: every link, its chain and one answer record.

At outer index k the Krylov iterate ``x_k`` (CGME or TCGME) is corrected to

    x_L = x_k - z_k,   z_k = argmin-norm  min_z | L (I - Q Q^T) z - L x_k |,

with ``Q`` the right bidiagonalization block (k columns for CGME, k+1 for
TCGME).  As ``z_k`` lies in ``null(Q^T)``, ``x_L`` minimizes ``|L x|``
subject to ``Q^T x = Q^T x_k``: the general-form regularized solution of the
projected problem.

:func:`inner_solvers` picks a sweep's ordered chain of links by the type of
``L``.  Each link's ``solve(Q, x_k)`` returns a :class:`HybridIterate`, or
raises :class:`DirectSolveRejected` when it cannot vouch for its answer;
:func:`corrected` then tries the next link and records why in ``fallback``.

- :class:`IdentitySolver`, the chain for ``L = I``: every Krylov iterate
  lies in range(Q), so ``x_L = x_k``.
- :class:`Difference2DSolver`, first for the 2-D difference stack.
  ``L^T L`` is the 2-D Neumann Laplacian ``C^T diag(lam) C``, with ``C`` the
  orthonormal 2-D DCT-II and ``lam_ij = 4 sin^2(pi i / 2N) +
  4 sin^2(pi j / 2N)``, zero only for the constant image ``e`` that spans
  ``null(L)``.  With ``G = (L^T L)^+ = C^T diag(1/lam) C`` (``1/0`` read
  as 0) the Lagrange conditions give ``x_L = W mu + t e``, ``W = G Q``, where

      [ 0   q0^T ] [ t  ]   [    0    ]
      [ q0  S    ] [ mu ] = [ Q^T x_k ],   S = Q^T W,  q0 = Q^T e.

  The minimizer is unique, and is the minimum-norm LSQR answer, whenever
  the constants are not orthogonal to range(Q).  ``Q`` only grows over a
  sweep, so the link keeps ``W`` and the bordered matrix: a new column
  costs one product with ``G`` (two 2-D transforms, each two ``N x N``
  products with the explicit DCT-II matrix) and one ``L^T L`` product that
  vouches for it, the residual ``delta_j = |L^T L w_j - (q_j - e e^T q_j)|``.
  A solve makes no transform and no ``L`` product: it vouches for its
  answer with a bound on the backward error taken from ``mu``, ``q0``
  and the ``delta_j``.
- :class:`LsqrSolver`, last in every other chain and the reference the
  exact links are tested against: :func:`lsqr_solve` on ``L`` over
  ``null(Q^T)``, which from the zero vector returns the minimum-norm ``z_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bidiag import _ColumnBlock
from .lsqr import lsqr_solve
from .operators import IdentityOperator, LinearOperator, Stacked2DDifferenceOperator, check_orthonormal

__all__ = ["DirectSolveRejected", "HybridIterate", "IdentitySolver", "LsqrSolver", "Difference2DSolver",
           "inner_solvers", "corrected"]

# The direct answer is accepted only when it reproduces the constraint
# Q^T x_L = Q^T x_k, and its backward-error bound meets LSQR's stop test,
# to this relative accuracy.  Exact answers sit near 1e-14 (constraint) and
# at most 1.1e-14 (bound) on the tests and on blur2d at N=96.
ACCEPT_RTOL = 1e-10
# Below this |Q^T 1| / sqrt(n) the constants are numerically orthogonal to
# range(Q): the minimum-norm inner solution then fixes the mean, and the
# bordered system does not.
ZERO_MODE_TOL = 1e-8


class DirectSolveRejected(ArithmeticError):
    """The direct inner solve cannot vouch for its answer; the message says
    why.  Callers fall back to LSQR."""


@dataclass(frozen=True)
class HybridIterate:
    """One corrected iterate with its inner-solve diagnostics.

    ``fallback`` is the reason an earlier link of the inner chain was
    rejected, when a later one produced this iterate in its place.
    """

    x_L: np.ndarray
    inner_iterations: int
    inner_backward_error: float
    inner_cap_hit: bool
    fallback: str | None = None


class IdentitySolver:
    """Exact corrected iterates for ``L = I``: ``x_L = x_k``.

    ``x_L`` minimizes ``|x|`` over the feasible set ``x_k + null(Q^T)``.
    A CGME or TCGME iterate is ``x_k = Q y`` for the very block ``Q`` its
    hybrid passes, so ``x_k`` is orthogonal to ``null(Q^T)`` and is the
    minimizer, whether or not ``Q`` has kept its orthogonality: ``z_k = 0``
    with a zero backward error.
    """

    def solve(self, Q: np.ndarray, x_k: np.ndarray) -> HybridIterate:
        return HybridIterate(x_k, 0, 0.0, False)


@dataclass(frozen=True)
class LsqrSolver:
    """The reference inner solve, and the last link of every chain:
    ``x_L = x_k - z`` with ``z`` the minimum-norm LSQR solution of
    ``min | L(I - QQ^T) z - L x_k |`` for an ``n x k`` block ``Q`` with
    orthonormal columns, stopped at backward error ``tol`` or at LSQR's
    default cap."""

    L: LinearOperator
    tol: float

    def solve(self, Q: np.ndarray, x_k: np.ndarray) -> HybridIterate:
        report = lsqr_solve(self.L, self.L.apply(x_k), tol=self.tol, Q=Q)
        return HybridIterate(x_k - report.solution, report.iterations, report.final_backward_error,
                             report.stop_reason == "max_iters")


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
        self._W = _ColumnBlock(n * n)
        self._K = np.zeros((1, 1))  # [0 q0^T; q0 S], constant mode first
        self._delta = []  # |L^T L w_j - (q_j - e e^T q_j)| for each column of W
        self._deficit = 0.0  # largest |Q^T Q - I| entry over the columns grown

    def _gram(self, v: np.ndarray) -> np.ndarray:
        # (L^T L)^+ v on the C-order view of the image, its transpose, so the
        # coefficients come out transposed; ``lam`` is symmetric
        image_t = v.reshape((self.side, self.side))
        coef = self._C @ image_t @ self._C.T
        coef *= self._inv_lam.reshape(coef.shape)
        return (self._C.T @ coef @ self._C).ravel()

    def _grow(self, Q: np.ndarray) -> None:
        # the LSQR path's orthonormality check on the new columns only:
        # O(nk) per step instead of O(nk^2); each new column is vouched for
        # by one L^T L product, the residual delta_j of G's defining identity
        self._deficit = max(self._deficit, check_orthonormal(Q, first=self._W.count))
        for j in range(self._W.count, Q.shape[1]):
            w, q0_j = self._gram(Q[:, j]), Q[:, j].sum() / self.side
            self._W.append(w)
            K = np.empty((j + 2, j + 2))
            K[: j + 1, : j + 1] = self._K
            K[0, j + 1] = K[j + 1, 0] = q0_j
            K[1:, j + 1] = K[j + 1, 1:] = Q[:, : j + 1].T @ w
            self._K = K
            residual = self.L.apply_adjoint(self.L.apply(w)) - Q[:, j] + q0_j / self.side
            self._delta.append(float(np.linalg.norm(residual)))

    def solve(self, Q: np.ndarray, x_k: np.ndarray) -> HybridIterate:
        """``argmin |L x|`` subject to ``Q^T x = Q^T x_k``, with an upper
        bound on the backward error of ``z = x_k - x_L`` in LSQR's stop
        test, no inner iterations and no cap hit.  Three ``n x m`` passes
        (``Q^T x_k``, ``W mu``, ``Q^T x_L``) and no ``L`` product.

        Raises :class:`DirectSolveRejected` when the answer cannot be
        vouched for, and :class:`OrthonormalityError` when ``Q`` is not
        orthonormal (as the LSQR path would).
        """
        self._grow(Q)
        m = Q.shape[1]
        q0 = self._K[0, 1 : m + 1]
        if np.linalg.norm(q0) <= ZERO_MODE_TOL:
            raise DirectSolveRejected(
                f"constants numerically orthogonal to range(Q): "
                f"|Q^T 1|/sqrt(n) = {np.linalg.norm(q0):.3e}"
            )
        y = Q.T @ x_k
        try:
            sol = np.linalg.solve(self._K[: m + 1, : m + 1], np.append(0.0, y))
        except np.linalg.LinAlgError as exc:
            raise DirectSolveRejected(f"bordered system singular: {exc}") from exc
        t, mu = sol[0], sol[1:]
        x_L = self._W.view(m) @ mu + t / self.side
        if not np.all(np.isfinite(x_L)):
            raise DirectSolveRejected("non-finite direct solution")
        gap = float(np.linalg.norm(Q.T @ x_L - y))
        if gap > ACCEPT_RTOL * float(np.linalg.norm(y)):
            raise DirectSolveRejected(
                f"constraint residual |Q^T x_L - Q^T x_k| = {gap:.3e} "
                f"above {ACCEPT_RTOL:g} relative"
            )
        # With z = x_k - x_L the inner residual is L(I - QQ^T) z - L x_k =
        # -L x_L, and z solves a problem perturbed by E exactly, with |E|/|M|
        # the normal-equation backward error |P L^T L x_L| / (|M| |L x_L|),
        # P = I - QQ^T; the exact |L|_F stands in for |M| = |L P|_F, which
        # it bounds from above.  Both norms are taken in the k-space, from
        # L^T L x_L = Q mu - (q0^T mu) e + sum_j mu_j d_j, |d_j| = delta_j:
        # P Q mu = -Q (Q^T Q - I) mu, |P e|^2 <= 1 - (1 - eps) |q0|^2 with
        # eps = m max|Q^T Q - I| >= |Q^T Q - I|_2, and |L x_L|^2 = mu^T y
        # once the constraint holds (q0^T mu = 0 by the first bordered row).
        eps = m * self._deficit
        bound = (abs(q0 @ mu) * np.sqrt(max(1.0 - (1.0 - eps) * (q0 @ q0), 0.0))
                 + np.abs(mu) @ self._delta[:m] + eps * np.linalg.norm(mu))
        backward_error = 0.0
        if bound > 0.0:
            lx_sq = float(mu @ y)
            backward_error = bound / (np.sqrt(lx_sq) * self.L.frobenius_norm()) if lx_sq > 0.0 else np.inf
        if not backward_error <= ACCEPT_RTOL:
            raise DirectSolveRejected(
                f"backward error {backward_error:.3e} above {ACCEPT_RTOL:g}"
            )
        return HybridIterate(x_L, 0, backward_error, False)


def inner_solvers(L: LinearOperator, inner_tol: float) -> tuple:
    """Fresh inner solvers for one sweep with regularizer ``L``, in the
    order they are tried: an exact solver when ``L`` has structure one
    exploits, then :class:`LsqrSolver` at ``inner_tol`` unless it never rejects.

    The last link never rejects: every chain ends in :class:`IdentitySolver`
    or :class:`LsqrSolver`, neither of which raises ``DirectSolveRejected``.
    The closing raise of :func:`corrected` guards this rule."""
    if isinstance(L, IdentityOperator):
        return (IdentitySolver(),)
    if isinstance(L, Stacked2DDifferenceOperator):
        return Difference2DSolver(L), LsqrSolver(L, inner_tol)
    return (LsqrSolver(L, inner_tol),)


def corrected(x_k: np.ndarray, Q: np.ndarray, chain) -> HybridIterate:
    """The answer of the first link of ``chain`` that vouches for it, with
    the reason the link before it was rejected as its ``fallback``."""
    fallback = None
    for solver in chain:
        try:
            answer = solver.solve(Q, x_k)
        except DirectSolveRejected as exc:
            fallback = str(exc)
            continue
        return answer if fallback is None else replace(answer, fallback=fallback)
    raise DirectSolveRejected(f"every inner solver rejected the step: {fallback}")
