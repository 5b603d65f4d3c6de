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

- :class:`IdentitySolver`, the no-correction link ``x_L = x_k``: the plain
  methods' chain for every ``L``, and the hybrids' for ``L = I``, where every
  Krylov iterate lies in range(Q).
- :class:`Difference2DSolver`, first for the 2-D difference stack, and its
  :class:`Difference1DSolver`, first for the 1-D first difference.  Both
  ``L^T L`` are Neumann Laplacians, zero only on the unit constant vector
  ``e`` that spans ``null(L)``.  With ``G = (L^T L)^+`` the Lagrange
  conditions give ``x_L = W mu + t e``, ``W = G Q``, where

      [ 0   q0^T ] [ t  ]   [    0    ]
      [ q0  S    ] [ mu ] = [ Q^T x_k ],   S = Q^T W,  q0 = Q^T e.

  The minimizer is unique, and is the minimum-norm LSQR answer, whenever
  the constants are not orthogonal to range(Q).  ``G`` is ``C^T diag(1/lam)
  C`` with ``C`` the explicit 2-D DCT-II in 2-D, and two cumulative sums in
  1-D.  ``Q`` only grows over a sweep, so the link keeps ``W`` and the
  bordered matrix: a new column costs one product with ``G`` and one
  ``L^T L`` product that vouches for it, the residual
  ``delta_j = |L^T L w_j - (q_j - e e^T q_j)|``.  A solve reads ``Q^T x_k``
  as the sweep's ``x_k.coeffs()``, refuses a block whose row 0 is not the
  one it grew, and vouches in k space for its constraint residual and its
  backward error; ``x_L`` is formed when read, and :mod:`krylreg.metrics`
  measures its error from k-space parts.  The 1-D link answers one-column
  blocks only, and returns None on a wider one, which is passed over.
- :class:`LsqrSolver`, last in every other chain and the reference the
  exact links are tested against: :func:`lsqr_solve` on ``L`` over
  ``null(Q^T)``, which from the zero vector returns the minimum-norm ``z_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .bidiag import _ColumnBlock
from .lsqr import lsqr_solve
from .operators import (FirstDifferenceOperator, IdentityOperator, LinearOperator, Stacked2DDifferenceOperator,
                        check_orthonormal)

__all__ = ["DirectSolveRejected", "HybridIterate", "IdentitySolver", "LsqrSolver", "Difference2DSolver",
           "Difference1DSolver", "inner_solvers", "corrected"]

# The direct answer is accepted only when it reproduces the constraint
# Q^T x_L = Q^T x_k, and its backward-error bound meets LSQR's stop test,
# to this relative accuracy.  On blur2d at N=96 exact answers' bounds reach
# 2.1e-12 (constraint) and 1.1e-14 (backward error).
ACCEPT_RTOL = 1e-10
# Below this |Q^T 1| / sqrt(n) the constants are numerically orthogonal to
# range(Q): the minimum-norm inner solution then fixes the mean, and the
# bordered system does not.
ZERO_MODE_TOL = 1e-8


def _gamma(count: int) -> float:
    """Higham's ``gamma_count = count u / (1 - count u)``, ``u = 2^-53``."""
    return count * 2.0**-53 / (1.0 - count * 2.0**-53)


def _sum_with_bound(v: np.ndarray, sigma: float) -> tuple[float, float]:
    """``sum(v)`` and a bound on its rounding error, in whatever order numpy
    adds, given a power of two ``sigma >= (n + 2) max|v_k|``.  ``v`` is split
    exactly into high parts on the grid of ``u sigma``, whose sum is exact in
    any order, and low parts of at most ``u sigma`` each (ExtractVector in
    Rump, Ogita and Oishi, SISC 2008): only the low parts' sum and the final
    addition round."""
    part = v + sigma
    part -= sigma  # the high parts
    high = float(part.sum())
    total = high + float(np.subtract(v, part, out=part).sum())  # and the low
    return total, _gamma(1) * abs(total) + _gamma(v.size + 1) * v.size * 2.0**-53 * sigma


class DirectSolveRejected(ArithmeticError):
    """The direct inner solve cannot vouch for its answer; the message says
    why.  Callers fall back to LSQR."""


@dataclass(frozen=True)
class HybridIterate:
    """One corrected iterate with its inner-solve diagnostics.

    ``x_L`` is ``form``, or ``form()`` called on the first read.  ``fallback``
    is the reason an earlier link of the inner chain was rejected, when a later
    one produced this iterate in its place.  An exact link's ``error_terms``
    ``(Q, mu, mu^T y, r, scale >= |x_L|, sum_j |mu_j| delta_j, its |L^+|_2 lift)``,
    with ``r`` the bordered residual, are the k-space parts of ``x_L = W mu + t e``
    from which :class:`krylreg.metrics.Truth` measures its seminorm error.
    """

    form: np.ndarray | Callable[[], np.ndarray]
    inner_iterations: int
    inner_backward_error: float
    inner_cap_hit: bool
    fallback: str | None = None
    error_terms: tuple | None = None

    @cached_property
    def x_L(self) -> np.ndarray:
        return self.form() if callable(self.form) else self.form


class IdentitySolver:
    """The no-correction link ``x_L = x_k``: the plain methods' link for every ``L``.

    It is also the exact answer for ``L = I``: ``x_L`` minimizes ``|x|`` over
    ``x_k + null(Q^T)``.  A CGME or TCGME iterate is ``x_k = Q y`` for the very
    block ``Q`` its hybrid passes, so ``x_k`` is orthogonal to ``null(Q^T)`` and
    is the minimizer, whether or not ``Q`` has kept its orthogonality:
    ``z_k = 0`` with a zero backward error.
    """

    def solve(self, Q: np.ndarray, x_k: np.typing.ArrayLike) -> HybridIterate:
        return HybridIterate(np.asarray(x_k), 0, 0.0, False)


@dataclass(frozen=True)
class LsqrSolver:
    """The reference inner solve, and the last link of every chain:
    ``x_L = x_k - z`` with ``z`` the minimum-norm LSQR solution of
    ``min | L(I - QQ^T) z - L x_k |`` for an ``n x k`` block ``Q`` with
    orthonormal columns, stopped at backward error ``tol`` or at LSQR's
    default cap."""

    L: LinearOperator
    tol: float

    def solve(self, Q: np.ndarray, x_k: np.typing.ArrayLike) -> HybridIterate:
        report = lsqr_solve(self.L, self.L.apply(x_k), tol=self.tol, Q=Q)
        return HybridIterate(np.asarray(x_k) - report.solution, report.iterations, report.final_backward_error,
                             report.stop_reason == "max_iters")


class Difference2DSolver:
    """Exact corrected iterates ``x_L`` for one sweep with a first difference
    ``L`` (the 2-D stack here, the 1-D one in :class:`Difference1DSolver`).

    ``solve`` takes the sweep's growing orthonormal block ``Q``: each call
    must pass a block whose leading columns are the ones earlier calls
    passed (fewer columns than before reuse the leading part).  Only
    ``_set_up`` and ``_gram`` depend on which first difference ``L`` is.
    """

    def __init__(self, L: LinearOperator) -> None:
        self.L = L
        n = L.cols
        self.ones_norm = math.sqrt(n)  # |1|, as e = 1 / |1|
        self._pinv_norm = self._set_up()
        self._W = _ColumnBlock(n)
        self._row0 = np.empty(0)  # row 0 of the columns grown, to tell a block that extends them
        self._K = np.zeros((1, 1))  # [0 q0^T; q0 S], constant mode first
        self._delta = []  # |L^T L w_j - (q_j - e e^T q_j)| for each column of W
        self._wnorm = []  # |w_j| for each column of W
        self._q0_err_sq = [0.0]  # sum of the squared bounds on the rounding of the stored q0_j, j < m
        # for the q0_j sums: |q_kj| <= |q_j| < 2 once Q passed the orthonormality check
        self._sigma = 2.0 ** (math.ceil(math.log2(n + 2)) + 1)
        self._deficit = 0.0  # largest |Q^T Q - I| entry over the columns grown

    def _set_up(self) -> float:
        """Build what ``_gram`` reads, and return ``|L^+|_2``."""
        n = self.L.grid_side
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
        return 0.5 / np.sin(0.5 * np.pi / n)  # 1 / sqrt(lam_min) over the modes off the constants

    def _gram(self, v: np.ndarray) -> np.ndarray:
        # (L^T L)^+ v on the C-order view of the image, its transpose, so the
        # coefficients come out transposed; ``lam`` is symmetric
        image_t = v.reshape((self.L.grid_side, self.L.grid_side))
        coef = self._C @ image_t @ self._C.T
        coef *= self._inv_lam.reshape(coef.shape)
        return (self._C.T @ coef @ self._C).ravel()

    def _grow(self, Q: np.ndarray) -> None:
        # the LSQR path's orthonormality check on the new columns only:
        # O(nk) per step instead of O(nk^2); each new column is vouched for
        # by one L^T L product, the residual delta_j of G's defining identity;
        # a block whose row 0 is not that of the columns grown is refused
        if (Q[0, : self._W.count] != self._row0[: Q.shape[1]]).any():
            raise DirectSolveRejected("block does not extend the columns grown: row 0 differs")
        self._deficit = max(self._deficit, check_orthonormal(Q, first=self._W.count))
        self._row0 = np.append(self._row0, Q[0, self._W.count :])
        for j in range(self._W.count, Q.shape[1]):
            (total, total_err), w = _sum_with_bound(Q[:, j], self._sigma), self._gram(Q[:, j])
            q0_j = total / self.ones_norm
            self._W.append(w)
            self._wnorm.append(float(np.linalg.norm(w)))
            self._q0_err_sq.append(self._q0_err_sq[-1] + (total_err / self.ones_norm + _gamma(1) * abs(q0_j)) ** 2)
            K = np.empty((j + 2, j + 2))
            K[: j + 1, : j + 1] = self._K
            K[0, j + 1] = K[j + 1, 0] = q0_j
            K[1:, j + 1] = K[j + 1, 1:] = Q[:, : j + 1].T @ w
            self._K = K
            residual = self.L.apply_adjoint(self.L.apply(w)) - Q[:, j] + q0_j / self.ones_norm
            self._delta.append(float(np.linalg.norm(residual)))

    def _constraint_bound(self, sol: np.ndarray, y: np.ndarray) -> float:
        # |Q^T x_L - y| <= |S mu + t q0 - y| (stored S = Q^T W, q0 = Q^T e) + m max|Q^T Q - I| |y|
        # (as y is Q^T Q y) + gamma_{m+1} (sum_j |mu_j| |w_j| + |t|), the rounding of the sum
        # x_L = W mu + t e (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
        # + |t| |dq0| for the rounding of the stored q0 + gamma_{m+2} |(|K| |sol| + |y|)| for
        # that of evaluating the first term.  The stored S counts as exact.
        m = y.size
        K = self._K[1 : m + 1, : m + 1]
        evaluation = _gamma(m + 2) * np.linalg.norm(np.abs(K) @ np.abs(sol) + np.abs(y))
        return float(np.linalg.norm(K @ sol - y) + evaluation + m * self._deficit * np.linalg.norm(y)
                     + _gamma(m + 1) * (np.abs(sol[1:]) @ self._wnorm[:m] + abs(sol[0]))
                     + abs(sol[0]) * math.sqrt(self._q0_err_sq[m]))

    def solve(self, Q: np.ndarray, x_k) -> HybridIterate:
        """``argmin |L x|`` subject to ``Q^T x = Q^T x_k``, read as
        ``x_k.coeffs()``, with an upper bound on the backward error of
        ``z = x_k - x_L`` in LSQR's stop test, no inner iterations and no cap
        hit; no ``n x m`` pass, as ``x_L`` is formed on first read.

        Raises :class:`DirectSolveRejected` when the answer cannot be
        vouched for, and :class:`OrthonormalityError` when ``Q`` is not
        orthonormal (as the LSQR path would).
        """
        self._grow(Q)
        m = Q.shape[1]
        q0 = self._K[0, 1 : m + 1]
        if np.linalg.norm(q0) <= ZERO_MODE_TOL:
            raise DirectSolveRejected(f"constants numerically orthogonal to range(Q): "
                                      f"|Q^T 1|/sqrt(n) = {np.linalg.norm(q0):.3e}")
        y = x_k.coeffs()
        try:
            sol = np.linalg.solve(self._K[: m + 1, : m + 1], np.append(0.0, y))
        except np.linalg.LinAlgError as exc:
            raise DirectSolveRejected(f"bordered system singular: {exc}") from exc
        t, mu = sol[0], sol[1:]
        scale = float(np.abs(mu) @ self._wnorm[:m] + abs(t))  # >= |x_L|; finite iff sol and every |w_j| are
        if not np.isfinite(scale):
            raise DirectSolveRejected("non-finite direct solution")
        gap = self._constraint_bound(sol, y)
        if gap > ACCEPT_RTOL * float(np.linalg.norm(y)):
            raise DirectSolveRejected(f"constraint residual |Q^T x_L - Q^T x_k| = {gap:.3e} "
                                      f"above {ACCEPT_RTOL:g} relative")
        # With z = x_k - x_L the inner residual is L(I - QQ^T) z - L x_k =
        # -L x_L, and z solves a problem perturbed by E exactly, with |E|/|M|
        # the normal-equation backward error |P L^T L x_L| / (|M| |L x_L|),
        # P = I - QQ^T; the exact |L|_F stands in for |M| = |L P|_F, which
        # it bounds from above.  Both norms are taken in the k-space, from
        # L^T L x_L = Q mu - (q0^T mu) e + sum_j mu_j d_j, |d_j| = delta_j:
        # P Q mu = -Q (Q^T Q - I) mu, |P e|^2 <= 1 - (1 - eps) |q0|^2 with
        # eps = m max|Q^T Q - I| >= |Q^T Q - I|_2, and |L x_L|^2 = mu^T y
        # once the constraint holds (q0^T mu = 0 by the first bordered row).
        eps, dm, lx_sq = m * self._deficit, float(np.abs(mu) @ self._delta[:m]), float(mu @ y)
        bound = abs(q0 @ mu) * np.sqrt(max(1.0 - (1.0 - eps) * (q0 @ q0), 0.0)) + dm + eps * np.linalg.norm(mu)
        backward_error = 0.0
        if bound > 0.0:
            backward_error = bound / (np.sqrt(lx_sq) * self.L.frobenius_norm()) if lx_sq > 0.0 else np.inf
        if not backward_error <= ACCEPT_RTOL:
            raise DirectSolveRejected(f"backward error {backward_error:.3e} above {ACCEPT_RTOL:g}")
        r = self._K[: m + 1, : m + 1] @ sol - np.append(0.0, y)  # the bordered residual, for the error terms
        return HybridIterate(lambda: self._W.view(m) @ mu + t / self.ones_norm, 0, backward_error, False, None,
                             (Q, mu, lx_sq, r, scale, dm, dm * self._pinv_norm))


class Difference1DSolver(Difference2DSolver):
    """:class:`Difference2DSolver`'s exact link for the 1-D first difference,
    with ``(L^T L)^+`` as two cumulative sums; it answers one-column blocks
    only, returning None on a wider one, so that LSQR answers those."""

    def _set_up(self) -> float:
        return 0.5 / np.sin(0.5 * np.pi / self.L.cols)  # 1 / (2 sin(pi / 2n)), one over L's least singular value

    def _gram(self, v: np.ndarray) -> np.ndarray:
        # L^T L x = v - mean(v) with mean(x) = 0: L^T u = v - mean(v) has u the
        # partial sums of v - mean(v), and L x = u has x_{i+1} = x_i - u_i
        u = np.cumsum(v - v.mean())[:-1]
        x = -np.cumsum(np.append(0.0, u))
        return x - x.mean()

    def solve(self, Q: np.ndarray, x_k) -> HybridIterate | None:
        return super().solve(Q, x_k) if Q.shape[1] == 1 else None


def inner_solvers(L: LinearOperator, inner_tol: float) -> tuple:
    """Fresh inner solvers for one sweep's hybrids with regularizer ``L``, in the order they are tried: an exact
    solver when ``L`` has structure one exploits, then :class:`LsqrSolver` at ``inner_tol`` unless it never rejects.

    The last link never rejects: every chain ends in :class:`IdentitySolver`
    or :class:`LsqrSolver`, neither of which raises ``DirectSolveRejected``.
    The closing raise of :func:`corrected` guards this rule."""
    if isinstance(L, IdentityOperator):
        return (IdentitySolver(),)
    if isinstance(L, Stacked2DDifferenceOperator):
        return Difference2DSolver(L), LsqrSolver(L, inner_tol)
    if isinstance(L, FirstDifferenceOperator):
        return Difference1DSolver(L), LsqrSolver(L, inner_tol)
    return (LsqrSolver(L, inner_tol),)


def corrected(x_k: np.ndarray, Q: np.ndarray, chain) -> HybridIterate:
    """The answer of the first link of ``chain`` that vouches for it, with
    the reason the link before it was rejected as its ``fallback``.  A link that
    returns None does not answer blocks of ``Q``'s shape, and is passed over."""
    fallback = None
    for solver in chain:
        try:
            answer = solver.solve(Q, x_k)
        except DirectSolveRejected as exc:
            fallback = str(exc)
            continue
        if answer is not None:
            return answer if fallback is None else replace(answer, fallback=fallback)
    raise DirectSolveRejected(f"every inner solver rejected the step: {fallback}")
