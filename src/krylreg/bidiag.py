"""Golub-Kahan bidiagonalization with incremental extension.

Starting from ``p_1 = b / |b|``, each step computes

    r = A^T p_j - beta_j q_{j-1},   alpha_j = |r|,  q_j = r / alpha_j
    s = A q_j  - alpha_j p_j,       beta_{j+1} = |s|,  p_{j+1} = s / beta_{j+1}

accumulating orthonormal column blocks P (left) and Q (right) together
with the lower-bidiagonal coefficients, whose dense blocks :func:`bidiagonal`
assembles.  On ill-posed problems the raw recurrence loses orthogonality
catastrophically, so every new column is reorthogonalized against all
previous ones by classical Gram-Schmidt, with a second pass only when the
first one cancels (the Daniel-Gragg-Kaufman-Stewart criterion).

A coefficient falling below ``1e-14 * |A|_F`` signals that the Krylov
subspace is numerically exhausted (exact termination); extension then
raises :class:`GolubKahanBreakdown` after recording all completed steps.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import LinearOperator, _as_vector, _is_int

__all__ = [
    "GolubKahanBreakdown",
    "BidiagState",
    "bidiag_init",
    "bidiag_extend",
    "bidiagonal",
]

BREAKDOWN_SCALE = 1e-14
# Daniel, Gragg, Kaufman & Stewart (Math. Comp. 30, 1976): a Gram-Schmidt
# pass that keeps at least this fraction of its input's norm leaves the
# result orthogonal to working precision; one that cancels more is repeated.
REORTH_KEEP = 1 / math.sqrt(2)


class GolubKahanBreakdown(RuntimeError):
    """Krylov subspace exhausted: a recurrence coefficient vanished.

    ``step`` is the 1-based step at which the breakdown occurred;
    completed steps remain valid on the state.  A breakdown raised by
    :meth:`at_coefficient` also carries ``coefficient`` (``"alpha"`` or
    ``"beta"``), its ``value`` and the ``threshold`` it fell below; the
    others leave these ``None``.
    """

    def __init__(self, step: int, message: str, coefficient: str | None = None,
                 value: float | None = None, threshold: float | None = None):
        self.step = step
        self.coefficient, self.value, self.threshold = coefficient, value, threshold
        super().__init__(message)

    @classmethod
    def at_coefficient(cls, step: int, coefficient: str, value: float,
                       threshold: float) -> "GolubKahanBreakdown":
        index = step + 1 if coefficient == "beta" else step
        return cls(
            step,
            f"{coefficient}_{index} = {value:.3e} below breakdown "
            f"threshold {threshold:.3e} at step {step}",
            coefficient, value, threshold,
        )


class _ColumnBlock:
    """Growable matrix of columns with amortized O(1) appends, stored
    column-major so that every leading block of columns is F-contiguous."""

    __slots__ = ("_buf", "count")

    def __init__(self, dim: int):
        self._buf = np.empty((dim, 32), order="F")
        self.count = 0

    def append(self, col: np.ndarray) -> None:
        if self.count == self._buf.shape[1]:
            grown = np.empty((self._buf.shape[0], 2 * self._buf.shape[1]), order="F")
            grown[:, : self.count] = self._buf
            self._buf = grown
        self._buf[:, self.count] = col
        self.count += 1

    def view(self, count: int | None = None) -> np.ndarray:
        if count is None:
            count = self.count
        elif count < 0:
            raise ValueError(f"column count must be non-negative, got {count}")
        elif count > self.count:
            raise ValueError(f"asked for {count} columns, only {self.count} stored")
        return self._buf[:, :count]

    def last(self) -> np.ndarray:
        return self._buf[:, self.count - 1]


class BidiagState:
    """Accumulated state of the bidiagonalization of ``A`` from ``b``.

    After ``k`` completed steps, ``P`` is ``m x (k+1)``, ``Q`` is
    ``n x k``, ``alphas`` holds ``alpha_1..alpha_k`` and ``betas`` holds
    ``beta_1..beta_{k+1}`` with ``beta_1 = |b|``.  A beta-side breakdown
    leaves ``P`` at ``m x k`` (the next left vector is not normalizable).
    ``P``, ``Q`` and their leading blocks are F-contiguous views; they and
    the coefficient lists are the recurrence's own storage (do not mutate).

    ``A`` is kept for :func:`bidiag_extend`, the single writer; reads are
    safe once an extension has returned.  ``cgme_coeffs``, ``cgme_last`` and
    ``tcgme_last`` (with ``B_{k+1}``'s singular values) are :mod:`krylreg.solvers`'
    memos: completed steps never change, so they stay valid as the state grows.
    """

    def __init__(self, A: LinearOperator, p_block: _ColumnBlock, q_block: _ColumnBlock,
                 alphas: list[float], betas: list[float], breakdown_tol: float):
        self.A = A
        self._p = p_block
        self._q = q_block
        self.alphas = alphas
        self.betas = betas
        self.breakdown_tol = breakdown_tol
        self.breakdown_step: int | None = None
        self.cgme_coeffs: list[float] = []
        self.cgme_last: tuple[int, np.ndarray | None] = (0, None)
        self.tcgme_last: tuple[int, np.ndarray | None, np.ndarray | None] = (0, None, None)

    @property
    def k(self) -> int:
        """Number of completed bidiagonalization steps."""
        return len(self.alphas)

    @property
    def P(self) -> np.ndarray:
        """Left orthonormal block (view; do not mutate)."""
        return self._p.view()

    @property
    def Q(self) -> np.ndarray:
        """Right orthonormal block (view; do not mutate)."""
        return self._q.view()

    def P_cols(self, count: int) -> np.ndarray:
        return self._p.view(count)

    def Q_cols(self, count: int) -> np.ndarray:
        return self._q.view(count)

    @property
    def beta1(self) -> float:
        return self.betas[0]

    def __repr__(self) -> str:
        bd = f", breakdown at {self.breakdown_step}" if self.breakdown_step else ""
        return f"BidiagState(k={self.k}{bd})"


def bidiag_init(A: LinearOperator, b) -> BidiagState:
    """Set up the process with ``p_1 = b / |b|`` and no completed steps."""
    b = _as_vector(b, A.rows, "right-hand side")
    beta1 = float(np.linalg.norm(b))
    if not np.isfinite(beta1):
        raise ValueError("right-hand side must be finite")
    if beta1 == 0.0:
        raise GolubKahanBreakdown(0, "zero right-hand side")
    p = _ColumnBlock(A.rows)
    p.append(b / beta1)
    q = _ColumnBlock(A.cols)
    tol = BREAKDOWN_SCALE * A.frobenius_norm()
    return BidiagState(A, p, q, [], [beta1], tol)


def _reorthogonalize(r: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, float]:
    """Project ``r`` (overwritten) off the orthonormal columns of ``block``
    and return it with its norm.  One classical Gram-Schmidt pass, and a
    second only when the first keeps less than ``REORTH_KEEP`` of ``|r|``:
    "twice is enough" when the new direction is not pure noise."""
    h = block.T @ r
    r -= block @ h
    norm = float(np.linalg.norm(r))
    # |r_0|^2 = |h|^2 + |r_1|^2 for orthonormal columns: no norm of r_0
    if norm < REORTH_KEEP * math.hypot(math.sqrt(h @ h), norm):
        r -= block @ (block.T @ r)
        norm = float(np.linalg.norm(r))
    return r, norm


def bidiag_extend(state: BidiagState, steps: int) -> BidiagState:
    """Advance the process on ``state.A`` by ``steps`` steps, mutating ``state``.

    Raises :class:`GolubKahanBreakdown` on exact termination; completed
    steps remain available on the state.  ``steps`` is an integer >= 0.
    """
    if not _is_int(steps) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    if state.breakdown_step is not None:
        raise GolubKahanBreakdown(
            state.breakdown_step,
            f"cannot extend past breakdown at step {state.breakdown_step}",
        )
    for _ in range(steps):
        j = state.k + 1
        r = state.A.apply_adjoint(state._p.last())
        if j >= 2:
            r -= state.betas[j - 1] * state._q.last()
        r, alpha = _reorthogonalize(r, state._q.view())
        if alpha <= state.breakdown_tol:
            state.breakdown_step = j
            raise GolubKahanBreakdown.at_coefficient(j, "alpha", alpha, state.breakdown_tol)
        qj = r / alpha
        state._q.append(qj)
        state.alphas.append(alpha)
        s = state.A.apply(qj) - alpha * state._p.last()
        s, beta = _reorthogonalize(s, state._p.view())
        state.betas.append(beta)
        if beta <= state.breakdown_tol:
            state.breakdown_step = j
            raise GolubKahanBreakdown.at_coefficient(j, "beta", beta, state.breakdown_tol)
        state._p.append(s / beta)
    return state


def bidiagonal(state: BidiagState, rows: int, cols: int) -> np.ndarray:
    """Leading ``rows x cols`` block of the lower-bidiagonal matrix with
    diagonal ``alpha_1, alpha_2, ...`` and subdiagonal ``beta_2, beta_3, ...``:
    ``B_k`` at ``(k, k)``, ``B_{k+1,k}`` (``B_k`` over the row ``beta_{k+1} e_k^T``)
    at ``(k + 1, k)`` and ``B_{k+1}`` at ``(k + 1, k + 1)``.  Raises ``ValueError``
    for other shapes, for ``k < 1`` and when the state lacks a coefficient."""
    if cols < 1 or rows not in (cols, cols + 1):
        raise ValueError(f"expected a k x k or (k+1) x k block with k >= 1, got {rows} x {cols}")
    if cols > state.k:
        raise ValueError(f"a {rows} x {cols} block needs {cols} bidiagonalization steps, have {state.k}")
    B = np.zeros((rows, cols))
    np.fill_diagonal(B, state.alphas[:cols])
    np.fill_diagonal(B[1:], state.betas[1:rows])
    return B
