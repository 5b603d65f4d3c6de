"""Inner-outer hybrid solvers hyb-CGME and hyb-TCGME.

At outer index k the Krylov iterate ``x_k`` (from CGME or TCGME) is
corrected by

    x_{L,k} = x_k - z_k,
    z_k = argmin-norm  min_z | L (I - Q Q^T) z - L x_k |,

with ``Q`` the right bidiagonalization block (k columns for CGME, k+1
for TCGME).  The correction ``z_k`` lies in the orthogonal complement of
range(Q), so the projected data-fit constraint is untouched while the
seminorm ``|L x|`` is minimized over the feasible set: this is exactly
the general-form regularized solution of the projected problem.

How the inner problem is solved follows from the type of ``L``:

- the 2-D difference stack (``first_diff_2d``) takes the exact direct
  solve of :mod:`krylreg.dct_solve`, one per sweep, which runs no inner
  iterations (``inner_iterations`` reads 0) and ignores the LSQR
  tolerance.  When it cannot vouch for its answer, the step falls back
  to LSQR and the sweep records the step and the reason in
  ``SweepResult.fallbacks``;
- every other ``L`` (``first_diff_1d``, ``identity``, dense operators)
  uses LSQR over a :class:`ProjectedOperator`, which applies
  ``L (I - Q Q^T)`` without ever forming it.  LSQR from the zero vector
  returns the minimum-norm solution, which the closed-form
  pseudo-inverse expression for ``x_{L,k}`` requires.  It is also the
  reference the direct solve is tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .bidiag import BidiagState, GolubKahanBreakdown, bidiag_extend, bidiag_init
from .dct_solve import Difference2DSolver, DirectSolveRejected
from .lsqr import LsqrConfig, LsqrReport, lsqr_solve
from .metrics import relative_error
from .operators import (
    LinearOperator,
    OrthonormalityError,
    ProjectedOperator,
    Stacked2DDifferenceOperator,
)
from .problems import ProblemInstance
from .solvers import cgme_iterate, tcgme_iterate

__all__ = [
    "HybridConfig",
    "HybridIterate",
    "InnerFallback",
    "SweepResult",
    "METHODS",
    "inner_solve",
    "direct_solver",
    "hyb_cgme_step",
    "hyb_tcgme_step",
    "run_hybrid",
]

METHODS = ("cgme", "tcgme", "hyb_cgme", "hyb_tcgme")

Method = Literal["cgme", "tcgme", "hyb_cgme", "hyb_tcgme"]


@dataclass(frozen=True)
class HybridConfig:
    """Outer sweep controls: inner LSQR settings, outer depth, and the
    reorthogonalization policy handed to the bidiagonalization."""

    inner: LsqrConfig = LsqrConfig()
    max_outer_k: int = 50
    reorth: str = "full"

    def __post_init__(self) -> None:
        if self.max_outer_k < 1:
            raise ValueError("max_outer_k must be >= 1")


@dataclass(frozen=True)
class HybridIterate:
    """One corrected iterate with its inner-solve diagnostics.

    ``fallback`` is the reason the direct inner solve was rejected, when
    LSQR produced this iterate in its place.
    """

    x_L: np.ndarray
    k: int
    method: Literal["hyb_cgme", "hyb_tcgme"]
    inner_iterations: int
    inner_backward_error: float
    inner_cap_hit: bool
    fallback: str | None = None


@dataclass(frozen=True)
class InnerFallback:
    """An outer step whose direct inner solve fell back to LSQR, and why."""

    k: int
    reason: str


@dataclass
class SweepResult:
    """Per-k record of one solver run: iterates, errors, inner work, timing,
    and the steps whose direct inner solve fell back to LSQR."""

    method: Method
    ks: list[int] = field(default_factory=list)
    rel_errors: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    solutions: list[np.ndarray] = field(default_factory=list)
    fallbacks: list[InnerFallback] = field(default_factory=list)
    breakdown: str | None = None


def _inner_cap(cfg: LsqrConfig, op: ProjectedOperator) -> LsqrConfig:
    # Exact termination needs at most n - k inner iterations; cap at twice
    # that for floating-point slack, on top of any user-provided cap.
    n = op.cols
    k = op.Q.shape[1]
    cap = max(2 * (n - k), 1)
    current = cfg.max_iters if cfg.max_iters is not None else min(op.rows, n)
    return LsqrConfig(tol=cfg.tol, max_iters=min(current, cap), atol_rhs=cfg.atol_rhs)


def inner_solve(L: LinearOperator, Q, x_k, cfg: LsqrConfig) -> tuple[np.ndarray, LsqrReport]:
    """Minimum-norm solution of ``min | L(I - QQ^T) z - L x_k |``."""
    op = ProjectedOperator(L, Q)
    rhs = L.apply(x_k)
    report = lsqr_solve(op, rhs, _inner_cap(cfg, op))
    return report.solution, report


def direct_solver(L: LinearOperator) -> Difference2DSolver | None:
    """A fresh direct inner solver for one sweep with regularizer ``L``, or
    None when ``L`` has no structure it exploits (LSQR runs instead)."""
    if isinstance(L, Stacked2DDifferenceOperator):
        return Difference2DSolver(L)
    return None


def _corrected(x_k: np.ndarray, k: int, method, Q, L, cfg: HybridConfig,
               direct: Difference2DSolver | None) -> HybridIterate:
    fallback = None
    if direct is not None:
        try:
            x_L, backward_error = direct.solve(Q, x_k)
        except DirectSolveRejected as exc:
            fallback = str(exc)
        else:
            return HybridIterate(
                x_L=x_L, k=k, method=method, inner_iterations=0,
                inner_backward_error=backward_error, inner_cap_hit=False,
            )
    z, report = inner_solve(L, Q, x_k, cfg.inner)
    return HybridIterate(
        x_L=x_k - z,
        k=k,
        method=method,
        inner_iterations=report.iterations,
        inner_backward_error=report.final_backward_error,
        inner_cap_hit=report.stop_reason == "max_iters",
        fallback=fallback,
    )


def hyb_cgme_step(state: BidiagState, L: LinearOperator, k: int, cfg: HybridConfig,
                  direct: Difference2DSolver | None = None) -> HybridIterate:
    """hyb-CGME iterate ``x_k^{cgme} - z_k`` (uses ``Q_k``).

    ``direct`` is the sweep's :func:`direct_solver`; without one the
    inner problem goes to LSQR.
    """
    x_k = cgme_iterate(state, k).x
    return _corrected(x_k, k, "hyb_cgme", state.Q_cols(k), L, cfg, direct)


def hyb_tcgme_step(state: BidiagState, L: LinearOperator, k: int, cfg: HybridConfig,
                   direct: Difference2DSolver | None = None) -> HybridIterate:
    """hyb-TCGME iterate ``x_k^{tcgme} - z_k`` (uses ``Q_{k+1}``); ``direct``
    as for :func:`hyb_cgme_step`."""
    x_k = tcgme_iterate(state, k).x
    return _corrected(x_k, k, "hyb_tcgme", state.Q_cols(k + 1), L, cfg, direct)


def run_hybrid(problem: ProblemInstance, method: Method, cfg: HybridConfig) -> SweepResult:
    """Sweep outer iterations ``k = 1 .. max_outer_k`` on one problem.

    The bidiagonalization is extended incrementally; a Krylov breakdown
    truncates the sweep with the reason recorded.  Relative errors are
    the L-seminorm errors against ``x_true``.  Hybrid methods get one
    :func:`direct_solver` for the whole sweep when ``L`` allows it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    result = SweepResult(method=method)
    try:
        state = bidiag_init(problem.A, problem.b, reorth=cfg.reorth)
    except GolubKahanBreakdown as exc:
        result.breakdown = str(exc)
        return result
    needs_extra = method in ("tcgme", "hyb_tcgme")
    direct = direct_solver(problem.L) if method.startswith("hyb_") else None
    for k in range(1, cfg.max_outer_k + 1):
        t0 = time.perf_counter()
        needed = k + 1 if needs_extra else k
        if state.k < needed and result.breakdown is None:
            try:
                bidiag_extend(state, problem.A, needed - state.k)
            except GolubKahanBreakdown as exc:
                result.breakdown = str(exc)
        if state.k < needed:
            # a beta-side breakdown still completes step k, so the k-th
            # iterate may exist; stop once the state truly falls short
            break
        inner_iters = 0
        if method == "cgme":
            x = cgme_iterate(state, k).x
        elif method == "tcgme":
            x = tcgme_iterate(state, k).x
        else:
            step = hyb_cgme_step if method == "hyb_cgme" else hyb_tcgme_step
            try:
                iterate = step(state, problem.L, k, cfg, direct)
            except OrthonormalityError as exc:
                # without reorthogonalization the basis can drift past the
                # projector tolerance; stop the sweep with the reason
                result.breakdown = f"basis orthogonality lost at k={k}: {exc}"
                break
            x = iterate.x_L
            inner_iters = iterate.inner_iterations
            if iterate.fallback is not None:
                result.fallbacks.append(InnerFallback(k=k, reason=iterate.fallback))
        wall = (time.perf_counter() - t0) * 1e3
        result.ks.append(k)
        result.rel_errors.append(relative_error(problem.L, x, problem.x_true))
        result.inner_iterations.append(inner_iters)
        result.wall_ms.append(wall)
        result.solutions.append(x)
    return result
