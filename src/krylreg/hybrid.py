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

- ``L = I`` (``identity``) needs no inner solve at all.  Every Krylov
  iterate lies in range(Q), so ``x_k`` is already the minimum-norm point
  of ``Q^T x = Q^T x_k`` and the correction is exactly ``z_k = 0``: the
  hybrid iterate equals its plain method's, and ``inner_iterations``
  reads 0;
- the 2-D difference stack (``first_diff_2d``) takes the exact direct
  solve of :mod:`krylreg.dct_solve`, one per sweep and shared by both
  hybrids, which runs no inner iterations (``inner_iterations`` reads 0)
  and ignores the LSQR tolerance.  When it cannot vouch for its answer,
  the step falls back to LSQR and the sweep records the step and the
  reason in ``SweepResult.fallbacks``;
- every other ``L`` (``first_diff_1d``, dense operators) uses LSQR on
  ``L`` over the subspace ``null(Q^T)`` (:func:`lsqr_solve` with ``Q``),
  which applies ``L``, ``L^T`` and the projector once per iteration and
  never forms ``L (I - Q Q^T)``.  LSQR from the zero vector returns the
  minimum-norm solution, which the closed-form pseudo-inverse expression
  for ``x_{L,k}`` requires.  It is also the reference both exact paths are
  tested against, and the path :func:`hyb_cgme_step` and
  :func:`hyb_tcgme_step` take when no direct solver is passed.

:func:`run_hybrid` is the one outer loop: it bidiagonalizes a problem once
and sweeps every requested method over that state, so a (problem, noise
level) pair costs one Krylov process however many methods read it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .bidiag import BidiagState, GolubKahanBreakdown, bidiag_extend, bidiag_init
from .dct_solve import Difference2DSolver, DirectSolveRejected
from .lsqr import LsqrConfig, LsqrReport, lsqr_solve
from .metrics import relative_error
from .operators import (
    IdentityOperator,
    LinearOperator,
    OrthonormalityError,
    Stacked2DDifferenceOperator,
    _is_int,
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
    "IdentitySolver",
    "direct_solver",
    "hyb_cgme_step",
    "hyb_tcgme_step",
    "run_hybrid",
]

METHODS = ("cgme", "tcgme", "hyb_cgme", "hyb_tcgme")

Method = Literal["cgme", "tcgme", "hyb_cgme", "hyb_tcgme"]


@dataclass(frozen=True)
class HybridConfig:
    """Outer sweep controls: inner LSQR settings and outer depth."""

    inner: LsqrConfig = LsqrConfig()
    max_outer_k: int = 50

    def __post_init__(self) -> None:
        if not _is_int(self.max_outer_k) or self.max_outer_k < 1:
            raise ValueError(f"max_outer_k must be an integer >= 1, got {self.max_outer_k!r}")


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
    """Per-k record of one method's sweep: errors, inner work, timing, the
    steps whose direct inner solve fell back to LSQR, and why it stopped
    early (``breakdown``) or failed (``error``)."""

    method: Method
    ks: list[int] = field(default_factory=list)
    rel_errors: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    fallbacks: list[InnerFallback] = field(default_factory=list)
    breakdown: str | None = None
    error: str | None = None


def _inner_cap(cfg: LsqrConfig, L: LinearOperator, Q) -> LsqrConfig:
    # Exact termination needs at most n - k inner iterations; cap at twice
    # that for floating-point slack, on top of any user-provided cap.  The
    # default cap min(p, n) (n - 1 for first differences) is the lower one
    # until k passes about n / 2, so below that the slack never binds.
    n = L.cols
    k = Q.shape[1]
    cap = max(2 * (n - k), 1)
    current = cfg.max_iters if cfg.max_iters is not None else min(L.rows, n)
    return LsqrConfig(tol=cfg.tol, max_iters=min(current, cap))


def inner_solve(L: LinearOperator, Q, x_k, cfg: LsqrConfig) -> tuple[np.ndarray, LsqrReport]:
    """Minimum-norm solution of ``min | L(I - QQ^T) z - L x_k |`` for an
    ``n x k`` block ``Q`` with orthonormal columns."""
    report = lsqr_solve(L, L.apply(x_k), _inner_cap(cfg, L, Q), Q=Q)
    return report.solution, report


class IdentitySolver:
    """Exact corrected iterates for ``L = I``: ``x_L = x_k``.

    ``x_L`` minimizes ``|x|`` over the feasible set ``x_k + null(Q^T)``.
    A CGME or TCGME iterate is ``x_k = Q y`` for the very block ``Q`` its
    hybrid passes, so ``x_k`` is orthogonal to ``null(Q^T)`` and is the
    minimizer, whether or not ``Q`` has kept its orthogonality: ``z_k = 0``
    with a zero backward error.
    """

    def solve(self, Q: np.ndarray, x_k: np.ndarray) -> tuple[np.ndarray, float]:
        return x_k, 0.0


DirectSolver = Difference2DSolver | IdentitySolver


def direct_solver(L: LinearOperator) -> DirectSolver | None:
    """A fresh exact inner solver for one sweep with regularizer ``L``, or
    None when ``L`` has no structure it exploits (LSQR runs instead)."""
    if isinstance(L, IdentityOperator):
        return IdentitySolver()
    if isinstance(L, Stacked2DDifferenceOperator):
        return Difference2DSolver(L)
    return None


def _corrected(x_k: np.ndarray, k: int, method, Q, L, cfg: HybridConfig,
               direct: DirectSolver | None) -> HybridIterate:
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
                  direct: DirectSolver | None = None) -> HybridIterate:
    """hyb-CGME iterate ``x_k^{cgme} - z_k`` (uses ``Q_k``).

    ``direct`` is the sweep's :func:`direct_solver`; without one the
    inner problem goes to LSQR.
    """
    x_k = cgme_iterate(state, k)
    return _corrected(x_k, k, "hyb_cgme", state.Q_cols(k), L, cfg, direct)


def hyb_tcgme_step(state: BidiagState, L: LinearOperator, k: int, cfg: HybridConfig,
                   direct: DirectSolver | None = None) -> HybridIterate:
    """hyb-TCGME iterate ``x_k^{tcgme} - z_k`` (uses ``Q_{k+1}``); ``direct``
    as for :func:`hyb_cgme_step`."""
    x_k = tcgme_iterate(state, k)
    return _corrected(x_k, k, "hyb_tcgme", state.Q_cols(k + 1), L, cfg, direct)


def _needed(method: str, k: int) -> int:
    """Bidiagonalization steps ``method`` reads at outer index ``k``."""
    return k + 1 if method.endswith("tcgme") else k


def run_hybrid(problem: ProblemInstance, methods: Sequence[Method],
               cfg: HybridConfig) -> dict[str, SweepResult]:
    """Sweep outer iterations ``k = 1 .. max_outer_k`` of every method in
    ``methods`` over one shared bidiagonalization of ``problem``.

    At each ``k`` the state is extended to the largest step count an
    active method reads, each base iterate (CGME, TCGME) is computed once
    for its plain and its hybrid method, and each hybrid runs its inner
    solve; the hybrids share one :func:`direct_solver` when ``L`` allows
    it.  Relative errors are the L-seminorm errors against ``x_true``.

    Every method's result is the one it gets when swept alone.  A Krylov
    breakdown is recorded, with its original message, on the methods that
    read the step where it occurred, and ends each sweep once the state
    falls short of that method; a lost basis orthogonality stops only the
    method that found it, and any other exception is recorded in that
    method's ``error``.  Each row's ``wall_ms`` charges its own iterate and
    inner solve plus the Krylov columns the method newly reads at ``k``.
    """
    if not methods or any(m not in METHODS for m in methods):
        raise ValueError(f"methods must be a non-empty sequence of names from {METHODS}, got {methods!r}")
    results = {m: SweepResult(method=m) for m in methods}
    try:
        state = bidiag_init(problem.A, problem.b)
    except GolubKahanBreakdown as exc:
        for result in results.values():
            result.breakdown = str(exc)
        return results
    direct = direct_solver(problem.L) if any(m.startswith("hyb_") for m in methods) else None
    column_ms: list[float] = []  # time to build Krylov column j, at j - 1
    failure: GolubKahanBreakdown | None = None
    active = list(results)
    for k in range(1, cfg.max_outer_k + 1):
        target = max(_needed(m, k) for m in active)
        while state.k < target and failure is None:
            t0 = time.perf_counter()
            try:
                bidiag_extend(state, problem.A, 1)
            except GolubKahanBreakdown as exc:
                # without its traceback, which would tie this frame (the
                # problem, the state) into a cycle only the garbage
                # collector frees
                failure = exc.with_traceback(None)
            column_ms.append((time.perf_counter() - t0) * 1e3)
        bases: dict[str, tuple[np.ndarray, float]] = {}
        for method in tuple(active):
            result = results[method]
            needed = _needed(method, k)
            if failure is not None and failure.step <= needed and result.breakdown is None:
                # the method's own sweep would have run into it at this k
                result.breakdown = str(failure)
            if state.k < needed:
                # a beta-side breakdown still completes its step, so the
                # iterate may exist; stop once the state truly falls short
                active.remove(method)
                continue
            wall = sum(column_ms[_needed(method, k - 1) if k > 1 else 0 : needed])
            base = method.removeprefix("hyb_")
            try:
                if base not in bases:
                    t0 = time.perf_counter()
                    iterate = cgme_iterate if base == "cgme" else tcgme_iterate
                    x = iterate(state, k)
                    bases[base] = (x, (time.perf_counter() - t0) * 1e3)
                x, base_ms = bases[base]
                wall += base_ms
                inner_iters = 0
                if method != base:
                    t0 = time.perf_counter()
                    hybrid = _corrected(x, k, method, state.Q_cols(needed), problem.L, cfg, direct)
                    wall += (time.perf_counter() - t0) * 1e3
                    x = hybrid.x_L
                    inner_iters = hybrid.inner_iterations
                    if hybrid.fallback is not None:
                        result.fallbacks.append(InnerFallback(k=k, reason=hybrid.fallback))
                rel_error = relative_error(problem.L, x, problem.x_true)
            except OrthonormalityError as exc:
                # a basis that drifted past the projector tolerance (the
                # reorthogonalization failed to hold it) stops this sweep
                result.breakdown = f"basis orthogonality lost at k={k}: {exc}"
                active.remove(method)
                continue
            except Exception as exc:  # a failure stays in its own method
                result.error = f"{type(exc).__name__}: {exc}"
                active.remove(method)
                continue
            result.ks.append(k)
            result.rel_errors.append(rel_error)
            result.inner_iterations.append(inner_iters)
            result.wall_ms.append(wall)
        if not active:
            break
    return results
