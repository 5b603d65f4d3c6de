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

Every sweep tries one ordered chain of inner solvers, :func:`inner_solvers`,
chosen by the type of ``L``.  Each link's ``solve(Q, x_k)`` returns ``x_L``,
its backward error, its inner iterations and whether it hit its cap; a link
that cannot vouch for its answer raises ``DirectSolveRejected``, and the
step falls to the next link and records why in ``RunRecord.fallbacks``.

- ``L = I`` starts with :class:`IdentitySolver`: every Krylov iterate lies
  in range(Q), so ``x_k`` is already the minimum-norm point of
  ``Q^T x = Q^T x_k`` and the hybrid iterate is its plain method's;
- ``first_diff_2d`` starts with the exact direct solve of
  :mod:`krylreg.dct_solve`, one per sweep and shared by both hybrids;
  like the identity link it runs no inner iterations and ignores the
  LSQR tolerance;
- every chain ends in :class:`LsqrSolver`, LSQR on ``L`` over ``null(Q^T)``
  (:func:`lsqr_solve` with ``Q``), which applies ``L``, ``L^T`` and the
  projector once per iteration and never forms ``L (I - Q Q^T)``.  From
  the zero vector it returns the minimum-norm solution that the
  closed-form expression for ``x_{L,k}`` requires.  It is the whole chain
  for any other ``L``, the reference the exact links are tested against,
  and the solver of :func:`hyb_cgme_step` and :func:`hyb_tcgme_step`.

:func:`run_hybrid` is the one outer loop: it bidiagonalizes a problem once
and sweeps every requested method over that state, so a (problem, noise
level) pair costs one Krylov process however many methods read it, and
returns each method's finished :class:`RunRecord`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .bidiag import BidiagState, GolubKahanBreakdown, bidiag_extend, bidiag_init
from .dct_solve import Difference2DSolver, DirectSolveRejected
from .lsqr import LsqrConfig, lsqr_solve
from .metrics import analyze_curve, relative_error
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
    "RunRow",
    "RunRecord",
    "METHODS",
    "IdentitySolver",
    "LsqrSolver",
    "inner_solvers",
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

    ``fallback`` is the reason an earlier link of the inner chain was
    rejected, when a later one produced this iterate in its place.
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


@dataclass(frozen=True)
class RunRow:
    """One outer step.  ``wall_ms`` is what the step costs its method alone
    (see :func:`run_hybrid`), not the shared sweep's time."""

    k: int
    rel_error: float
    inner_iterations: int
    wall_ms: float


@dataclass
class RunRecord:
    """One (method, epsilon) run: the problem's name, size, noise level and
    seed, per-k rows, bests, the outer steps whose direct inner solve fell
    back to LSQR, and why the sweep stopped early (``breakdown``) or failed
    (``error``).  ``total_wall_ms`` is the sum of the rows' ``wall_ms``."""

    method: str
    problem: str
    size: int
    epsilon: float
    seed: int
    rows: list[RunRow] = field(default_factory=list)
    best_k: int | None = None
    best_error: float | None = None
    total_wall_ms: float = 0.0
    breakdown: str | None = None
    error: str | None = None
    fallbacks: list[InnerFallback] = field(default_factory=list)


class IdentitySolver:
    """Exact corrected iterates for ``L = I``: ``x_L = x_k``.

    ``x_L`` minimizes ``|x|`` over the feasible set ``x_k + null(Q^T)``.
    A CGME or TCGME iterate is ``x_k = Q y`` for the very block ``Q`` its
    hybrid passes, so ``x_k`` is orthogonal to ``null(Q^T)`` and is the
    minimizer, whether or not ``Q`` has kept its orthogonality: ``z_k = 0``
    with a zero backward error.
    """

    def solve(self, Q: np.ndarray, x_k: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
        return x_k, 0.0, 0, False


@dataclass(frozen=True)
class LsqrSolver:
    """The reference inner solve, and the last link of every chain:
    ``x_L = x_k - z`` with ``z`` the minimum-norm LSQR solution of
    ``min | L(I - QQ^T) z - L x_k |`` for an ``n x k`` block ``Q`` with
    orthonormal columns."""

    L: LinearOperator
    cfg: LsqrConfig

    def solve(self, Q: np.ndarray, x_k: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
        # Exact termination needs at most n - k inner iterations; cap at twice
        # that for floating-point slack, on top of any user-provided cap.  The
        # default cap min(p, n) (n - 1 for first differences) is the lower one
        # until k passes about n / 2, so below that the slack never binds.
        n = self.L.cols
        current = self.cfg.max_iters if self.cfg.max_iters is not None else min(self.L.rows, n)
        cfg = LsqrConfig(tol=self.cfg.tol, max_iters=min(current, max(2 * (n - Q.shape[1]), 1)))
        report = lsqr_solve(self.L, self.L.apply(x_k), cfg, Q=Q)
        return (x_k - report.solution, report.final_backward_error, report.iterations,
                report.stop_reason == "max_iters")


def inner_solvers(L: LinearOperator, cfg: LsqrConfig) -> tuple:
    """Fresh inner solvers for one sweep with regularizer ``L``, in the
    order they are tried: an exact solver when ``L`` has structure one
    exploits, then always :class:`LsqrSolver` with ``cfg``."""
    if isinstance(L, IdentityOperator):
        return IdentitySolver(), LsqrSolver(L, cfg)
    if isinstance(L, Stacked2DDifferenceOperator):
        return Difference2DSolver(L), LsqrSolver(L, cfg)
    return (LsqrSolver(L, cfg),)


def _corrected(x_k: np.ndarray, k: int, method, Q, chain) -> HybridIterate:
    fallback = None
    for solver in chain:
        try:
            x_L, backward_error, iterations, cap_hit = solver.solve(Q, x_k)
            return HybridIterate(
                x_L=x_L, k=k, method=method, inner_iterations=iterations,
                inner_backward_error=backward_error, inner_cap_hit=cap_hit, fallback=fallback,
            )
        except DirectSolveRejected as exc:
            fallback = str(exc)
    raise DirectSolveRejected(f"every inner solver rejected the step: {fallback}")


def hyb_cgme_step(state: BidiagState, L: LinearOperator, k: int, cfg: HybridConfig) -> HybridIterate:
    """hyb-CGME iterate ``x_k^{cgme} - z_k`` (uses ``Q_k``), with the inner
    problem solved by the reference :class:`LsqrSolver`."""
    x_k = cgme_iterate(state, k)
    return _corrected(x_k, k, "hyb_cgme", state.Q_cols(k), (LsqrSolver(L, cfg.inner),))


def hyb_tcgme_step(state: BidiagState, L: LinearOperator, k: int, cfg: HybridConfig) -> HybridIterate:
    """hyb-TCGME iterate ``x_k^{tcgme} - z_k`` (uses ``Q_{k+1}``), with the
    inner problem solved as in :func:`hyb_cgme_step`."""
    x_k = tcgme_iterate(state, k)
    return _corrected(x_k, k, "hyb_tcgme", state.Q_cols(k + 1), (LsqrSolver(L, cfg.inner),))


def _needed(method: str, k: int) -> int:
    """Bidiagonalization steps ``method`` reads at outer index ``k``."""
    return k + 1 if method.endswith("tcgme") else k


def run_hybrid(problem: ProblemInstance, methods: Sequence[Method],
               cfg: HybridConfig) -> dict[str, RunRecord]:
    """Sweep outer iterations ``k = 1 .. max_outer_k`` of every method in
    ``methods`` (distinct names) over one shared bidiagonalization of
    ``problem``, and return each method's :class:`RunRecord`.

    At each ``k`` the state is extended to the largest step count an
    active method reads, each base iterate (CGME, TCGME) is computed once
    for its plain and its hybrid method, and each hybrid runs its inner
    solve through the sweep's one :func:`inner_solvers` chain.  Relative
    errors are the L-seminorm errors against ``x_true``; ``best_k`` and
    ``best_error`` are :func:`analyze_curve`'s.

    Every method's result is the one it gets when swept alone.  A Krylov
    breakdown is recorded, with its original message, on the methods that
    read the step where it occurred, and ends each sweep once the state
    falls short of that method; a lost basis orthogonality stops only the
    method that found it.  Any other exception is recorded in that method's
    ``error`` and leaves it no rows, breakdown or fallbacks; a non-finite
    error curve keeps its rows and sets ``error``.  Each row's ``wall_ms``
    charges its own iterate and inner solve plus the Krylov columns the
    method newly reads at ``k``.
    """
    if not methods or any(m not in METHODS for m in methods) or len(set(methods)) != len(methods):
        raise ValueError(f"methods must be a non-empty sequence of distinct names from {METHODS}, "
                         f"got {methods!r}")
    records = {m: RunRecord(method=m, problem=problem.name, size=problem.size,
                            epsilon=problem.epsilon, seed=problem.seed) for m in methods}
    try:
        state = bidiag_init(problem.A, problem.b)
    except GolubKahanBreakdown as exc:
        for record in records.values():
            record.breakdown = str(exc)
        return records
    chain = inner_solvers(problem.L, cfg.inner)
    column_ms: list[float] = []  # time to build Krylov column j, at j - 1
    failure: GolubKahanBreakdown | None = None
    active = list(records)
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
            record = records[method]
            needed = _needed(method, k)
            if failure is not None and failure.step <= needed and record.breakdown is None:
                # the method's own sweep would have run into it at this k
                record.breakdown = str(failure)
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
                    hybrid = _corrected(x, k, method, state.Q_cols(needed), chain)
                    wall += (time.perf_counter() - t0) * 1e3
                    x = hybrid.x_L
                    inner_iters = hybrid.inner_iterations
                    if hybrid.fallback is not None:
                        record.fallbacks.append(InnerFallback(k=k, reason=hybrid.fallback))
                rel_error = relative_error(problem.L, x, problem.x_true)
            except OrthonormalityError as exc:
                # a basis that drifted past the projector tolerance (the
                # reorthogonalization failed to hold it) stops this sweep
                record.breakdown = f"basis orthogonality lost at k={k}: {exc}"
                active.remove(method)
                continue
            except Exception as exc:  # a failure stays in its own method
                record.error = f"{type(exc).__name__}: {exc}"
                active.remove(method)
                continue
            record.rows.append(RunRow(k=k, rel_error=rel_error, inner_iterations=inner_iters, wall_ms=wall))
        if not active:
            break
    for record in records.values():
        if record.error is not None:
            record.rows, record.breakdown, record.fallbacks = [], None, []
            continue
        record.total_wall_ms = sum(row.wall_ms for row in record.rows)
        if record.rows:
            try:
                curve = analyze_curve([r.rel_error for r in record.rows], ks=[r.k for r in record.rows])
            except ValueError as exc:
                record.error = f"ValueError: {exc}"
                continue
            record.best_k, record.best_error = curve.best_k, curve.best_error
    return records
