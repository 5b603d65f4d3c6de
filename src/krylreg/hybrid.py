"""The outer loop of the inner-outer hybrid solvers hyb-CGME and hyb-TCGME.

At outer index k a hybrid takes its plain method's Krylov iterate ``x_k``
(CGME or TCGME) and corrects it by the inner solve of :mod:`krylreg.inner`,
which states the inner problem and holds every way of solving it.

:func:`run_hybrid` is the one outer loop: it bidiagonalizes a problem once
and sweeps every requested method over that state, so a (problem, noise
level) pair costs one Krylov process however many methods read it, and
returns each method's finished :class:`RunRecord`.  Its two settings, the
outer depth and the inner LSQR tolerance, are plain arguments.  Each row
walks one chain of inner links (a plain method's holds the no-correction
link), and ``RunRecord.fallbacks`` keeps why a link was passed over.
:func:`hyb_cgme_step` and :func:`hyb_tcgme_step` are the reference steps,
with the inner problem solved by LSQR alone.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field
from typing import Sequence

import numpy as np

from .bidiag import BidiagState, GolubKahanBreakdown, bidiag_extend, bidiag_init
from .inner import HybridIterate, IdentitySolver, LsqrSolver, corrected, inner_solvers
from .metrics import Truth, analyze_curve, relative_error
from .operators import LinearOperator, OrthonormalityError, _is_int, _is_real
from .problems import ProblemInstance
from .solvers import cgme_iterate, tcgme_iterate

__all__ = [
    "InnerFallback",
    "RunRow",
    "RunRecord",
    "METHODS",
    "hyb_cgme_step",
    "hyb_tcgme_step",
    "run_hybrid",
]

METHODS = ("cgme", "tcgme", "hyb_cgme", "hyb_tcgme")


def _check_sweep(methods: Sequence[str], max_outer_k: int, inner_tol: float) -> None:
    """The one check of a sweep request, for :func:`run_hybrid` and ``ExperimentSpec`` alike."""
    if not methods:
        raise ValueError("no methods given")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected a subset of {METHODS}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must be distinct, got {methods!r}")
    if not _is_int(max_outer_k) or max_outer_k < 1:
        raise ValueError(f"max_outer_k must be an integer >= 1, got {max_outer_k!r}")
    if not _is_real(inner_tol) or not 0.0 < inner_tol < 1.0:
        raise ValueError(f"inner_tol must lie in (0, 1), got {inner_tol!r}")


@dataclass(frozen=True)
class InnerFallback:
    """An outer step whose direct inner solve fell back to LSQR, and why."""

    k: int
    reason: str


@dataclass(frozen=True, slots=True)
class RunRow:
    """One outer step.  ``wall_ms`` is what the step costs its method alone
    (see :func:`run_hybrid`), not the shared sweep's time; ``inner_cap_hit``
    says the inner LSQR stopped at its iteration cap."""

    k: int
    rel_error: float
    inner_iterations: int
    wall_ms: float
    inner_cap_hit: bool = False


@dataclass
class RunRecord:
    """One (method, epsilon) run: the problem's name, size, noise level and
    seed, per-k rows, bests (``interior_minimum``: ``best_k`` lies strictly
    between the first and last row), the outer steps whose direct inner solve
    fell back to LSQR, and why the sweep stopped early (``breakdown``) or
    failed (``error``).  ``total_wall_ms`` is the sum of the rows' ``wall_ms``."""

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
    interior_minimum: bool | None = None


class KrylovIterate:
    """One step's ``x_k = Q c`` of ``kernel`` (CGME's or TCGME's): ``coeffs()`` is
    ``c``; ``np.asarray`` forms ``x_k`` once, read-only, timed as ``form_ms``, and counts ``reads``."""

    def __init__(self, kernel, state: BidiagState, k: int) -> None:
        self._kernel, self._state, self._k, self._x, self.form_ms, self.reads = kernel, state, k, None, 0.0, 0

    def coeffs(self) -> np.ndarray:
        return self._kernel(self._state, self._k, coeffs=True)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if self._x is None:
            t0 = time.perf_counter()
            self._x = self._kernel(self._state, self._k)
            self._x.flags.writeable = False  # shared by every reader at this k
            self.form_ms = (time.perf_counter() - t0) * 1e3
        self.reads += 1
        return self._x.copy() if copy else self._x


def hyb_cgme_step(state: BidiagState, L: LinearOperator, k: int, inner_tol: float) -> HybridIterate:
    """hyb-CGME iterate ``x_k^{cgme} - z_k`` (uses ``Q_k``), with the inner
    problem solved to ``inner_tol`` by the reference :class:`LsqrSolver`."""
    return LsqrSolver(L, inner_tol).solve(state.Q_cols(k), cgme_iterate(state, k))


def hyb_tcgme_step(state: BidiagState, L: LinearOperator, k: int, inner_tol: float) -> HybridIterate:
    """hyb-TCGME iterate ``x_k^{tcgme} - z_k`` (uses ``Q_{k+1}``), with the
    inner problem solved as in :func:`hyb_cgme_step`."""
    return LsqrSolver(L, inner_tol).solve(state.Q_cols(k + 1), tcgme_iterate(state, k))


def _needed(method: str, k: int) -> int:
    """Bidiagonalization steps ``method`` reads at outer index ``k``."""
    return k + 1 if method.endswith("tcgme") else k


def run_hybrid(problem: ProblemInstance, methods: Sequence[str], *,
               max_outer_k: int = 50, inner_tol: float = 1e-6) -> dict[str, RunRecord]:
    """Sweep outer iterations ``k = 1 .. max_outer_k`` of every method in
    ``methods`` (distinct names) over one shared bidiagonalization of
    ``problem``, with each inner LSQR solve stopped at backward error
    ``inner_tol``, and return each method's :class:`RunRecord`.  A bad
    request raises ``ValueError`` before any work.

    At each ``k`` the state is extended to the largest step count an
    active method reads, each base iterate (CGME, TCGME) is one lazy
    :class:`KrylovIterate` for its plain and hybrid method, and each row,
    diagnostics too, is the :func:`corrected` answer of one chain walk: the
    sweep's :func:`inner_solvers` chain for a hybrid, ``(IdentitySolver(),)``
    for a plain method.  Relative
    errors are the L-seminorm errors against ``x_true``, each through one
    :func:`relative_error` call against the sweep's one :class:`Truth`,
    in k space for the exact links' answers; ``best_k``, ``best_error``
    and ``interior_minimum`` are :func:`analyze_curve`'s.

    Every method's result is the one it gets when swept alone.  A Krylov
    breakdown is recorded, with its original message, on the methods that
    read the step where it occurred, and ends each sweep once the state
    falls short of that method; a lost basis orthogonality stops only the
    method that found it.  Any other exception is recorded in that method's
    ``error`` and leaves it no rows, breakdown or fallbacks; a non-finite
    error curve keeps its rows and sets ``error``.  Each row's ``wall_ms``
    charges its own inner solve, ``x_k`` if it reads it, and the Krylov
    columns the method newly reads at ``k``; of TCGME's two rows on a 2-D
    ``L``, the first to need the truncation pays for it.
    """
    _check_sweep(methods, max_outer_k, inner_tol)
    records = {m: RunRecord(method=m, problem=problem.name, size=problem.size,
                            epsilon=problem.epsilon, seed=problem.seed) for m in methods}
    try:
        state = bidiag_init(problem.A, problem.b)
    except GolubKahanBreakdown as exc:
        for record in records.values():
            record.breakdown = str(exc)
        return records
    chain = inner_solvers(problem.L, inner_tol)
    chains = {m: chain if m.startswith("hyb_") else (IdentitySolver(),) for m in methods}
    truth: Truth | None = None  # the sweep's one Truth, built by the first row
    column_ms: list[float] = []  # time to build Krylov column j, at j - 1
    failure: GolubKahanBreakdown | None = None
    active = list(records)
    for k in range(1, max_outer_k + 1):
        target = max(_needed(m, k) for m in active)
        while state.k < target and failure is None:
            t0 = time.perf_counter()
            try:
                bidiag_extend(state, 1)
            except GolubKahanBreakdown as exc:
                # without its traceback, which would tie this frame (the
                # problem, the state) into a cycle only the garbage
                # collector frees
                failure = exc.with_traceback(None)
            column_ms.append((time.perf_counter() - t0) * 1e3)
        bases = {"cgme": KrylovIterate(cgme_iterate, state, k), "tcgme": KrylovIterate(tcgme_iterate, state, k)}
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
            try:
                iterate = bases[method.removeprefix("hyb_")]
                reads, t0 = iterate.reads, time.perf_counter()
                x = corrected(iterate, state.Q_cols(needed), chains[method])
                if x.fallback is not None:
                    record.fallbacks.append(InnerFallback(k=k, reason=x.fallback))
                wall += (time.perf_counter() - t0) * 1e3 + (iterate.form_ms if 0 < reads < iterate.reads else 0.0)
                truth = truth or Truth(problem.L, problem.x_true)
                rel_error = relative_error(x, truth)
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
            record.rows.append(RunRow(k, rel_error, x.inner_iterations, wall, x.inner_cap_hit))
        if not active:
            break
    for record in records.values():
        if record.error is not None:
            record.rows, record.breakdown, record.fallbacks = [], None, []
            continue
        record.total_wall_ms = sum(row.wall_ms for row in record.rows)
        if record.rows:
            try:
                curve = analyze_curve([r.rel_error for r in record.rows])
            except ValueError as exc:
                record.error = f"ValueError: {exc}"
                continue
            record.best_k, record.best_error, record.interior_minimum = astuple(curve)
    return records
