"""Experiment harness: build problems, sweep solvers over noise levels,
and emit per-k curves plus summary tables as CSV/JSON.

Outputs depend only on the spec and seed, except for the wall-clock
fields, which :func:`timing_free` zeroes where files must be byte-identical;
:func:`write_outputs` writes a run's three files.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import bidiag, metrics, problems, solvers
from .hybrid import RunRecord, RunRow, _check_sweep, hyb_cgme_step, hyb_tcgme_step, run_hybrid
from .lsqr import lsqr_solve
from .operators import DenseOperator
from .problems import _check_noise, _check_request, build_problem, with_noise

__all__ = [
    "ExperimentSpec",
    "RunRow",
    "RunRecord",
    "run_experiment",
    "emit_csv",
    "emit_summary_csv",
    "emit_json",
    "records_to_json",
    "timing_free",
    "write_outputs",
    "verification_suite",
    "VerificationCheck",
]

CURVE_COLUMNS = "method,problem,n,epsilon,seed,k,rel_error,inner_iters,wall_ms"
SUMMARY_COLUMNS = "method,problem,epsilon,best_k,best_error,total_wall_ms"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a problem, a list of noise levels, and methods.

    Every field is validated here, so a bad value fails once, before any
    run, instead of once per run.
    """

    problem: str
    size: int
    epsilons: tuple[float, ...]
    seed: int
    methods: tuple[str, ...]
    L_kind: str | None = None
    max_outer_k: int = 50
    inner_tol: float = 1e-6
    psf_sigma: float = 2.0

    def __post_init__(self) -> None:
        _check_request(self.problem, self.size, self.L_kind, self.psf_sigma)
        for name, value in (("epsilons", self.epsilons), ("methods", self.methods)):
            if not isinstance(value, (tuple, list)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            # a caller's list could change after this check; a tuple cannot
            object.__setattr__(self, name, tuple(value))
        _check_sweep(self.methods, self.max_outer_k, self.inner_tol)
        if not self.epsilons:
            raise ValueError("no noise levels given")
        for eps in self.epsilons:
            _check_noise(eps, self.seed)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build a spec from a JSON-style mapping.

        A non-mapping, and unknown or missing keys (named), raise ``ValueError``.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown ExperimentSpec keys {unknown}; expected a subset of {sorted(names)}")
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = sorted(required - set(data))
        if missing:
            raise ValueError(f"missing ExperimentSpec keys {missing}")
        return cls(**data)


def run_experiment(spec: ExperimentSpec) -> list[RunRecord]:
    """Run every (method, epsilon) pair of an ExperimentSpec.

    The problem is built once; each noise level gets its own data and one
    :func:`~krylreg.hybrid.run_hybrid` sweep shared by all methods.
    Failures are recorded on the RunRecords they belong to and do not abort
    the remaining runs: a build failure on every run, a failure of the
    noise or of the shared sweep on the runs of that noise level, and a
    failure of one method on its own run.
    """
    base = None
    build_error: str | None = None
    try:
        base = build_problem(
            spec.problem, spec.size, spec.epsilons[0], spec.seed,
            L_kind=spec.L_kind, psf_sigma=spec.psf_sigma,
        )
    except Exception as exc:  # recorded per-run below
        build_error = f"{type(exc).__name__}: {exc}"
    records: list[RunRecord] = []
    for epsilon in spec.epsilons:
        error = build_error
        if base is not None:
            try:
                records.extend(run_hybrid(with_noise(base, epsilon), spec.methods,
                                          max_outer_k=spec.max_outer_k, inner_tol=spec.inner_tol).values())
                continue
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.extend(
            RunRecord(method=method, problem=spec.problem, size=spec.size,
                      epsilon=epsilon, seed=spec.seed, error=error)
            for method in spec.methods
        )
    return records


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header: str, rows) -> None:
    lines = [header, *(",".join(_fmt(v) for v in row) for row in rows)]
    _write_text(path, "\n".join(lines) + "\n")


def timing_free(records: list[RunRecord]) -> list[RunRecord]:
    """Copies of ``records`` with every ``wall_ms`` and ``total_wall_ms`` at 0.0."""
    return [replace(rec, rows=[replace(row, wall_ms=0.0) for row in rec.rows], total_wall_ms=0.0) for rec in records]


def write_outputs(records: list[RunRecord], prefix) -> None:
    """A run's one file set: ``<prefix>.csv``, ``<prefix>.summary.csv`` and ``<prefix>.json``."""
    emit_csv(records, f"{prefix}.csv")
    emit_summary_csv(records, f"{prefix}.summary.csv")
    emit_json(records, f"{prefix}.json")


def emit_csv(records: list[RunRecord], path) -> None:
    """Per-k curve CSV with columns
    method,problem,n,epsilon,seed,k,rel_error,inner_iters,wall_ms."""
    _write_csv(path, CURVE_COLUMNS, (
        (rec.method, rec.problem, rec.size, rec.epsilon, rec.seed,
         row.k, row.rel_error, row.inner_iterations, row.wall_ms)
        for rec in records for row in rec.rows
    ))


def emit_summary_csv(records: list[RunRecord], path) -> None:
    """Best-per-run summary CSV with columns
    method,problem,epsilon,best_k,best_error,total_wall_ms."""
    _write_csv(path, SUMMARY_COLUMNS, (
        (rec.method, rec.problem, rec.epsilon, rec.best_k, rec.best_error, rec.total_wall_ms)
        for rec in records
    ))


def records_to_json(records: list[RunRecord]) -> str:
    payload = []
    for rec in records:
        entry = asdict(rec)
        for row in entry["rows"]:
            row["rel_error"] = row["rel_error"] if np.isfinite(row["rel_error"]) else None  # RFC 8259 has no NaN
        payload.append(entry)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def emit_json(records: list[RunRecord], path) -> None:
    """JSON mirror of the run records."""
    _write_text(path, records_to_json(records) + "\n")


def _write_text(path, text: str) -> None:
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Verification battery (the `verify` CLI subcommand).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> VerificationCheck:
    return VerificationCheck(name=name, passed=bool(passed), detail=detail)


def _krylov_state(A, b, steps: int) -> bidiag.BidiagState:
    """The Golub-Kahan state of ``A`` from ``b`` after ``steps`` steps, or
    after the last step before a breakdown."""
    state = bidiag.bidiag_init(A, b)
    try:
        bidiag.bidiag_extend(state, steps)
    except bidiag.GolubKahanBreakdown:
        pass
    return state


def _bidiag_recurrence_check(state: bidiag.BidiagState) -> VerificationCheck:
    """Criterion 1: both Golub-Kahan recurrences and the orthonormality of
    ``P`` and ``Q`` hold to 1e-10 (residuals relative to ``|A|_F``)."""
    k = state.k
    B_k, B_kplus = bidiag.bidiagonal(state, k, k), bidiag.bidiagonal(state, k + 1, k)
    fro = state.A.frobenius_norm()
    dense = state.A.to_dense()
    res1 = np.linalg.norm(dense @ state.Q_cols(k) - state.P_cols(k + 1) @ B_kplus, "fro")
    res2 = np.linalg.norm(dense.T @ state.P_cols(k) - state.Q_cols(k) @ B_k.T, "fro")
    orth = max(
        np.abs(state.P.T @ state.P - np.eye(state.P.shape[1])).max(),
        np.abs(state.Q.T @ state.Q - np.eye(k)).max(),
    )
    ok = res1 <= 1e-10 * fro and res2 <= 1e-10 * fro and orth <= 1e-10
    return _check(
        "bidiag-recurrence",
        ok,
        f"k={k} residuals=({res1 / fro:.2e},{res2 / fro:.2e}) orth={orth:.2e}",
    )


def _gap_ordering_check(state: bidiag.BidiagState, kmax: int, label: str) -> VerificationCheck:
    """Criterion 2: the rank-k gap orderings for k = 1..kmax, each within
    slack 1e-10; the two ``k+1`` inequalities read the report at kmax+1."""
    reports = [metrics.gamma_gaps(state, k) for k in range(1, kmax + 2)]
    slack = 1e-10
    ok = True
    prev_lsqr = float(np.linalg.norm(state.A.to_dense(), 2))
    for g, next_g in zip(reports, reports[1:]):
        ok &= g.gamma_lsqr < g.gamma_cgme + slack
        ok &= g.gamma_cgme < prev_lsqr + slack
        ok &= next_g.gamma_cgme < g.gamma_cgme + slack
        ok &= g.gamma_tcgme <= g.theta_min + next_g.gamma_cgme + slack
        prev_lsqr = g.gamma_lsqr
    return _check("gap-orderings", ok, f"{label} k=1..{kmax}")


def _identity_collapse_check(state: bidiag.BidiagState, L, cgme_ks, tcgme_ks) -> VerificationCheck:
    """Criterion 4: with ``L = I`` each hybrid step returns its plain
    iterate to 1e-8 relative, at CGME's and TCGME's own ``k``s."""
    worst = 0.0
    for ks, step, plain in ((cgme_ks, hyb_cgme_step, solvers.cgme_iterate),
                            (tcgme_ks, hyb_tcgme_step, solvers.tcgme_iterate)):
        for k in ks:
            x_k = plain(state, k)
            worst = max(worst, np.linalg.norm(step(state, L, k, 1e-10).x_L - x_k) / np.linalg.norm(x_k))
    return _check("identity-collapse", worst <= 1e-8, f"max rel dev {worst:.2e}")


def _condition_monotonicity_check(state: bidiag.BidiagState, L, label: str) -> VerificationCheck:
    """Criterion 5: the condition number of ``L`` on the complement of
    ``Q_k`` does not grow (to 1e-10 relative) over k = 2..state.k."""
    kappas = [metrics.projected_condition(L, state.Q_cols(k)) for k in range(2, state.k + 1)]
    ok = all(kappa <= prev * (1.0 + 1e-10) for prev, kappa in zip([np.inf, *kappas], kappas))
    return _check("condition-monotonicity", ok, f"{label} k=2..{state.k}")


def _lsqr_pinv_check(systems) -> VerificationCheck:
    """Criterion 8: LSQR at tol 1e-12 on each ``(M, d, max_iters)`` meets
    ``pinv(M) d`` to 1e-6 relative, with a residual history that never
    rises by more than 1e-12."""
    worst, monotone = 0.0, True
    for M, d, max_iters in systems:
        report = lsqr_solve(M, d, tol=1e-12, max_iters=max_iters)
        expected = np.linalg.pinv(M.entries) @ d
        worst = max(worst, np.linalg.norm(report.solution - expected) / np.linalg.norm(expected))
        monotone &= bool(np.all(np.diff(report.residual_history) <= 1e-12))
    detail = f"max rel dev {worst:.2e}" + ("" if monotone else "; residual history not monotone")
    return _check("lsqr-pinv", worst <= 1e-6 and monotone, detail)


def _semi_convergence_check(seed: int) -> tuple[VerificationCheck, list[RunRecord]]:
    spec = ExperimentSpec(
        problem="shaw",
        size=400,
        epsilons=(1e-2,),
        seed=seed,
        methods=("hyb_cgme", "hyb_tcgme"),
        max_outer_k=15,
    )
    records = run_experiment(spec)
    by_method = {rec.method: rec for rec in records}
    tc = by_method["hyb_tcgme"]
    cg = by_method["hyb_cgme"]
    ok = (
        tc.best_error is not None
        and cg.best_error is not None
        and tc.best_error < cg.best_error
        and tc.best_error <= 0.5
        and tc.interior_minimum
    )
    detail = f"tcgme best={tc.best_error}(k={tc.best_k}) cgme best={cg.best_error}"
    return _check("semi-convergence-trend", ok, detail), records


def verification_suite(seed: int = 20240101) -> tuple[list[VerificationCheck], list[RunRecord]]:
    """Deterministic invariant/oracle battery behind ``krylreg verify``.

    Returns the check list plus the records of the canned experiment,
    whose summary CSV is byte-identical across executions for a fixed
    seed.
    """
    # one shaw(64) state serves both checks: the gap check reads only its
    # leading columns, which do not depend on how far it was extended
    A, _, b_true = problems.gen_shaw(64)
    shaw = _krylov_state(A, problems.add_noise(b_true, 1e-2, 7), 30)
    identity = build_problem("shaw", 200, 1e-2, 11, L_kind="identity")
    deriv2 = build_problem("deriv2", 120, 1e-2, 13)
    rng = np.random.default_rng(3)
    systems = []
    for _ in range(5):  # rank-18 40 x 30 matrices with singular values in [1, 3]
        U = np.linalg.qr(rng.standard_normal((40, 18)))[0]
        V = np.linalg.qr(rng.standard_normal((30, 18)))[0]
        systems.append((DenseOperator(U @ np.diag(np.linspace(1.0, 3.0, 18)) @ V.T), rng.standard_normal(40), 400))
    checks = [
        _bidiag_recurrence_check(shaw),
        _gap_ordering_check(shaw, 12, "shaw(64)"),
        _identity_collapse_check(_krylov_state(identity.A, identity.b, 9), identity.L, (2, 5, 8), (2, 5, 8)),
        _condition_monotonicity_check(_krylov_state(deriv2.A, deriv2.b, 40), deriv2.L, "deriv2(120)"),
        _lsqr_pinv_check(systems),
    ]
    trend, records = _semi_convergence_check(seed)
    checks.append(trend)
    return checks, records
