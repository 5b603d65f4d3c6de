"""Experiment harness: build problems, sweep solvers over noise levels,
and emit per-k curves plus summary tables as CSV/JSON.

Outputs are deterministic for a fixed spec and seed.  Wall-clock columns
are reported for information only; ``deterministic=True`` zeroes them so
repeated executions produce byte-identical files (the mode used by the
``verify`` battery).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import bidiag, metrics, problems, solvers
from .hybrid import METHODS, HybridConfig, RunRecord, RunRow, hyb_cgme_step, hyb_tcgme_step, run_hybrid
from .lsqr import LsqrConfig, lsqr_solve
from .operators import DenseOperator, _is_int
from .problems import _MIN_N, L_KINDS, PROBLEM_NAMES, build_problem, with_noise

__all__ = [
    "ExperimentSpec",
    "RunRow",
    "RunRecord",
    "run_experiment",
    "emit_csv",
    "emit_summary_csv",
    "emit_json",
    "records_to_json",
    "verification_suite",
    "VerificationCheck",
]

CURVE_COLUMNS = "method,problem,n,epsilon,seed,k,rel_error,inner_iters,wall_ms"
SUMMARY_COLUMNS = "method,problem,epsilon,best_k,best_error,total_wall_ms"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a problem, a list of noise levels, and methods.

    Every field is validated here, so a bad value fails once, before any
    run, instead of once per run.  Only the per-generator size rules
    (shaw and heat need an even size) are left to the problem build.
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
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}; expected one of {PROBLEM_NAMES}")
        for name, value in (("epsilons", self.epsilons), ("methods", self.methods)):
            if not isinstance(value, (tuple, list)):
                raise ValueError(f"{name} must be a list, got {value!r}")
        if not self.methods:
            raise ValueError("no methods given")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected a subset of {METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must be distinct, got {self.methods!r}")
        for eps in self.epsilons:
            if not _is_real(eps) or not 0.0 < eps < 1.0:
                raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
        if not self.epsilons:
            raise ValueError("no noise levels given")
        if not _is_int(self.size) or self.size < _MIN_N:
            raise ValueError(f"size must be an integer >= {_MIN_N}, got {self.size!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_int(self.max_outer_k) or self.max_outer_k < 1:
            raise ValueError(f"max_outer_k must be an integer >= 1, got {self.max_outer_k!r}")
        if not _is_real(self.inner_tol) or not 0.0 < self.inner_tol < 1.0:
            raise ValueError(f"inner_tol must lie in (0, 1), got {self.inner_tol}")
        if self.L_kind is not None and self.L_kind not in L_KINDS:
            raise ValueError(f"unknown L_kind {self.L_kind!r}; expected one of {L_KINDS}")
        if self.L_kind == "first_diff_2d" and self.problem != "blur2d":
            raise ValueError(f"L_kind first_diff_2d does not apply to 1-D problem {self.problem!r}")
        if not _is_real(self.psf_sigma) or not self.psf_sigma > 0.0:
            raise ValueError(f"psf_sigma must be positive, got {self.psf_sigma}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build a spec from a JSON-style mapping; lists become tuples.

        Unknown or missing keys raise ``ValueError`` naming them.
        """
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown ExperimentSpec keys {unknown}; expected a subset of {sorted(names)}")
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = sorted(required - set(data))
        if missing:
            raise ValueError(f"missing ExperimentSpec keys {missing}")
        data = dict(data)
        for key in ("epsilons", "methods"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        return cls(**data)


def _is_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def run_experiment(spec: ExperimentSpec) -> list[RunRecord]:
    """Run every (method, epsilon) pair of an ExperimentSpec.

    The problem is built once; each noise level gets its own data and one
    :func:`~krylreg.hybrid.run_hybrid` sweep shared by all methods.
    Failures are recorded on the RunRecords they belong to and do not abort
    the remaining runs: a build failure on every run, a failure of the
    noise or of the shared sweep on the runs of that noise level, and a
    failure of one method on its own run.
    """
    cfg = HybridConfig(
        inner=LsqrConfig(tol=spec.inner_tol),
        max_outer_k=spec.max_outer_k,
    )
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
                records.extend(run_hybrid(with_noise(base, epsilon, spec.seed), spec.methods, cfg).values())
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


def emit_csv(records: list[RunRecord], path, deterministic: bool = False) -> None:
    """Per-k curve CSV with columns
    method,problem,n,epsilon,seed,k,rel_error,inner_iters,wall_ms."""
    lines = [CURVE_COLUMNS]
    for rec in records:
        for row in rec.rows:
            wall = 0.0 if deterministic else row.wall_ms
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        rec.method, rec.problem, rec.size, rec.epsilon, rec.seed,
                        row.k, row.rel_error, row.inner_iterations, wall,
                    )
                )
            )
    _write_text(path, "\n".join(lines) + "\n")


def emit_summary_csv(records: list[RunRecord], path, deterministic: bool = False) -> None:
    """Best-per-run summary CSV with columns
    method,problem,epsilon,best_k,best_error,total_wall_ms."""
    lines = [SUMMARY_COLUMNS]
    for rec in records:
        wall = 0.0 if deterministic else rec.total_wall_ms
        lines.append(
            ",".join(
                _fmt(v)
                for v in (rec.method, rec.problem, rec.epsilon, rec.best_k, rec.best_error, wall)
            )
        )
    _write_text(path, "\n".join(lines) + "\n")


def records_to_json(records: list[RunRecord], deterministic: bool = False) -> str:
    payload = []
    for rec in records:
        entry = asdict(rec)
        if deterministic:
            entry["total_wall_ms"] = 0.0
            for row in entry["rows"]:
                row["wall_ms"] = 0.0
        payload.append(entry)
    return json.dumps(payload, indent=2, sort_keys=True)


def emit_json(records: list[RunRecord], path, deterministic: bool = False) -> None:
    """JSON mirror of the run records."""
    _write_text(path, records_to_json(records, deterministic) + "\n")


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
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


def _bidiag_recurrence_check() -> VerificationCheck:
    A, x_true, b_true = problems.gen_shaw(64)
    b = problems.add_noise(b_true, 1e-2, 7)
    state = bidiag.bidiag_init(A, b)
    try:
        bidiag.bidiag_extend(state, A, 30)
    except bidiag.GolubKahanBreakdown:
        pass
    k = state.k
    mats = bidiag.extract_matrices(state, k)
    fro = A.frobenius_norm()
    dense = A.entries
    res1 = np.linalg.norm(dense @ state.Q_cols(k) - state.P_cols(k + 1) @ mats.B_kplus, "fro")
    res2 = np.linalg.norm(dense.T @ state.P_cols(k) - state.Q_cols(k) @ mats.B_k.T, "fro")
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


def _gap_ordering_check() -> VerificationCheck:
    A, x_true, b_true = problems.gen_shaw(64)
    b = problems.add_noise(b_true, 1e-2, 7)
    state = bidiag.bidiag_init(A, b)
    kmax = 12
    try:
        bidiag.bidiag_extend(state, A, kmax + 2)
    except bidiag.GolubKahanBreakdown:
        pass
    reports = {k: metrics.gamma_gaps(A, state, k) for k in range(1, kmax + 1)}
    slack = 1e-10
    ok = True
    prev_lsqr = float(np.linalg.norm(A.entries, 2))
    for k in range(1, kmax + 1):
        g = reports[k]
        ok &= g.gamma_lsqr < g.gamma_cgme + slack
        ok &= g.gamma_cgme < prev_lsqr + slack
        if k + 1 <= kmax:
            ok &= reports[k + 1].gamma_cgme < g.gamma_cgme + slack
            ok &= g.gamma_tcgme <= g.theta_min + reports[k + 1].gamma_cgme + slack
        prev_lsqr = g.gamma_lsqr
    return _check("gap-orderings", ok, f"shaw(64) k=1..{kmax}")


def _identity_collapse_check() -> VerificationCheck:
    problem = build_problem("shaw", 200, 1e-2, 11, L_kind="identity")
    state = bidiag.bidiag_init(problem.A, problem.b)
    bidiag.bidiag_extend(state, problem.A, 9)
    cfg = HybridConfig(inner=LsqrConfig(tol=1e-10), max_outer_k=8)
    worst = 0.0
    for k in (2, 5, 8):
        xc = solvers.cgme_iterate(state, k)
        xt = solvers.tcgme_iterate(state, k)
        hc = hyb_cgme_step(state, problem.L, k, cfg).x_L
        ht = hyb_tcgme_step(state, problem.L, k, cfg).x_L
        worst = max(
            worst,
            np.linalg.norm(hc - xc) / np.linalg.norm(xc),
            np.linalg.norm(ht - xt) / np.linalg.norm(xt),
        )
    return _check("identity-collapse", worst <= 1e-8, f"max rel dev {worst:.2e}")


def _condition_monotonicity_check() -> VerificationCheck:
    problem = build_problem("deriv2", 120, 1e-2, 13)
    state = bidiag.bidiag_init(problem.A, problem.b)
    bidiag.bidiag_extend(state, problem.A, 40)
    L_dense = DenseOperator(problem.L.to_dense())
    prev = np.inf
    ok = True
    worst = 0.0
    for k in range(2, 41):
        kappa = metrics.projected_condition(L_dense, state.Q_cols(k))
        if kappa > prev * (1.0 + 1e-10):
            ok = False
            worst = max(worst, kappa / prev - 1.0)
        prev = kappa
    return _check("condition-monotonicity", ok, "deriv2(120) k=2..40")


def _lsqr_pinv_check() -> VerificationCheck:
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        m, n, r = 40, 30, 18
        U = np.linalg.qr(rng.standard_normal((m, r)))[0]
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        svals = np.linspace(1.0, 3.0, r)
        M = DenseOperator(U @ np.diag(svals) @ V.T)
        d = rng.standard_normal(m)
        report = lsqr_solve(M, d, LsqrConfig(tol=1e-12, max_iters=400))
        expected = np.linalg.pinv(M.entries) @ d
        worst = max(worst, np.linalg.norm(report.solution - expected) / np.linalg.norm(expected))
        if np.any(np.diff(report.residual_history) > 1e-12):
            return _check("lsqr-pinv", False, "residual history not monotone")
    return _check("lsqr-pinv", worst <= 1e-6, f"max rel dev {worst:.2e}")


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
    )
    if ok:
        curve = metrics.analyze_curve([r.rel_error for r in tc.rows], ks=[r.k for r in tc.rows])
        ok = curve.interior_minimum
    detail = f"tcgme best={tc.best_error}(k={tc.best_k}) cgme best={cg.best_error}"
    return _check("semi-convergence-trend", ok, detail), records


def verification_suite(seed: int = 20240101) -> tuple[list[VerificationCheck], list[RunRecord]]:
    """Deterministic invariant/oracle battery behind ``krylreg verify``.

    Returns the check list plus the records of the canned experiment,
    whose summary CSV is byte-identical across executions for a fixed
    seed.
    """
    checks = [
        _bidiag_recurrence_check(),
        _gap_ordering_check(),
        _identity_collapse_check(),
        _condition_monotonicity_check(),
        _lsqr_pinv_check(),
    ]
    trend, records = _semi_convergence_check(seed)
    checks.append(trend)
    return checks, records
