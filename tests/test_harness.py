import json
import types

import numpy as np
import pytest

from krylreg.bidiag import bidiag_extend, bidiag_init
from krylreg.harness import (
    ExperimentSpec,
    RunRecord,
    _bidiag_recurrence_check,
    _condition_monotonicity_check,
    _gap_ordering_check,
    _identity_collapse_check,
    _krylov_state,
    _lsqr_pinv_check,
    emit_csv,
    emit_json,
    emit_summary_csv,
    records_to_json,
    run_experiment,
)
from krylreg.hybrid import InnerFallback, hyb_cgme_step, hyb_tcgme_step
from krylreg.metrics import relative_error
from krylreg.operators import DenseOperator
from krylreg.problems import add_noise, build_problem, gen_shaw

SMALL_SPEC = ExperimentSpec(
    problem="shaw",
    size=100,
    epsilons=(0.01,),
    seed=20240101,
    methods=("hyb_cgme",),
    max_outer_k=8,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="no methods"):
        ExperimentSpec(problem="shaw", size=64, epsilons=(0.1,), seed=1, methods=())
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentSpec(problem="shaw", size=64, epsilons=(1.5,), seed=1, methods=("cgme",))
    with pytest.raises(ValueError, match="unknown problem"):
        ExperimentSpec(problem="nope", size=64, epsilons=(0.1,), seed=1, methods=("cgme",))
    with pytest.raises(ValueError, match="unknown methods"):
        ExperimentSpec(problem="shaw", size=64, epsilons=(0.1,), seed=1, methods=("jbdqr",))


def test_spec_rejects_duplicate_methods():
    # a repeated method would run twice per noise level, and the repeats
    # would share one fallbacks list
    for methods in (("hyb_cgme", "hyb_cgme"), ["cgme", "tcgme", "cgme"]):
        with pytest.raises(ValueError, match="distinct"):
            ExperimentSpec(problem="shaw", size=64, epsilons=(0.1,), seed=1, methods=methods)
    with pytest.raises(ValueError, match="distinct"):
        ExperimentSpec.from_dict({"problem": "shaw", "size": 64, "epsilons": [0.1], "seed": 1,
                                  "methods": ["hyb_tcgme", "hyb_tcgme"]})


BASE_SPEC = dict(problem="shaw", size=64, epsilons=(0.1,), seed=1, methods=("hyb_cgme",))


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("size", 0, "size must be an integer"),
        ("size", 64.0, "size must be an integer"),
        ("seed", -1, "seed must be a non-negative integer"),
        ("max_outer_k", 0, "max_outer_k must be an integer"),
        ("inner_tol", 0.0, "inner_tol must lie in"),
        ("inner_tol", 1.0, "inner_tol must lie in"),
        ("epsilons", 0.01, "epsilons must be a list"),
        ("methods", "cgme", "methods must be a list"),
        ("L_kind", "second_diff", "unknown L_kind"),
        ("L_kind", "first_diff_2d", "first_diff_2d does not apply"),
        ("psf_sigma", 0.0, "psf_sigma must be positive"),
    ],
    ids=lambda v: str(v),
)
def test_spec_validates_each_field_at_the_boundary(field, bad, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**{**BASE_SPEC, field: bad})


def test_spec_from_dict_names_unknown_and_missing_keys():
    with pytest.raises(ValueError, match=r"unknown ExperimentSpec keys \['max_k'\]"):
        ExperimentSpec.from_dict({**BASE_SPEC, "max_k": 5})
    with pytest.raises(ValueError, match=r"unknown ExperimentSpec keys \['reorth'\]"):
        ExperimentSpec.from_dict({**BASE_SPEC, "reorth": "full"})
    with pytest.raises(ValueError, match=r"missing ExperimentSpec keys \['seed'\]"):
        ExperimentSpec.from_dict({k: v for k, v in BASE_SPEC.items() if k != "seed"})


def test_run_experiment_single_record_interior_best():
    spec = ExperimentSpec(
        problem="shaw", size=400, epsilons=(0.01,), seed=20240101,
        methods=("hyb_tcgme",), max_outer_k=14,
    )
    records = run_experiment(spec)
    assert len(records) == 1
    rec = records[0]
    assert rec.error is None
    ks = [row.k for row in rec.rows]
    errs = [row.rel_error for row in rec.rows]
    best_pos = int(np.argmin(errs))
    assert rec.best_k == ks[best_pos]
    assert 0 < best_pos < len(errs) - 1


def test_run_experiment_isolates_failures(monkeypatch):
    # a build that fails past the spec's checks: its runs are recorded
    import krylreg.harness as harness

    def failing_build(*args, **kwargs):
        raise MemoryError("no room for the operator")

    monkeypatch.setattr(harness, "build_problem", failing_build)
    spec = ExperimentSpec(
        problem="shaw", size=64, epsilons=(0.01,), seed=1,
        methods=("cgme", "hyb_cgme"), max_outer_k=3,
    )
    records = run_experiment(spec)
    assert len(records) == 2
    assert all(rec.error == "MemoryError: no room for the operator" for rec in records)
    assert all(not rec.rows for rec in records)


def test_run_experiment_builds_once_and_sweeps_once_per_noise_level(monkeypatch):
    import krylreg.harness as harness

    builds, sweeps = [], []
    real_build, real_run = harness.build_problem, harness.run_hybrid

    def counted_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    def counted_run(problem, methods, **settings):
        sweeps.append((problem.epsilon, methods))
        return real_run(problem, methods, **settings)

    monkeypatch.setattr(harness, "build_problem", counted_build)
    monkeypatch.setattr(harness, "run_hybrid", counted_run)
    spec = ExperimentSpec(
        problem="heat", size=64, epsilons=(0.1, 0.05, 0.01), seed=17,
        methods=("hyb_cgme", "tcgme"), max_outer_k=6,
    )
    records = run_experiment(spec)
    assert len(builds) == 1
    assert sweeps == [(eps, spec.methods) for eps in spec.epsilons]
    assert [(r.epsilon, r.method) for r in records] == [
        (eps, m) for eps in spec.epsilons for m in spec.methods
    ]
    for rec in records:
        # the same answer as a fresh build at this noise level
        fresh = real_run(real_build("heat", 64, rec.epsilon, 17), (rec.method,), max_outer_k=6,
                         inner_tol=spec.inner_tol)[rec.method]
        assert [row.rel_error for row in rec.rows] == [row.rel_error for row in fresh.rows]
        assert rec.total_wall_ms == sum(row.wall_ms for row in rec.rows)


def test_run_experiment_keeps_noise_and_method_failures_in_their_runs(monkeypatch):
    import krylreg.harness as harness
    import krylreg.hybrid as hybrid

    real_noise = harness.with_noise

    def noise(problem, epsilon):
        if epsilon == 0.05:
            raise ValueError("no data at 0.05")
        return real_noise(problem, epsilon)

    def broken(state, k):
        raise FloatingPointError("tcgme kernel failed")

    monkeypatch.setattr(harness, "with_noise", noise)
    monkeypatch.setattr(hybrid, "tcgme_iterate", broken)
    spec = ExperimentSpec(
        problem="shaw", size=64, epsilons=(0.1, 0.05), seed=3,
        methods=("cgme", "tcgme"), max_outer_k=4,
    )
    by_run = {(r.epsilon, r.method): r for r in run_experiment(spec)}
    assert by_run[(0.1, "cgme")].error is None
    assert len(by_run[(0.1, "cgme")].rows) == 4
    assert by_run[(0.1, "tcgme")].error == "FloatingPointError: tcgme kernel failed"
    assert by_run[(0.1, "tcgme")].rows == []
    for method in spec.methods:
        assert by_run[(0.05, method)].error == "ValueError: no data at 0.05"
        assert by_run[(0.05, method)].rows == []


def test_run_experiment_keeps_a_nonfinite_error_curve_in_its_run(monkeypatch):
    import krylreg.hybrid as hybrid

    real_error = hybrid.relative_error

    def nan_at_k3(L, x, x_true, denom=None):
        nan_at_k3.calls += 1
        return float("nan") if nan_at_k3.calls == 3 else real_error(L, x, x_true)

    nan_at_k3.calls = 0
    monkeypatch.setattr(hybrid, "relative_error", nan_at_k3)
    spec = ExperimentSpec(problem="shaw", size=64, epsilons=(0.1, 0.05), seed=3,
                          methods=("cgme",), max_outer_k=4)
    first, second = run_experiment(spec)
    assert first.error.startswith("ValueError: relative errors must be finite")
    assert first.best_k is None and len(first.rows) == 4
    assert second.error is None and second.best_k is not None


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == "method,problem,n,epsilon,seed,k,rel_error,inner_iters,wall_ms\n"
    spath = tmp_path / "empty-summary.csv"
    emit_summary_csv([], spath)
    assert spath.read_text() == "method,problem,epsilon,best_k,best_error,total_wall_ms\n"


def test_emit_csv_deterministic_bytes(tmp_path):
    paths = []
    for i in range(2):
        records = run_experiment(SMALL_SPEC)
        path = tmp_path / f"run{i}.csv"
        emit_csv(records, path, deterministic=True)
        spath = tmp_path / f"run{i}-summary.csv"
        emit_summary_csv(records, spath, deterministic=True)
        paths.append((path.read_bytes(), spath.read_bytes()))
    assert paths[0] == paths[1]


def test_json_roundtrip_mirrors_records(tmp_path):
    records = run_experiment(SMALL_SPEC)
    path = tmp_path / "run.json"
    emit_json(records, path)
    loaded = json.loads(path.read_text())
    assert len(loaded) == len(records)
    entry = loaded[0]
    rec = records[0]
    assert entry["method"] == rec.method
    assert entry["problem"] == rec.problem
    assert entry["epsilon"] == rec.epsilon
    assert entry["best_k"] == rec.best_k
    assert entry["best_error"] == rec.best_error
    assert [row["k"] for row in entry["rows"]] == [row.k for row in rec.rows]
    assert [row["rel_error"] for row in entry["rows"]] == [row.rel_error for row in rec.rows]


def test_records_to_json_deterministic_zeroes_timing():
    records = run_experiment(SMALL_SPEC)
    payload = json.loads(records_to_json(records, deterministic=True))
    assert payload[0]["total_wall_ms"] == 0.0
    assert all(row["wall_ms"] == 0.0 for row in payload[0]["rows"])


def test_blur2d_end_to_end_through_harness():
    spec = ExperimentSpec(
        problem="blur2d", size=16, epsilons=(0.01,), seed=4,
        methods=("hyb_cgme", "hyb_tcgme"), max_outer_k=6, psf_sigma=1.5,
    )
    records = run_experiment(spec)
    assert len(records) == 2
    # the LSQR path at a tight tolerance is the reference for the direct solve
    problem = build_problem("blur2d", 16, 0.01, 4, psf_sigma=1.5)
    state = bidiag_init(problem.A, problem.b)
    bidiag_extend(state, 7)
    steps = {"hyb_cgme": hyb_cgme_step, "hyb_tcgme": hyb_tcgme_step}
    for rec in records:
        assert rec.error is None
        assert rec.fallbacks == []
        assert len(rec.rows) == 6
        for row in rec.rows:
            x_L = steps[rec.method](state, problem.L, row.k, 1e-12).x_L
            expected = relative_error(problem.L, x_L, problem.x_true)
            assert abs(row.rel_error - expected) <= 1e-8 * expected


def test_json_carries_inner_fallbacks():
    record = RunRecord(method="hyb_cgme", problem="blur2d", size=8, epsilon=0.01, seed=1,
                       fallbacks=[InnerFallback(k=2, reason="why")])
    payload = json.loads(records_to_json([record]))
    assert payload[0]["fallbacks"] == [{"k": 2, "reason": "why"}]


def test_spec_from_dict_accepts_lists():
    spec = ExperimentSpec.from_dict(
        {
            "problem": "deriv2",
            "size": 64,
            "epsilons": [0.1, 0.01],
            "seed": 3,
            "methods": ["cgme", "hyb_tcgme"],
        }
    )
    assert spec.epsilons == (0.1, 0.01)
    assert spec.methods == ("cgme", "hyb_tcgme")


def test_spec_built_from_lists_holds_tuples():
    epsilons, methods = [0.01], ["hyb_cgme"]
    spec = ExperimentSpec(problem="shaw", size=64, epsilons=epsilons, seed=1, methods=methods)
    epsilons.append(5.0)
    methods.append("bogus")
    assert (spec.epsilons, spec.methods) == ((0.01,), ("hyb_cgme",))
    assert hash(spec) == hash(ExperimentSpec(problem="shaw", size=64, epsilons=(0.01,), seed=1,
                                             methods=("hyb_cgme",)))


def test_recurrence_and_gap_checks_fail_once_A_changes_after_the_recurrence():
    A, _, b_true = gen_shaw(64)
    state = _krylov_state(A, add_noise(b_true, 1e-2, 7), 14)
    state.A = DenseOperator(1.001 * A.entries)
    assert _bidiag_recurrence_check(state).passed is False
    # at A = 0 no rank-k gap lies below |A| = 0
    state.A = DenseOperator(np.zeros((64, 64)))
    assert _gap_ordering_check(state, 12, "zero A").passed is False


def test_identity_collapse_check_fails_for_a_first_difference_L():
    problem = build_problem("shaw", 200, 1e-2, 11, L_kind="first_diff_1d")
    state = _krylov_state(problem.A, problem.b, 9)
    assert _identity_collapse_check(state, problem.L, (2, 5, 8), ()).passed is False
    assert _identity_collapse_check(state, problem.L, (), (2, 5, 8)).passed is False


def test_condition_check_fails_on_krylov_blocks_in_reverse_order():
    problem = build_problem("deriv2", 120, 1e-2, 13)
    state = _krylov_state(problem.A, problem.b, 40)
    shrinking = types.SimpleNamespace(k=state.k, Q_cols=lambda k: state.Q_cols(state.k + 2 - k))
    assert _condition_monotonicity_check(shrinking, problem.L, "reversed").passed is False


def test_lsqr_pinv_check_fails_when_lsqr_stops_after_one_iteration():
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.standard_normal((40, 18)))[0]
    V = np.linalg.qr(rng.standard_normal((30, 18)))[0]
    M = DenseOperator(U @ np.diag(np.linspace(1.0, 3.0, 18)) @ V.T)
    assert _lsqr_pinv_check([(M, rng.standard_normal(40), 400)]).passed is True
    assert _lsqr_pinv_check([(M, rng.standard_normal(40), 1)]).passed is False
