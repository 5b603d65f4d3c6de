"""The benchmark's workloads: lists of ``ExperimentSpec`` built from a seed.

The seed is the only input that varies between runs; it becomes the
noise seed of every spec, as it does in ``scripts/run_desk_tables.py``.
Import this module only after :func:`bootstrap.prepare`.
"""

from __future__ import annotations

from krylreg.harness import ExperimentSpec

DESK_PROBLEMS = ("shaw", "baart", "heat", "deriv2")
DESK_EPSILONS = (1e-1, 5e-2, 1e-2)
IDENTITY_PROBLEMS = ("deriv2", "heat")
IDENTITY_SIZE = 2000
IDENTITY_MAX_K = 100

# One line each on why the workload exists; README.md expands on them.
WHY = {
    "desk1d": "the documented desk tables at n=1000: inner LSQR Python overhead dominates",
    "blur2d": "same inner-solve layers on 9x longer vectors: memory traffic of Q and the 2-D stack dominates",
    "krylov_identity": "L=I skips the inner solve: dense A, bidiag and solvers only; the control for inner-solve changes",
}

WORKLOADS = tuple(WHY)


def specs(workload: str, seed: int) -> list[ExperimentSpec]:
    """The ``run_experiment`` calls of one pass of ``workload``."""
    if workload == "desk1d":
        return [
            ExperimentSpec(
                problem=problem, size=1000, epsilons=DESK_EPSILONS, seed=seed,
                methods=("hyb_cgme", "hyb_tcgme"), L_kind="first_diff_1d",
                max_outer_k=30, inner_tol=1e-6,
            )
            for problem in DESK_PROBLEMS
        ]
    if workload == "blur2d":
        return [
            ExperimentSpec(
                problem="blur2d", size=96, epsilons=(1e-2,), seed=seed,
                methods=("hyb_cgme", "hyb_tcgme"), L_kind="first_diff_2d",
                max_outer_k=30, inner_tol=1e-6,
            )
        ]
    if workload == "krylov_identity":
        return [
            ExperimentSpec(
                problem=problem, size=IDENTITY_SIZE, epsilons=(1e-2,), seed=seed,
                methods=("cgme", "tcgme", "hyb_cgme", "hyb_tcgme"), L_kind="identity",
                max_outer_k=IDENTITY_MAX_K, inner_tol=1e-6,
            )
            for problem in IDENTITY_PROBLEMS
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def problem_args(workload: str, seed: int) -> list[tuple]:
    """``build_problem`` arguments of every instance one pass builds."""
    return [
        (spec.problem, spec.size, eps, spec.seed, spec.L_kind, spec.psf_sigma)
        for spec in specs(workload, seed)
        for eps in spec.epsilons
    ]
