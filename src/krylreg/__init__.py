"""krylreg: matrix-free Krylov-subspace general-form regularization.

Inner-outer hybrid solvers (hyb-CGME, hyb-TCGME) for discrete ill-posed
problems ``min |A x - b|`` regularized by minimizing a seminorm
``|L x|``, together with the Golub-Kahan machinery, a matrix-free LSQR,
classic test-problem generators, and an experiment harness.
"""

from .bidiag import (
    BidiagState,
    GolubKahanBreakdown,
    bidiag_extend,
    bidiag_init,
    bidiagonal,
)
from .harness import (
    ExperimentSpec,
    RunRecord,
    RunRow,
    emit_csv,
    emit_json,
    emit_summary_csv,
    run_experiment,
    timing_free,
    verification_suite,
    write_outputs,
)
from .hybrid import METHODS, InnerFallback, hyb_cgme_step, hyb_tcgme_step, run_hybrid
from .inner import Difference1DSolver, Difference2DSolver, DirectSolveRejected, HybridIterate, LsqrSolver, inner_solvers
from .lsqr import LsqrReport, NumericalFailure, lsqr_solve
from .metrics import ErrorCurve, GammaGapReport, Truth, analyze_curve, gamma_gaps, projected_condition, relative_error
from .operators import (
    DenseOperator,
    DimensionMismatch,
    FirstDifferenceOperator,
    IdentityOperator,
    KroneckerBlurOperator,
    LinearOperator,
    LowerToeplitzOperator,
    OrthonormalityError,
    Stacked2DDifferenceOperator,
    SymmetricSemiseparableOperator,
)
from .problems import (
    L_KINDS,
    PROBLEM_NAMES,
    ProblemInstance,
    add_noise,
    build_problem,
    gen_baart,
    gen_blur2d,
    gen_deriv2,
    gen_heat,
    gen_shaw,
    make_L,
    with_noise,
)
from .solvers import IllConditionedTruncation, cgme_iterate, tcgme_iterate

__version__ = "0.1.0"
