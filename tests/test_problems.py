import tracemalloc

import numpy as np
import pytest

from broadcast_problems import REFERENCES
from krylreg.harness import ExperimentSpec
from krylreg.operators import Stacked2DDifferenceOperator
from krylreg.problems import (
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

GENERATORS = {"shaw": gen_shaw, "baart": gen_baart, "deriv2": gen_deriv2, "heat": gen_heat}


def test_shaw_matrix_is_symmetric():
    A, x_true, b_true = gen_shaw(64)
    assert np.array_equal(A.entries, A.entries.T)


def test_shaw_singular_values_decay_fast():
    A, *_ = gen_shaw(64)
    s = np.linalg.svd(A.entries, compute_uv=False)
    assert s[25] <= 1e-12 * s[0]
    assert s[10] > 1e-12 * s[0]  # not degenerate either


def test_deriv2_true_solution_is_midpoint_ramp():
    A, x_true, b_true = gen_deriv2(100)
    h = 1.0 / 100
    np.testing.assert_allclose(x_true, (np.arange(1, 101) - 0.5) * h)
    np.testing.assert_allclose(A.to_dense() @ x_true, b_true)


def test_heat_matrix_is_lower_triangular_toeplitz():
    A, x_true, b_true = gen_heat(32)
    M = A.to_dense()
    # densified through FFT products: zeros come out as roundoff
    # (measured 3.0e-16 of the largest entry)
    assert np.abs(np.triu(M, 1)).max() <= 1e-15 * np.abs(M).max()
    d0 = np.diag(M, -3)
    assert np.allclose(d0, d0[0])
    assert x_true[: 16].max() > 0 and np.all(x_true[16:] == 0.0)


@pytest.mark.parametrize("name", list(GENERATORS))
def test_generated_instances_satisfy_invariants(name):
    problem = build_problem(name, 64, 0.1, 11)
    consistency = np.linalg.norm(problem.A.apply(problem.x_true) - problem.b_true)
    assert consistency <= 1e-10 * np.linalg.norm(problem.b_true)
    level = np.linalg.norm(problem.b - problem.b_true) / np.linalg.norm(problem.b_true)
    assert abs(level - 0.1) <= 1e-12


@pytest.mark.parametrize("name", ["shaw", "heat"])
def test_even_n_requirements(name):
    with pytest.raises(ValueError, match="even"):
        GENERATORS[name](63)


def test_minimum_size_enforced():
    for gen in GENERATORS.values():
        with pytest.raises(ValueError):
            gen(4)


# deriv2 and heat are matrix-free, so their products, norms and b_true
# agree with the broadcast matrices to roundoff only.  Measured worst cases
# over the sizes below: products 1.2e-16 |A|_F |v|, Frobenius norms 1.2e-15
# relative, b_true 4.5e-16 relative; each bound leaves a margin of about 8x.
# The reference Frobenius norm is summed in long double: a float64 norm of
# the matrix itself moves with the BLAS kernel, by up to 4.1e-14 at n=2000.
STRUCTURED = ("deriv2", "heat")
PRODUCT_RTOL = 1e-15
FROBENIUS_RTOL = 1e-14
B_TRUE_RTOL = 4e-15
REFERENCE_SIZES = [
    (name, n) for name in GENERATORS for n in (8, 10, 64, 1000, 2000)
] + [("baart", 63), ("deriv2", 63)] + [("shaw", n) for n in (30, 34, 66)]


@pytest.mark.parametrize("name,n", REFERENCE_SIZES)
def test_generators_match_broadcast_reference(name, n):
    A, x_true, b_true = GENERATORS[name](n)
    entries, ref_x, ref_b = REFERENCES[name](n)
    assert np.array_equal(x_true, ref_x)
    if name in STRUCTURED:
        assert np.array_equal(b_true, A.apply(x_true))
        assert np.linalg.norm(b_true - ref_b) <= B_TRUE_RTOL * np.linalg.norm(ref_b)
    else:
        assert A.entries.flags.c_contiguous
        assert np.array_equal(A.entries, entries)
        assert np.array_equal(b_true, ref_b)


@pytest.mark.parametrize("name,n", [(name, n) for name, n in REFERENCE_SIZES if name in STRUCTURED])
def test_structured_operators_match_broadcast_matrices(name, n):
    A, *_ = GENERATORS[name](n)
    entries, *_ = REFERENCES[name](n)
    fro = float(np.sqrt(np.sum(np.square(entries, dtype=np.longdouble))))
    assert abs(A.frobenius_norm() - fro) <= FROBENIUS_RTOL * fro
    rng = np.random.default_rng(n)
    for _ in range(10):
        v = rng.standard_normal(n)
        bound = PRODUCT_RTOL * fro * np.linalg.norm(v)
        assert np.linalg.norm(A.apply(v) - entries @ v) <= bound
        assert np.linalg.norm(A.apply_adjoint(v) - entries.T @ v) <= bound


N_BUILD = 1000


def _build_peak_bytes(name):
    """Peak traced allocation of one build at n = N_BUILD.  A first, small
    build takes the one-off import allocations out of the count."""
    build_problem(name, 16, 0.01, 3)
    tracemalloc.start()
    try:
        build_problem(name, N_BUILD, 0.01, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,bound", [("shaw", 1.25), ("baart", 1.25)])
def test_build_peak_memory(name, bound):
    # in n x n float64 buffers: the generators fill one buffer in place
    # (shaw in blocks of 32 rows) and the operator adopts it without a copy;
    # both measured 1.13 (shaw in blocks of 64 rows: 1.21, of 128: 1.40)
    assert _build_peak_bytes(name) <= bound * 8 * N_BUILD**2


@pytest.mark.parametrize("name", STRUCTURED)
def test_structured_build_peak_memory(name):
    # O(n) float64s: deriv2 and heat keep only their generators (measured
    # 7.3 n and 10.5 n), never an n x n array
    assert _build_peak_bytes(name) <= 16 * 8 * N_BUILD


@pytest.mark.parametrize("name", [*GENERATORS, "blur2d"])
def test_generators_require_integer_sizes(name):
    gen = gen_blur2d if name == "blur2d" else GENERATORS[name]
    for size in (100.5, 64.0, True):
        with pytest.raises(ValueError, match=f"{name} size must be an integer"):
            gen(size)
    A, x_true, _ = gen(np.int64(16))
    assert A.cols == x_true.shape[0] == (256 if name == "blur2d" else 16)


def test_blur_delta_kernel_limit():
    A, x_true, b_true = gen_blur2d(16, psf_sigma=0.05)
    assert np.linalg.norm(b_true - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_blur_factor_rows_normalized():
    A, *_ = gen_blur2d(12, psf_sigma=2.5)
    sums = A.factor.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_blur_matches_explicit_kronecker():
    A, x_true, b_true = gen_blur2d(12, psf_sigma=1.5)
    dense = np.kron(A.factor, A.factor)
    v = np.sin(np.arange(144.0))
    np.testing.assert_allclose(A.apply(v), dense @ v, atol=1e-12)


def _uncut_blur_factor(N, psf_sigma=2.0):
    """The blur factor with every Gaussian sample kept: the formula before
    the cut, as an oracle."""
    idx = np.arange(N)
    factor = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * psf_sigma**2))
    return factor / factor.sum(axis=1, keepdims=True)


def test_blur_factor_cut_at_working_precision():
    A, *_ = gen_blur2d(96)
    factor = A.factor
    row_peak = factor.max(axis=1, keepdims=True)
    assert np.all((factor == 0.0) | (factor >= np.finfo(np.float64).eps * row_peak))
    assert np.count_nonzero(factor) < factor.size  # the far tails are cut at N=96
    np.testing.assert_allclose(factor.sum(axis=1), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", [96, 128])
def test_blur_cut_changes_products_by_rounding_only(N):
    A, x_true, _ = gen_blur2d(N)
    G = _uncut_blur_factor(N)
    ref = (G @ x_true.reshape((N, N), order="F") @ G.T).ravel(order="F")
    assert np.linalg.norm(A.apply(x_true) - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_psf_sigma_must_be_positive_and_finite(sigma):
    with pytest.raises(ValueError, match="psf_sigma must be positive and finite"):
        gen_blur2d(16, sigma)
    with pytest.raises(ValueError, match="psf_sigma must be positive and finite"):
        ExperimentSpec(problem="blur2d", size=16, epsilons=(0.01,), seed=0,
                       methods=("hyb_cgme",), psf_sigma=sigma)


@pytest.mark.parametrize("name", ["shaw", "heat"])
def test_odd_sizes_rejected_by_the_one_request_check(name):
    # the generator, the build and the spec share the parity rule, so an
    # experiment on an odd size fails at construction, before any run
    builds = (GENERATORS[name], lambda n: build_problem(name, n, 0.01, 0),
              lambda n: ExperimentSpec(problem=name, size=n, epsilons=(0.01,), seed=0, methods=("cgme",)))
    for build in builds:
        with pytest.raises(ValueError, match=f"{name} size must be even, got 99"):
            build(99)


def test_make_L_shapes():
    L1 = make_L("first_diff_1d", 4)
    assert (L1.rows, L1.cols) == (3, 4)
    dense = L1.to_dense()
    np.testing.assert_allclose(dense[0], [1.0, -1.0, 0.0, 0.0])
    L2 = make_L("first_diff_2d", 3)
    assert (L2.rows, L2.cols) == (12, 9)
    assert isinstance(L2, Stacked2DDifferenceOperator)
    LI = make_L("identity", 5)
    np.testing.assert_allclose(LI.apply([1.0, 2.0, 3.0, 4.0, 5.0]), [1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        make_L("second_diff", 5)


def test_add_noise_exact_level_and_determinism():
    rng = np.random.default_rng(0)
    b_true = rng.standard_normal(500)
    b1 = add_noise(b_true, 0.1, seed=42)
    b2 = add_noise(b_true, 0.1, seed=42)
    level = np.linalg.norm(b1 - b_true) / np.linalg.norm(b_true)
    assert abs(level - 0.1) <= 1e-12
    np.testing.assert_array_equal(b1, b2)


def test_add_noise_seeds_decorrelated():
    rng = np.random.default_rng(0)
    b_true = rng.standard_normal(1000)
    e1 = add_noise(b_true, 0.1, seed=1) - b_true
    e2 = add_noise(b_true, 0.1, seed=2) - b_true
    rho = (e1 @ e2) / (np.linalg.norm(e1) * np.linalg.norm(e2))
    assert abs(rho) < 0.2


@pytest.mark.parametrize("name,size", [("shaw", 64), ("baart", 40), ("blur2d", 10)])
def test_with_noise_equals_a_fresh_build(name, size):
    base = build_problem(name, size, 0.1, 7)
    moved = with_noise(base, 0.01)
    fresh = build_problem(name, size, 0.01, 7)
    assert moved.A is base.A and moved.L is base.L
    for attr in ("b", "b_true", "x_true"):
        np.testing.assert_array_equal(getattr(moved, attr), getattr(fresh, attr))
    fields = ("name", "size", "epsilon", "seed")
    assert [getattr(moved, f) for f in fields] == [getattr(fresh, f) for f in fields]


def test_add_noise_validation():
    with pytest.raises(ValueError):
        add_noise(np.zeros(4), 0.1, 0)
    with pytest.raises(ValueError):
        add_noise(np.ones(4), -0.5, 0)


@pytest.mark.parametrize(
    "b_true",
    [
        # a matrix took one noise vector on every row, a non-finite entry
        # spread to every entry, and a scalar raised IndexError
        pytest.param(np.ones((3, 3)), id="matrix"),
        pytest.param([np.inf, 1.0], id="inf"),
        pytest.param([np.nan, 1.0], id="nan"),
        pytest.param(2.0, id="scalar"),
    ],
)
def test_add_noise_requires_a_finite_vector(b_true):
    with pytest.raises(ValueError, match="b_true must be a finite 1-D vector"):
        add_noise(b_true, 0.1, 0)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_add_noise_rejects_nonfinite_level(epsilon):
    with pytest.raises(ValueError, match="finite"):
        add_noise(np.ones(4), epsilon, 0)


@pytest.mark.parametrize(
    "epsilon, seed, message",
    [
        pytest.param(True, 1, "epsilon", id="epsilon-bool"),
        pytest.param(1.5, 1, "epsilon", id="epsilon-above-1"),
        pytest.param("0.1", 1, "epsilon", id="epsilon-str"),
        pytest.param(0.1, True, "seed must be a non-negative integer", id="seed-bool"),
        pytest.param(0.1, 1.5, "seed must be a non-negative integer", id="seed-float"),
        pytest.param(0.1, -1, "seed must be a non-negative integer", id="seed-negative"),
    ],
)
def test_noise_level_and_seed_follow_one_rule(epsilon, seed, message):
    # add_noise (and so build_problem and with_noise) and ExperimentSpec
    # refuse the same noise levels and seeds, with the same message
    with pytest.raises(ValueError, match=message):
        add_noise(np.ones(4), epsilon, seed)
    with pytest.raises(ValueError, match=message):
        build_problem("shaw", 16, epsilon, seed)
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(problem="shaw", size=16, epsilons=(epsilon,), seed=seed, methods=("cgme",))
