"""Seeded generators for ill-posed test problems and regularizers.

The four classic 1-D Fredholm/Volterra discretizations (shaw, baart,
deriv2, heat) are built on midpoint grids; the clean right-hand side is
always computed as ``b_true = A @ x_true`` so the consistency assumption
of the solvers holds to machine precision rather than to quadrature
accuracy.  A separable Gaussian blur, its PSF cut to zero below float64
``eps`` of its peak, provides a desk-scale 2-D problem.
deriv2 and heat keep O(n) generators; shaw and baart fill one n x n buffer
in place (shaw in mirrored blocks of rows), which the returned DenseOperator
adopts uncopied: a build's traced peak is about 1.13 such buffers.

Noise is Gaussian white noise rescaled so the relative noise level
``|e| / |b_true|`` equals the requested epsilon exactly.  All randomness
flows through ``numpy.random.default_rng`` (PCG64), so instances are
reproducible from ``(name, size, epsilon, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    DenseOperator,
    FirstDifferenceOperator,
    IdentityOperator,
    KroneckerBlurOperator,
    LinearOperator,
    LowerToeplitzOperator,
    Stacked2DDifferenceOperator,
    SymmetricSemiseparableOperator,
    _is_int,
    _is_real,
)

__all__ = [
    "ProblemInstance",
    "PROBLEM_NAMES",
    "L_KINDS",
    "gen_shaw",
    "gen_baart",
    "gen_deriv2",
    "gen_heat",
    "gen_blur2d",
    "make_L",
    "add_noise",
    "with_noise",
    "build_problem",
]

_MIN_N = 8
_EVEN_SIZES = ("shaw", "heat")
_SHAW_BLOCK = 32  # rows per block of gen_shaw, whose scratch is a few such blocks


@dataclass
class ProblemInstance:
    """One noisy inverse problem: operator ``A``, regularizer ``L``, truth and
    data.  The regularizer kind and blur width that built them are not kept."""

    name: str
    A: LinearOperator
    L: LinearOperator
    x_true: np.ndarray
    b_true: np.ndarray
    b: np.ndarray
    epsilon: float
    seed: int
    size: int


def _check_n(n: int, name: str) -> None:
    if not _is_int(n) or n < _MIN_N:
        raise ValueError(f"{name} size must be an integer >= {_MIN_N}, got {n!r}")
    if name in _EVEN_SIZES and n % 2 != 0:
        raise ValueError(f"{name} size must be even, got {n}")


def _check_psf_sigma(psf_sigma) -> None:
    """Reject a blur width that is not a positive finite number."""
    if not _is_real(psf_sigma) or not 0.0 < psf_sigma < np.inf:  # NaN fails both
        raise ValueError(f"psf_sigma must be positive and finite, got {psf_sigma!r}")


def gen_shaw(n: int) -> tuple[DenseOperator, np.ndarray, np.ndarray]:
    """1-D image restoration model (severely ill-posed).

    Kernel ``(cos s + cos t)^2 (sin u / u)^2`` with
    ``u = pi (sin s + sin t)`` on ``[-pi/2, pi/2]^2``; true solution a sum
    of two Gaussians.  The midpoint-rule matrix is symmetric.
    """
    _check_n(n, "shaw")
    h = np.pi / n
    t = -np.pi / 2 + (np.arange(1, n + 1) - 0.5) * h
    co = np.cos(t)
    psi = np.pi * np.sin(t)
    # h (co_i + co_j)^2 sinc(u / pi)^2, each step in np.sinc's order so that
    # every entry keeps its bits; rows i:i+_SHAW_BLOCK fill columns i: and,
    # transposed, the mirrored block below the diagonal
    entries = np.empty((n, n))
    for i in range(0, n, _SHAW_BLOCK):
        rows = slice(i, i + _SHAW_BLOCK)
        u = np.add.outer(psi[rows], psi[i:])
        u /= np.pi
        u *= np.pi
        u[u == 0.0] = np.finfo(np.float64).eps  # np.sinc's guard: sin(y)/y = 1
        block = np.sin(u) / u
        block *= block
        block *= np.add.outer(co[rows], co[i:]) ** 2 * h
        entries[rows, i:] = block
        entries[i:, rows] = block.T
    x_true = 2.0 * np.exp(-6.0 * (t - 0.8) ** 2) + np.exp(-2.0 * (t + 0.5) ** 2)
    return DenseOperator._adopt(entries), x_true, entries @ x_true


def gen_baart(n: int) -> tuple[DenseOperator, np.ndarray, np.ndarray]:
    """1-D gravity-surveying style problem (severely ill-posed).

    Kernel ``exp(s cos t)`` for ``s in [0, pi/2]``, ``t in [0, pi]``;
    true solution ``sin t``.
    """
    _check_n(n, "baart")
    hs = (np.pi / 2) / n
    ht = np.pi / n
    s = (np.arange(1, n + 1) - 0.5) * hs
    t = (np.arange(1, n + 1) - 0.5) * ht
    entries = np.multiply.outer(s, np.cos(t))
    np.exp(entries, out=entries)
    entries *= ht
    x_true = np.sin(t)
    return DenseOperator._adopt(entries), x_true, entries @ x_true


def gen_deriv2(n: int) -> tuple[SymmetricSemiseparableOperator, np.ndarray, np.ndarray]:
    """Second-derivative (Green's function) problem (mildly ill-posed).

    Kernel ``s (t - 1)`` for ``s < t`` and ``t (s - 1)`` otherwise on the
    unit square (semiseparable); true solution ``x(t) = t`` at midpoints.
    """
    _check_n(n, "deriv2")
    h = 1.0 / n
    t = (np.arange(1, n + 1) - 0.5) * h
    A = SymmetricSemiseparableOperator(h * t, t - 1.0)
    return A, t, A.apply(t)


def gen_heat(n: int) -> tuple[LowerToeplitzOperator, np.ndarray, np.ndarray]:
    """Inverse heat equation (moderately ill-posed).

    Volterra kernel ``t^{-3/2} / (2 sqrt(pi)) * exp(-1/(4t))`` (unit
    conductivity), discretized as a lower-triangular Toeplitz matrix on
    midpoints; true solution is the classic ramp/hump profile supported
    on the first half of the interval.
    """
    _check_n(n, "heat")
    h = 1.0 / n
    t = (np.arange(1, n + 1) - 0.5) * h
    A = LowerToeplitzOperator((h / (2.0 * np.sqrt(np.pi))) * t ** (-1.5) * np.exp(-0.25 / t))
    x_true = np.zeros(n)
    ti = np.arange(1, n // 2 + 1) * (20.0 / n)
    half = np.where(
        ti < 2.0,
        0.75 * ti**2 / 4.0,
        np.where(ti < 3.0, 0.75 + (ti - 2.0) * (3.0 - ti), 0.75 * np.exp(-(ti - 3.0) * 2.0)),
    )
    x_true[: n // 2] = half
    return A, x_true, A.apply(x_true)


def _piecewise_image(n: int) -> np.ndarray:
    x = np.zeros((n, n))
    x[n // 8 : n // 2, n // 8 : n // 2] = 1.0
    x[5 * n // 8 : 7 * n // 8, n // 4 : 3 * n // 4] = 0.5
    return x


def gen_blur2d(N: int, psf_sigma: float = 2.0) -> tuple[KroneckerBlurOperator, np.ndarray, np.ndarray]:
    """Separable Gaussian blur of an ``N x N`` piecewise-constant image.

    Each factor row is a sampled 1-D Gaussian normalized to unit sum
    (zero boundary: mass leaving the image is renormalized away).  Samples
    below float64 ``eps`` of the peak (beyond about 8.5 sigma) are zeroed
    first: they change no product beyond rounding, but their subnormal
    partial products would put every product on the CPU's slow path.
    """
    _check_n(N, "blur2d")
    _check_psf_sigma(psf_sigma)
    idx = np.arange(N)
    factor = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * psf_sigma**2))
    factor[factor < np.finfo(np.float64).eps] = 0.0
    factor /= factor.sum(axis=1, keepdims=True)
    A = KroneckerBlurOperator(factor)
    x_img = _piecewise_image(N)
    x_true = x_img.ravel(order="F")
    return A, x_true, A.apply(x_true)


L_KINDS = ("identity", "first_diff_1d", "first_diff_2d")


def make_L(kind: str, dims: int) -> LinearOperator:
    """Regularization operator factory.

    ``identity`` and ``first_diff_1d`` take the vector length; the 2-D
    stack takes the image side ``N`` (acting on length ``N^2`` vectors).
    """
    if kind == "identity":
        return IdentityOperator(dims)
    if kind == "first_diff_1d":
        return FirstDifferenceOperator(dims)
    if kind == "first_diff_2d":
        return Stacked2DDifferenceOperator(dims)
    raise ValueError(f"unknown regularizer kind {kind!r}; expected one of {L_KINDS}")


def _check_noise(epsilon: float, seed: int) -> None:
    """The one rule for a noise level and a seed, for :func:`add_noise` and
    ``ExperimentSpec`` alike."""
    if not _is_real(epsilon) or not 0.0 < epsilon < 1.0:  # NaN fails both
        raise ValueError(f"epsilon must be a finite real in (0, 1), got {epsilon!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def add_noise(b_true, epsilon: float, seed: int) -> np.ndarray:
    """Add seeded Gaussian noise rescaled so ``|e| = epsilon |b_true|``, for
    a real ``epsilon`` in (0, 1) and a non-negative integer ``seed``."""
    _check_noise(epsilon, seed)
    b_true = np.asarray(b_true, dtype=np.float64)
    bnorm = np.linalg.norm(b_true)
    if bnorm == 0.0:
        raise ValueError("cannot scale noise against a zero right-hand side")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(b_true.shape[0])
    e *= epsilon * bnorm / np.linalg.norm(e)
    return b_true + e


def with_noise(problem: ProblemInstance, epsilon: float) -> ProblemInstance:
    """``problem`` at another noise level, from its own seed: fresh data
    ``b = add_noise(b_true, epsilon, seed)``, the same (shared) operators
    and truth.  Equal to ``build_problem`` at that level, without a rebuild."""
    return replace(problem, b=add_noise(problem.b_true, epsilon, problem.seed), epsilon=epsilon)


_GENERATORS_1D = {
    "shaw": gen_shaw,
    "baart": gen_baart,
    "deriv2": gen_deriv2,
    "heat": gen_heat,
}

PROBLEM_NAMES = (*_GENERATORS_1D, "blur2d")


def _check_request(name: str, size: int, L_kind: str | None, psf_sigma) -> None:
    """The one check of a problem request, for :func:`build_problem` and
    ``ExperimentSpec`` alike: name, size, regularizer kind and blur width."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    _check_n(size, name)
    if L_kind is not None and L_kind not in L_KINDS:
        raise ValueError(f"unknown L_kind {L_kind!r}; expected one of {L_KINDS}")
    if L_kind == "first_diff_2d" and name != "blur2d":
        raise ValueError(f"L_kind first_diff_2d does not apply to 1-D problem {name!r}")
    _check_psf_sigma(psf_sigma)


def build_problem(
    name: str,
    size: int,
    epsilon: float,
    seed: int,
    L_kind: str | None = None,
    psf_sigma: float = 2.0,
) -> ProblemInstance:
    """Assemble a full noisy instance.

    ``size`` is the vector length for 1-D problems and the image side
    for ``blur2d``.  The default regularizer is the first-difference
    operator matching the problem dimensionality.  A bad request raises
    ``ValueError`` before any work.
    """
    _check_request(name, size, L_kind, psf_sigma)
    if name in _GENERATORS_1D:
        A, x_true, b_true = _GENERATORS_1D[name](size)
        L = make_L(L_kind or "first_diff_1d", size)
    else:
        A, x_true, b_true = gen_blur2d(size, psf_sigma)
        kind = L_kind or "first_diff_2d"
        L = make_L(kind, size if kind == "first_diff_2d" else size * size)
    b = add_noise(b_true, epsilon, seed)
    return ProblemInstance(
        name=name, A=A, L=L, x_true=x_true, b_true=b_true, b=b,
        epsilon=epsilon, seed=seed, size=size,
    )
