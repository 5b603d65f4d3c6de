import os
import sys
from pathlib import Path

import numpy as np
import pytest

# Test this checkout's sources, in-process and in the CLI subprocesses,
# whether or not krylreg is installed or PYTHONPATH is set.
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from krylreg.bidiag import BidiagState, _ColumnBlock
from krylreg.hybrid import KrylovIterate
from krylreg.operators import DenseOperator
from krylreg.problems import ProblemInstance, add_noise, make_L


def random_orthonormal(n: int, k: int, seed: int = 0) -> np.ndarray:
    """Orthonormal n x k block from a seeded Gaussian QR."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


def make_state(alphas, betas, m=None, n=None):
    """State with identity P/Q blocks and prescribed coefficients, and no
    operator: only an extension or an oracle reads ``state.A``."""
    k = len(alphas)
    m = m or k + 1
    n = n or k + 1
    p = _ColumnBlock(m)
    for j in range(min(k + 1, m)):
        p.append(np.eye(m)[:, j])
    q = _ColumnBlock(n)
    for j in range(k):
        q.append(np.eye(n)[:, j])
    return BidiagState(None, p, q, list(alphas), list(betas), 1e-300)


def difference_matrix(n: int) -> np.ndarray:
    """The ``(n-1) x n`` forward first-difference matrix, rows (1, -1)."""
    return np.eye(n - 1, n) - np.eye(n - 1, n, k=1)


def coefficients(Q, c):
    """``x_k = Q c`` carried as ``c``, as the sweep passes it."""

    def kernel(state, k, coeffs=False):
        return c if coeffs else Q @ c

    return KrylovIterate(kernel, None, len(c))


def rectangular_baart(m, n, L_kind, eps=1e-2, seed=3):
    """baart's kernel ``exp(s cos t)`` on ``m`` midpoints ``s`` in
    ``[0, pi/2]`` and ``n`` midpoints ``t`` in ``[0, pi]``: an ``m x n`` ``A``."""
    s = (np.arange(1, m + 1) - 0.5) * ((np.pi / 2) / m)
    t = (np.arange(1, n + 1) - 0.5) * (np.pi / n)
    A = DenseOperator((np.pi / n) * np.exp(np.multiply.outer(s, np.cos(t))))
    x_true = np.sin(t)
    b_true = A.apply(x_true)
    return ProblemInstance(
        name="baart-rect", A=A, L=make_L(L_kind, n), x_true=x_true, b_true=b_true,
        b=add_noise(b_true, eps, seed), epsilon=eps, seed=seed, size=n,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def no_reorth(monkeypatch):
    """Run the Golub-Kahan recurrence without reorthogonalization, so the
    basis loses orthogonality as the raw recurrence does."""
    monkeypatch.setattr("krylreg.bidiag._reorthogonalize", lambda r, block: (r, float(np.linalg.norm(r))))


def pinv_oracle(L, Q, x_k):
    """Acceptance criterion 3's closed form of the inner solve:
    ``x_L = x_k - pinv(L (I - Q Q^T), rcond=1e-10) L x_k``."""
    Ld = L.to_dense()
    M = Ld @ (np.eye(Q.shape[0]) - Q @ Q.T)
    return x_k - np.linalg.pinv(M, rcond=1e-10) @ (Ld @ x_k)
