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


def random_orthonormal(n: int, k: int, seed: int = 0) -> np.ndarray:
    """Orthonormal n x k block from a seeded Gaussian QR."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def no_reorth(monkeypatch):
    """Run the Golub-Kahan recurrence without reorthogonalization, so the
    basis loses orthogonality as the raw recurrence does."""
    monkeypatch.setattr("krylreg.bidiag._reorthogonalize", lambda r, block: r)
