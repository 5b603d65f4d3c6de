"""Locate the krylreg sources of this checkout and pin the BLAS threads.

Every entry point of the benchmark calls :func:`prepare` before it imports
numpy or krylreg: the BLAS thread count is read from the environment when
the library loads, and the package must come from this checkout's ``src``
directory, never from an installed copy.

BLAS runs on one thread.  On a shared 2-vCPU host a 2-thread call waits for
the slower vCPU, and pass times of the dense-matvec workload then spread
about four times wider than with one thread.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def prepare() -> None:
    """Put ``src`` first on ``sys.path`` and pin the BLAS threads.

    Exits with status 2 when the checkout holds no krylreg sources.
    """
    if not (SRC / "krylreg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no krylreg sources under {SRC}\n")
        raise SystemExit(2)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
