import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from magwell.montgomery import minimizer_state
from magwell.model2d import Field2DConfig, run_sweep

REFERENCE_BAND_DATA = {
    # k: (alpha_min, nu_hat, lambda_1); reference values for this operator
    # family, stable to 1e-2
    1: (0.35, 0.57, 1.98),
    2: (0.00, 0.66, 2.50),
    3: (0.16, 0.68, 2.61),
    4: (0.00, 0.76, 2.98),
    5: (0.10, 0.81, 3.18),
    6: (0.00, 0.87, 3.47),
    7: (0.07, 0.92, 3.66),
}


@pytest.fixture(scope="session")
def states():
    """Converged minimizer states for k = 1..7, computed once per session;
    tests that need a band minimum read it from here instead of solving
    again."""
    return {k: minimizer_state(k) for k in range(1, 8)}


@pytest.fixture(scope="session")
def sweep2d():
    """The full k=1 validation sweep; shared by the acceptance criteria."""
    config = Field2DConfig.default(k=1)
    return config, run_sweep(config, m_count=4)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads(monkeypatch, threads=None, cores=2):
    """Clear the BLAS thread variables, then set OPENBLAS_NUM_THREADS,
    OMP_NUM_THREADS and MKL_NUM_THREADS to `threads` (if given) and show
    `cores` usable cores: what the h sweep (`_workers.sweep_workers`) reads
    to choose between worker processes and in process."""
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    if threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(name, str(threads))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.fixture(params=["pinned", "unpinned"])
def blas(request, monkeypatch):
    """Runs a test twice: with BLAS pinned to one thread on two cores, where
    an h sweep runs in a pool of two forked workers, and with the BLAS thread
    variables unset, where it runs in process."""
    set_blas_threads(monkeypatch, 1 if request.param == "pinned" else None)
    return request.param
