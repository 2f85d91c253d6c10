"""Shared fixtures for the test suite.

Small CT matrices built once per session; both compute backends are
exercised through the ``backend`` fixture (C kernels when a compiler is
present, NumPy always).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.api import build_ct_matrix
from repro.geometry.parallel_beam import ParallelBeamGeometry


@pytest.fixture(scope="session", autouse=True)
def _hermetic_operator_cache(tmp_path_factory):
    """Point the operator cache at a throwaway root for the whole session.

    Patches :func:`repro.config.operator_cache_dir` rather than
    ``REPRO_CACHE_DIR`` so the compiled-kernel cache (and its warm .so
    files) stays untouched.
    """
    root = str(tmp_path_factory.mktemp("operator-cache"))
    prev = config.operator_cache_dir
    config.operator_cache_dir = lambda: root
    yield root
    config.operator_cache_dir = prev


@pytest.fixture(scope="session")
def small_ct():
    """32x32 strip-model CT matrix + geometry (float64)."""
    return build_ct_matrix(32)


@pytest.fixture(scope="session")
def small_ct_f32():
    """32x32 strip-model CT matrix + geometry (float32)."""
    return build_ct_matrix(32, dtype=np.float32)


@pytest.fixture(scope="session")
def fine_ct():
    """48x48 matrix with fine angular sampling (realistic CSCV padding)."""
    geom = ParallelBeamGeometry.for_image(48, num_views=96)
    return build_ct_matrix(48, geom=geom, dtype=np.float32)


@pytest.fixture(params=["auto", "numpy"])
def backend(request):
    """Run a test under both the compiled and the NumPy backend."""
    prev = config.runtime.backend
    config.runtime.backend = request.param
    yield request.param
    config.runtime.backend = prev


@pytest.fixture(params=["sirt", "cgls", "os_sart", "art"])
def iterative_solver(request):
    """Each iterative solver's public function, called uniformly.

    Returns ``solve(op, geom, sinogram, **kwargs)`` (OS-SART gets the
    operator's CSR matrix and the geometry); ``solve.name`` is the
    solver's metric and span prefix.
    """
    from repro import recon

    name = request.param
    fn = getattr(recon, f"{name}_reconstruct")

    def solve(op, geom, sinogram, **kwargs):
        if name == "os_sart":
            return fn(op.to_csr(), geom, sinogram, **kwargs)
        return fn(op, sinogram, **kwargs)

    solve.name = name
    return solve


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
