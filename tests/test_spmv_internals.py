"""Tests for the SpMV driver internals and the C transpose kernels."""

import dataclasses

import numpy as np
import pytest

from repro import api, config
from repro.core.builder import build_cscv
from repro.core.format_m import CSCVMMatrix
from repro.core.format_z import CSCVZMatrix
from repro.core.params import CSCVParams
from repro.core.spmv import (
    _mask_lanes,
    chunk_plan,
    resolve_flat_rows_m,
    resolve_flat_rows_z,
)
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.geometry.projector_strip import strip_area_matrix
from repro.kernels import chunks
from repro.kernels.cbindings import load_library
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

THREADS = (1, 2, 4)
FORMATS = ("cscv-z", "cscv-m", "csr")


def _small_chunks(mp: pytest.MonkeyPatch) -> None:
    """Chunk constants that split test-sized operators into many chunks,
    so the threaded C drivers (not only the serial path) run."""
    mp.setattr(chunks, "CHUNK_MIN_WORK", 256)
    mp.setattr(chunks, "CHUNK_WORK_PER_OUTPUT", 0)


@pytest.fixture
def compiled(monkeypatch):
    """The compiled backend, whatever ``REPRO_BACKEND`` says (or skip)."""
    if load_library() is None:
        pytest.skip("compiled kernels unavailable")
    monkeypatch.setattr(config.runtime, "backend", "auto")


@pytest.fixture(scope="module")
def data():
    geom = ParallelBeamGeometry.for_image(20, num_views=24)
    rows, cols, vals = strip_area_matrix(geom)
    coo = COOMatrix.from_coo(geom.shape, rows, cols, vals)
    return build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 5, 2)), coo


class TestMaskLanes:
    def test_simple_masks(self):
        masks = np.array([0b1011, 0b0100], dtype=np.uint32)
        lanes = _mask_lanes(masks, 4)
        np.testing.assert_array_equal(lanes, [0, 1, 3, 2])

    def test_empty(self):
        assert _mask_lanes(np.zeros(0, dtype=np.uint32), 8).size == 0

    def test_full_mask(self):
        lanes = _mask_lanes(np.array([0xFF], dtype=np.uint32), 8)
        np.testing.assert_array_equal(lanes, np.arange(8))

    def test_total_popcount(self, data):
        d, _ = data
        lanes = _mask_lanes(d.masks, d.params.s_vvec)
        assert lanes.size == d.nnz


class TestFlatRows:
    def test_z_rows_cover_all_matrix_rows(self, data):
        d, coo = data
        rows = resolve_flat_rows_z(d)
        assert rows.size == d.stored_slots
        touched = np.unique(rows[rows >= 0])
        expected = np.unique(coo.rows)
        assert set(expected).issubset(set(touched.tolist()))

    def test_m_rows_all_valid(self, data):
        d, coo = data
        rows = resolve_flat_rows_m(d)
        assert rows.size == d.nnz
        assert rows.min() >= 0
        # multiset of rows matches the original COO rows
        np.testing.assert_array_equal(np.sort(rows), np.sort(coo.rows))

    def test_z_valid_slots_hold_values(self, data):
        # every nonzero value sits in a slot with a valid row
        d, _ = data
        rows = resolve_flat_rows_z(d)
        nonzero_slots = d.values != 0
        assert np.all(rows[nonzero_slots] >= 0)


class TestTransposeKernelEquivalence:
    """C tspmv kernel vs NumPy fallback must agree bit-for-bit-ish."""

    @pytest.fixture(scope="class")
    def z(self, fine_ct):
        coo, geom = fine_ct
        return CSCVZMatrix.from_ct(coo, geom, CSCVParams(8, 16, 2)), coo

    def test_backends_agree(self, z, rng):
        fmt, coo = z
        y = rng.random(coo.shape[0]).astype(np.float32)
        prev = config.runtime.backend
        try:
            config.runtime.backend = "auto"
            a = fmt.transpose_spmv(y)
            config.runtime.backend = "numpy"
            b = fmt.transpose_spmv(y)
        finally:
            config.runtime.backend = prev
        rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)
        assert rel < 1e-5

    def test_forward_backward_normal_psd(self, z, rng):
        # <A^T A x, x> >= 0 for all x (positive semidefinite normal op)
        fmt, coo = z
        for _ in range(3):
            x = rng.standard_normal(coo.shape[1]).astype(np.float32)
            val = float(x @ fmt.transpose_spmv(fmt.spmv(x)))
            assert val >= -1e-3 * np.abs(x).max() ** 2


class TestDeterminism:
    def test_spmv_bitwise_repeatable(self, data, monkeypatch):
        _small_chunks(monkeypatch)
        d = dataclasses.replace(data[0])  # fresh plan under the small chunks
        assert chunk_plan(d).count > 4
        x = np.linspace(-1, 1, d.shape[1])
        for fmt in (CSCVZMatrix(d, threads=4), CSCVMMatrix(d, threads=4)):
            first = fmt.spmv(x)
            for _ in range(19):
                assert fmt.spmv(x).tobytes() == first.tobytes()

    def test_builder_deterministic(self):
        geom = ParallelBeamGeometry.for_image(12, num_views=16)
        rows, cols, vals = strip_area_matrix(geom)
        a = build_cscv(rows, cols, vals, geom, CSCVParams(4, 4, 2))
        b = build_cscv(rows, cols, vals, geom, CSCVParams(4, 4, 2))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.ymap, b.ymap)


class TestFailureInjection:
    """Corrupted CSCV structures must be caught, not segfault."""

    def test_vxg_overrun_detected(self, data):
        from repro.core.builder import _validate
        from repro.errors import FormatError

        d, _ = data
        import copy

        bad = copy.copy(d)
        bad.vxg_start = d.vxg_start.copy()
        bad.vxg_start[0] = 10**6  # way past any block's ytilde
        with pytest.raises(FormatError):
            _validate(bad)

    def test_packed_count_mismatch_detected(self, data):
        from repro.core.builder import _validate
        from repro.errors import FormatError

        d, _ = data
        import copy

        bad = copy.copy(d)
        bad.voff = d.voff.copy()
        bad.voff[-1] = d.nnz + 5
        with pytest.raises(FormatError):
            _validate(bad)

    def test_map_injectivity_checked_in_paranoid_mode(self, data):
        from repro.core.builder import _validate
        from repro.errors import FormatError

        d, _ = data
        import copy

        bad = copy.copy(d)
        bad.ymap = d.ymap.copy()
        # duplicate one valid target within the first block
        valid_idx = np.flatnonzero(bad.ymap[: bad.blk_map_ptr[1]] >= 0)
        if valid_idx.size >= 2:
            bad.ymap[valid_idx[1]] = bad.ymap[valid_idx[0]]
            prev = config.runtime.paranoid_checks
            config.runtime.paranoid_checks = True
            try:
                with pytest.raises(FormatError):
                    _validate(bad)
            finally:
                config.runtime.paranoid_checks = prev


# ---------------------------------------------------------------------- #
# thread-count invariance of the compiled drivers (the chunk rule)


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["f32", "f64"])
def chunked(request):
    """CSCV-Z, CSCV-M and CSR operators, each split into many chunks."""
    mp = pytest.MonkeyPatch()
    _small_chunks(mp)
    dtype = request.param
    geom = ParallelBeamGeometry.for_image(24, num_views=32)
    rows, cols, vals = strip_area_matrix(geom)
    coo = COOMatrix.from_coo(geom.shape, rows, cols, vals, dtype=dtype)
    d = build_cscv(coo.rows, coo.cols, coo.vals, geom, CSCVParams(8, 8, 2), dtype)
    fmts = {
        "cscv-z": CSCVZMatrix(d),
        "cscv-m": CSCVMMatrix(d),
        "csr": CSRMatrix.from_coo_matrix(coo),
    }
    assert chunk_plan(d).count > 4 and fmts["csr"].chunk_plan().count > 4
    yield fmts
    mp.undo()


def _products(fmt, X, Y):
    """Forward and adjoint of the stacks; 1-D products too when k == 1."""
    out = [fmt.spmm(X), fmt.transpose_spmm(Y)]
    if X.shape[1] == 1:
        out += [fmt.spmv(X[:, 0].copy()), fmt.transpose_spmv(Y[:, 0].copy())]
    return out


def _stacks(fmt, k, seed=0):
    rng = np.random.default_rng(seed)
    m, n = fmt.shape
    X = np.ascontiguousarray(rng.standard_normal((n, k)), dtype=fmt.dtype)
    Y = np.ascontiguousarray(rng.standard_normal((m, k)), dtype=fmt.dtype)
    return X, Y


@pytest.mark.usefixtures("compiled")
class TestThreadCountInvariance:
    """Every compiled product is bitwise-identical for any thread count."""

    @pytest.mark.parametrize("name", FORMATS)
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_bitwise_across_thread_counts(self, chunked, name, k, monkeypatch):
        fmt = chunked[name]
        X, Y = _stacks(fmt, k)
        runs = {}
        for t in THREADS:
            monkeypatch.setattr(config.runtime, "threads", t)
            runs[t] = _products(fmt, X, Y)
        for t in THREADS[1:]:
            for a, b in zip(runs[THREADS[0]], runs[t]):
                assert a.tobytes() == b.tobytes(), (name, k, t)

    @pytest.mark.parametrize("name", FORMATS)
    @pytest.mark.parametrize("k", [3, 8])
    def test_columns_equal_their_k1_runs(self, chunked, name, k, monkeypatch):
        monkeypatch.setattr(config.runtime, "threads", 2)
        fmt = chunked[name]
        X, Y = _stacks(fmt, k)
        wide_fwd, wide_adj = fmt.spmm(X), fmt.transpose_spmm(Y)
        for j in range(k):
            solo_adj = fmt.transpose_spmm(np.ascontiguousarray(Y[:, j:j + 1]))
            solo_fwd = fmt.spmm(np.ascontiguousarray(X[:, j:j + 1]))
            assert solo_adj[:, 0].tobytes() == wide_adj[:, j].copy().tobytes()
            assert solo_fwd[:, 0].tobytes() == wide_fwd[:, j].copy().tobytes()

    @pytest.mark.parametrize("name", FORMATS)
    def test_1d_adjoint_equals_m1_adjoint(self, chunked, name):
        fmt = chunked[name]
        _, Y = _stacks(fmt, 1)
        one_d = fmt.transpose_spmv(Y[:, 0].copy())
        stacked = fmt.transpose_spmm(Y)
        assert one_d.tobytes() == stacked[:, 0].copy().tobytes()

    @pytest.mark.parametrize("name", FORMATS)
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_c_matches_numpy_reference(self, chunked, name, k, monkeypatch):
        fmt = chunked[name]
        X, Y = _stacks(fmt, k, seed=1)
        c_out = _products(fmt, X, Y)
        monkeypatch.setattr(config.runtime, "backend", "numpy")
        ref = _products(fmt, X, Y)
        tol = 2e-5 if fmt.dtype == np.float32 else 1e-12
        for a, b in zip(c_out, ref):
            scale = max(float(np.abs(b).max()), 1.0)
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol * scale)

    @pytest.mark.parametrize("name", FORMATS)
    def test_zero_width_stacks(self, chunked, name):
        fmt = chunked[name]
        m, n = fmt.shape
        X = fmt.transpose_spmm(np.zeros((m, 0), dtype=fmt.dtype))
        assert X.shape == (n, 0)
        assert fmt.spmm(np.zeros((n, 0), dtype=fmt.dtype)).shape == (m, 0)

    @pytest.mark.parametrize("backend_name", ["auto", "numpy"])
    def test_empty_operators(self, backend_name, monkeypatch):
        monkeypatch.setattr(config.runtime, "backend", backend_name)
        geom = ParallelBeamGeometry.for_image(4)
        e = np.zeros(0)
        shape = (geom.num_rays, geom.num_pixels)
        fmts = [
            CSCVZMatrix.from_coo(shape, e.astype(np.int64), e.astype(np.int64), e, geom=geom),
            CSRMatrix.from_coo(shape, e.astype(np.int64), e.astype(np.int64), e),
        ]
        fmts.append(CSCVMMatrix(fmts[0].data))
        for fmt in fmts:
            out = fmt.transpose_spmm(np.ones((shape[0], 3)), out=np.full((shape[1], 3), 7.0))
            assert out.shape == (shape[1], 3) and not out.any()
            assert not fmt.transpose_spmv(np.ones(shape[0])).any()

    def test_noncontiguous_out_receives_the_result(self, chunked):
        fmt = chunked["cscv-z"]
        _, Y = _stacks(fmt, 2)
        expected = fmt.transpose_spmm(Y)
        out = np.zeros((fmt.shape[1], 4), dtype=fmt.dtype)[:, ::2]
        assert fmt.transpose_spmm(Y, out=out) is out
        assert out.tobytes() == expected.tobytes()


@pytest.mark.usefixtures("compiled")
class TestThreadCountInvarianceAt192:
    """Forward, adjoint and a SIRT solve on the benchmark's 192^2 operator
    at 1, 2 and 4 threads, with the operator's own chunk plan."""

    def test_forward_adjoint_sirt_bitwise(self, monkeypatch):
        op = api.operator(192)
        assert chunk_plan(op.fmt.data).count > 1
        rng = np.random.default_rng(0)
        x = rng.random(op.shape[1]).astype(op.dtype)
        sino = op.forward(x)
        runs = {}
        for t in THREADS:
            monkeypatch.setattr(config.runtime, "threads", t)
            runs[t] = [
                op.forward(x),
                op.adjoint(sino),
                op.adjoint(sino[:, None]),
                api.reconstruct(op, sino, solver="sirt", iterations=2).image,
            ]
        for t in THREADS[1:]:
            for a, b in zip(runs[THREADS[0]], runs[t]):
                assert a.tobytes() == b.tobytes(), t

