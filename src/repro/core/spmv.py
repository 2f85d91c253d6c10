"""SpMV / SpMM execution drivers for CSCV data.

Three execution paths, all numerically identical:

* **C blocked** — the faithful pipeline: per block, zero a ``ytilde``
  scratch, stream VxGs as contiguous vector FMAs, scatter-add through the
  inverse IOBLR map into a private copy of ``y`` per chunk, reduce in
  chunk order (the Section IV-E private-copy scheme made deterministic:
  see :func:`chunk_plan`) — OpenMP inside the compiled kernel;
* **NumPy flat** — a fully vectorised fallback: pre-resolved global row
  per value slot + one ``bincount`` scatter-add;
* **NumPy threaded** — the flat path split over block ranges across a
  thread pool with per-thread partial ``y`` and a final reduction,
  mirroring the paper's private-copy scheme in pure Python.

The multi-RHS drivers (:func:`spmm_z` / :func:`spmm_m`) run the same VxG
stream against ``X`` of shape ``(n, k)`` — the matrix streams from memory
once for all ``k`` right-hand sides, which is where the batched CT
workload (many slices, one system matrix) wins over looped SpMV.  The
adjoint drivers (:func:`adjoint_z` / :func:`adjoint_m`) run the stream
in reverse for 1-D vectors and ``(m, k)`` stacks alike: gather ``ytilde``
through the map, one contiguous dot product per VxG.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import config
from repro.core.builder import CSCVData
from repro.kernels import dispatch
from repro.kernels.chunks import ChunkPlan, output_spans, split_units
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.trace import span
from repro.utils.pool import run_resilient, spmv_pool


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide SpMV worker pool, grown to at least *workers*.

    Backed by :data:`repro.utils.pool.spmv_pool`, which also *shrinks*
    (recreates the pool smaller) when ``config.runtime.threads`` is
    lowered at runtime and the request fits under the new ceiling.
    """
    return spmv_pool.get(workers)


def _shutdown_pool() -> None:
    """Tear down the shared pool (atexit hook and test hook)."""
    spmv_pool.shutdown()


def __getattr__(name: str):
    # Back-compat introspection of the pool internals (test hooks).
    if name == "_pool":
        return spmv_pool._pool
    if name == "_pool_size":
        return spmv_pool.size
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _count_call(variant: str, backend: str) -> None:
    """Per-(variant, backend) SpMV call counters (cscv_z/c, cscv_m/flat...)."""
    obs_metrics.counter(
        f"spmv.calls.{variant}.{backend}",
        "SpMV executions by CSCV variant and execution backend",
    ).inc()


def chunk_plan(data: CSCVData) -> ChunkPlan:
    """The operator's :class:`ChunkPlan`, derived once from its layout.

    Chunks are contiguous block ranges balanced on value slots
    (``blk_vxg_ptr``); the plan is memoised on *data* and shared by Z
    and M, which share the layout.
    """
    plan = getattr(data, "_chunk_plan", None)
    if plan is None:
        work = data.blk_vxg_ptr * data.params.vxg_len
        ptr = split_units(work, max(data.shape))
        plan = ChunkPlan(
            ptr=ptr,
            rows=output_spans(data.ymap, data.blk_map_ptr[ptr]),
            cols=output_spans(data.vxg_col, data.blk_vxg_ptr[ptr]),
        )
        data._chunk_plan = plan
    return plan


def _z_args(data: CSCVData, spans: str) -> tuple:
    """CSCV-Z layout + chunk-plan arguments of the compiled drivers."""
    plan = chunk_plan(data)
    return (data.blk_vxg_ptr, data.vxg_col, data.vxg_start, data.values,
            data.params.vxg_len, data.blk_ysize, data.blk_map_ptr, data.ymap,
            data.max_ysize, plan.count, plan.ptr, getattr(plan, spans))


def _m_args(data: CSCVData, spans: str) -> tuple:
    """CSCV-M layout + chunk-plan arguments of the compiled drivers."""
    plan = chunk_plan(data)
    return (data.blk_vxg_ptr, data.vxg_col, data.vxg_start, data.vxg_voff,
            data.vxg_masks, data.packed, data.params.s_vxg,
            data.params.s_vvec, data.blk_ysize, data.blk_map_ptr, data.ymap,
            data.max_ysize, plan.count, plan.ptr, getattr(plan, spans))


def resolve_flat_rows_z(data: CSCVData) -> np.ndarray:
    """Global row id (or -1) of every CSCV-Z value slot.

    Composes VxG placement with the per-block inverse map once, so the
    NumPy path needs no per-call permutation.
    """
    if data.num_vxg == 0:
        return np.zeros(0, dtype=np.int32)
    vxg_len = data.params.vxg_len
    b_of_g = np.repeat(np.arange(data.num_blocks), np.diff(data.blk_vxg_ptr))
    base = data.blk_map_ptr[b_of_g] + data.vxg_start.astype(np.int64)
    pos = base[:, None] + np.arange(vxg_len)[None, :]
    return data.ymap[pos.ravel()]


def resolve_flat_rows_m(data: CSCVData) -> np.ndarray:
    """Global row id of every packed CSCV-M value (always valid)."""
    if data.nnz == 0:
        return np.zeros(0, dtype=np.int32)
    s_vvec = data.params.s_vvec
    b_of_e = np.repeat(np.arange(data.num_blocks), np.diff(data.blk_e_ptr))
    base = data.blk_map_ptr[b_of_e] + data.e_start.astype(np.int64)
    # lane of each packed value from the mask bit order
    lanes = _mask_lanes(data.masks, s_vvec)
    pos = np.repeat(base, np.diff(data.voff)) + lanes
    return data.ymap[pos]


def _mask_lanes(masks: np.ndarray, s_vvec: int) -> np.ndarray:
    """Concatenated set-bit positions of every mask, mask-major order."""
    if masks.size == 0:
        return np.zeros(0, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(s_vvec, dtype=np.uint32)[None, :]) & 1
    e_idx, lane = np.nonzero(bits)
    # np.nonzero iterates row-major: already (mask, lane-ascending) order
    return lane.astype(np.int64)


def spmv_z(data: CSCVData, x: np.ndarray, y: np.ndarray, *, threads: int | None = None,
           flat_rows: Callable[[], np.ndarray] | None = None) -> np.ndarray:
    """CSCV-Z SpMV into *y* (overwritten).

    *flat_rows* returns the format's memoised slot -> row map; only the
    NumPy paths call it, so the compiled path never materialises it.
    """
    threads = threads or config.runtime.threads
    y[:] = 0
    if data.nnz == 0:
        return y
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    fn = dispatch.get("cscv_z_spmv", data.dtype)
    if fn is not None:
        with span("spmv.z", backend="c", nnz=data.nnz,
                  blocks=data.num_blocks, threads=int(threads)):
            fn(data.shape[0], *_z_args(data, "rows"), x, y, int(threads))
        _count_call("z", "c")
        if obs_perf.active:
            obs_perf.record_cscv("spmv", "z", "c", data, obs_perf.clock() - t0)
        return y
    rows = flat_rows() if flat_rows is not None else resolve_flat_rows_z(data)
    if threads <= 1 or data.num_blocks < 2 * threads:
        with span("spmv.z", backend="flat", nnz=data.nnz, blocks=data.num_blocks):
            _accumulate_z(data, x, y, rows, 0, data.num_blocks)
        _count_call("z", "flat")
        if obs_perf.active:
            obs_perf.record_cscv("spmv", "z", "flat", data, obs_perf.clock() - t0)
        return y
    with span("spmv.z", backend="threaded", nnz=data.nnz,
              blocks=data.num_blocks, threads=int(threads)):
        _threaded(data, x, y, rows, threads, _accumulate_z)
    _count_call("z", "threaded")
    if obs_perf.active:
        obs_perf.record_cscv("spmv", "z", "threaded", data, obs_perf.clock() - t0)
    return y


def _accumulate_z(data, x, y, rows, b0, b1):
    vxg_len = data.params.vxg_len
    g0, g1 = int(data.blk_vxg_ptr[b0]), int(data.blk_vxg_ptr[b1])
    if g0 == g1:
        return
    vals = data.values[g0 * vxg_len : g1 * vxg_len].reshape(g1 - g0, vxg_len)
    contrib = (vals * x[data.vxg_col[g0:g1].astype(np.int64)][:, None]).ravel()
    r = rows[g0 * vxg_len : g1 * vxg_len]
    valid = r >= 0
    y += np.bincount(
        r[valid], weights=contrib[valid], minlength=data.shape[0]
    ).astype(data.dtype, copy=False)


def spmv_m(data: CSCVData, x: np.ndarray, y: np.ndarray, *, threads: int | None = None,
           flat_rows: Callable[[], np.ndarray] | None = None) -> np.ndarray:
    """CSCV-M SpMV into *y* (overwritten) — packed values + soft-vexpand."""
    threads = threads or config.runtime.threads
    y[:] = 0
    if data.nnz == 0:
        return y
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    fn = dispatch.get("cscv_m_spmv", data.dtype)
    if fn is not None:
        with span("spmv.m", backend="c", nnz=data.nnz,
                  blocks=data.num_blocks, threads=int(threads)):
            fn(data.shape[0], *_m_args(data, "rows"), x, y, int(threads))
        _count_call("m", "c")
        if obs_perf.active:
            obs_perf.record_cscv("spmv", "m", "c", data, obs_perf.clock() - t0)
        return y
    rows = flat_rows() if flat_rows is not None else resolve_flat_rows_m(data)
    if threads <= 1 or data.num_blocks < 2 * threads:
        with span("spmv.m", backend="flat", nnz=data.nnz, blocks=data.num_blocks):
            _accumulate_m(data, x, y, rows, 0, data.num_blocks)
        _count_call("m", "flat")
        if obs_perf.active:
            obs_perf.record_cscv("spmv", "m", "flat", data, obs_perf.clock() - t0)
        return y
    with span("spmv.m", backend="threaded", nnz=data.nnz,
              blocks=data.num_blocks, threads=int(threads)):
        _threaded(data, x, y, rows, threads, _accumulate_m)
    _count_call("m", "threaded")
    if obs_perf.active:
        obs_perf.record_cscv("spmv", "m", "threaded", data, obs_perf.clock() - t0)
    return y


def _accumulate_m(data, x, y, rows, b0, b1):
    k0, k1 = int(data.voff[data.blk_e_ptr[b0]]), int(data.voff[data.blk_e_ptr[b1]])
    if k0 == k1:
        return
    e0, e1 = int(data.blk_e_ptr[b0]), int(data.blk_e_ptr[b1])
    counts = np.diff(data.voff[e0 : e1 + 1])
    xcols = np.repeat(data.e_col[e0:e1].astype(np.int64), counts)
    contrib = data.packed[k0:k1] * x[xcols]
    r = rows[k0:k1]
    y += np.bincount(r, weights=contrib, minlength=data.shape[0]).astype(
        data.dtype, copy=False
    )


def _threaded(data, x, y, rows, threads, accumulate):
    """Private-y-per-thread scheme over contiguous block ranges.

    Works for both SpMV (*y* 1-D) and SpMM (*y* 2-D) accumulators; the
    partials mirror *y*'s shape.
    """
    from repro.utils.partition import split_evenly

    ranges = [r for r in split_evenly(data.num_blocks, threads) if r[0] < r[1]]
    partials = [np.zeros_like(y) for _ in ranges]

    def work(idx: int):
        b0, b1 = ranges[idx]
        partials[idx][:] = 0  # idempotent under retry / serial fallback
        with span("spmv.block_range", b0=b0, b1=b1):
            accumulate(data, x, partials[idx], rows, b0, b1)

    run_resilient(spmv_pool, work, range(len(ranges)), len(ranges), label="spmv")
    for p in partials:  # deterministic reduction order
        y += p
    return y


# ---------------------------------------------------------------------- #
# multi-RHS (SpMM) drivers


def spmm_z(data: CSCVData, X: np.ndarray, Y: np.ndarray, *,
           threads: int | None = None,
           flat_rows: Callable[[], np.ndarray] | None = None) -> np.ndarray:
    """CSCV-Z multi-RHS SpMV: ``Y[:] = A @ X`` with ``X`` of shape (n, k)."""
    threads = threads or config.runtime.threads
    Y[:] = 0
    k = X.shape[1]
    if data.nnz == 0 or k == 0:
        return Y
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    fn = dispatch.get("cscv_z_spmm", data.dtype)
    if fn is not None:
        with span("spmm.z", backend="c", nnz=data.nnz, batch=k,
                  blocks=data.num_blocks, threads=int(threads)):
            fn(data.shape[0], k, *_z_args(data, "rows"), X, Y, int(threads))
        _count_call("z_mm", "c")
        if obs_perf.active:
            obs_perf.record_cscv("spmm", "z", "c", data, obs_perf.clock() - t0, k)
        return Y
    rows = flat_rows() if flat_rows is not None else resolve_flat_rows_z(data)
    if threads <= 1 or data.num_blocks < 2 * threads:
        with span("spmm.z", backend="flat", nnz=data.nnz, batch=k,
                  blocks=data.num_blocks):
            _accumulate_z_mm(data, X, Y, rows, 0, data.num_blocks)
        _count_call("z_mm", "flat")
        if obs_perf.active:
            obs_perf.record_cscv("spmm", "z", "flat", data,
                                 obs_perf.clock() - t0, k)
        return Y
    with span("spmm.z", backend="threaded", nnz=data.nnz, batch=k,
              blocks=data.num_blocks, threads=int(threads)):
        _threaded(data, X, Y, rows, threads, _accumulate_z_mm)
    _count_call("z_mm", "threaded")
    if obs_perf.active:
        obs_perf.record_cscv("spmm", "z", "threaded", data,
                             obs_perf.clock() - t0, k)
    return Y


def _accumulate_z_mm(data, X, Y, rows, b0, b1):
    """Reshaped-bincount scatter: row ids fan out to row*k + lane keys."""
    vxg_len = data.params.vxg_len
    k = X.shape[1]
    g0, g1 = int(data.blk_vxg_ptr[b0]), int(data.blk_vxg_ptr[b1])
    if g0 == g1:
        return
    vals = data.values[g0 * vxg_len : g1 * vxg_len].reshape(g1 - g0, vxg_len)
    xrows = X[data.vxg_col[g0:g1].astype(np.int64)]          # (G, k)
    contrib = (vals[:, :, None] * xrows[:, None, :]).reshape(-1, k)
    r = rows[g0 * vxg_len : g1 * vxg_len]
    valid = r >= 0
    keys = (r[valid].astype(np.int64)[:, None] * k + np.arange(k)).ravel()
    Y += np.bincount(
        keys, weights=contrib[valid].ravel(), minlength=data.shape[0] * k
    ).reshape(data.shape[0], k).astype(data.dtype, copy=False)


def spmm_m(data: CSCVData, X: np.ndarray, Y: np.ndarray, *,
           threads: int | None = None,
           flat_rows: Callable[[], np.ndarray] | None = None) -> np.ndarray:
    """CSCV-M multi-RHS SpMV over the packed value stream."""
    threads = threads or config.runtime.threads
    Y[:] = 0
    k = X.shape[1]
    if data.nnz == 0 or k == 0:
        return Y
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    fn = dispatch.get("cscv_m_spmm", data.dtype)
    if fn is not None:
        with span("spmm.m", backend="c", nnz=data.nnz, batch=k,
                  blocks=data.num_blocks, threads=int(threads)):
            fn(data.shape[0], k, *_m_args(data, "rows"), X, Y, int(threads))
        _count_call("m_mm", "c")
        if obs_perf.active:
            obs_perf.record_cscv("spmm", "m", "c", data, obs_perf.clock() - t0, k)
        return Y
    rows = flat_rows() if flat_rows is not None else resolve_flat_rows_m(data)
    if threads <= 1 or data.num_blocks < 2 * threads:
        with span("spmm.m", backend="flat", nnz=data.nnz, batch=k,
                  blocks=data.num_blocks):
            _accumulate_m_mm(data, X, Y, rows, 0, data.num_blocks)
        _count_call("m_mm", "flat")
        if obs_perf.active:
            obs_perf.record_cscv("spmm", "m", "flat", data,
                                 obs_perf.clock() - t0, k)
        return Y
    with span("spmm.m", backend="threaded", nnz=data.nnz, batch=k,
              blocks=data.num_blocks, threads=int(threads)):
        _threaded(data, X, Y, rows, threads, _accumulate_m_mm)
    _count_call("m_mm", "threaded")
    if obs_perf.active:
        obs_perf.record_cscv("spmm", "m", "threaded", data,
                             obs_perf.clock() - t0, k)
    return Y


def _accumulate_m_mm(data, X, Y, rows, b0, b1):
    k = X.shape[1]
    k0, k1 = int(data.voff[data.blk_e_ptr[b0]]), int(data.voff[data.blk_e_ptr[b1]])
    if k0 == k1:
        return
    e0, e1 = int(data.blk_e_ptr[b0]), int(data.blk_e_ptr[b1])
    counts = np.diff(data.voff[e0 : e1 + 1])
    xcols = np.repeat(data.e_col[e0:e1].astype(np.int64), counts)
    contrib = data.packed[k0:k1, None] * X[xcols]             # (nnz_range, k)
    r = rows[k0:k1].astype(np.int64)
    keys = (r[:, None] * k + np.arange(k)).ravel()
    Y += np.bincount(
        keys, weights=contrib.ravel(), minlength=data.shape[0] * k
    ).reshape(data.shape[0], k).astype(data.dtype, copy=False)


# ---------------------------------------------------------------------- #
# adjoint drivers: x = A^T y for 1-D vectors and (m, k) stacks alike


def adjoint_z(data: CSCVData, Y: np.ndarray, X: np.ndarray, *,
              threads: int | None = None,
              flat_rows: Callable[[], np.ndarray] | None = None) -> np.ndarray:
    """CSCV-Z back-projection ``X[:] = A^T Y`` (overwritten).

    ``Y`` is ``(m,)`` or ``(m, k)`` and ``X`` the matching ``(n,)`` or
    ``(n, k)``, both C-contiguous in the matrix dtype.  One compiled
    kernel serves both shapes — a vector is the k = 1 stack — so the 1-D
    adjoint equals the ``(m, 1)`` one bitwise, and column j of a k-wide
    call equals its k = 1 run.
    """
    return _adjoint("z", data, Y, X, threads, flat_rows)


def adjoint_m(data: CSCVData, Y: np.ndarray, X: np.ndarray, *,
              threads: int | None = None,
              flat_rows: Callable[[], np.ndarray] | None = None) -> np.ndarray:
    """CSCV-M back-projection over the packed value stream (see
    :func:`adjoint_z`)."""
    return _adjoint("m", data, Y, X, threads, flat_rows)


def _adjoint(variant, data, Y, X, threads, flat_rows):
    threads = int(threads or config.runtime.threads)
    op, k = ("tspmv", 1) if Y.ndim == 1 else ("tspmm", Y.shape[1])
    if data.nnz == 0 or k == 0:
        X[...] = 0
        return X
    args, resolve, reference = _ADJOINT[variant]
    t0 = obs_perf.clock() if obs_perf.active else 0.0
    fn = dispatch.get(f"cscv_{variant}_tspmm", data.dtype)
    backend = "flat" if fn is None else "c"
    with span(f"{op}.{variant}", backend=backend, nnz=data.nnz, batch=k,
              blocks=data.num_blocks, threads=threads):
        if fn is not None:
            fn(data.shape[1], k, *args(data, "cols"), Y, X, threads)
        else:
            rows = flat_rows() if flat_rows is not None else resolve(data)
            reference(data, Y.reshape(data.shape[0], k),
                      X.reshape(data.shape[1], k), rows)
    _count_call(f"{variant}_t" if op == "tspmv" else f"{variant}_tmm", backend)
    if obs_perf.active:
        obs_perf.record_cscv(op, variant, backend, data, obs_perf.clock() - t0, k)
    return X


def _adjoint_z_numpy(data, Y, X, rows):
    """Reference: float64 slot products, per-VxG sums, one bincount."""
    k = Y.shape[1]
    valid = rows >= 0
    contrib = np.zeros((rows.size, k), dtype=np.float64)
    contrib[valid] = data.values[valid, None] * Y[rows[valid]]
    per_vxg = contrib.reshape(data.num_vxg, data.params.vxg_len, k).sum(axis=1)
    X[:] = _bincount_lanes(data.vxg_col, per_vxg, X.shape[0])


def _adjoint_m_numpy(data, Y, X, rows):
    """Reference: packed-value products scattered to their columns."""
    xcols = np.repeat(data.e_col, np.diff(data.voff))
    X[:] = _bincount_lanes(xcols, data.packed[:, None] * Y[rows], X.shape[0])


def _bincount_lanes(cols, weights, n):
    """``out[c, j] = sum of weights[i, j] over i with cols[i] == c``."""
    k = weights.shape[1]
    keys = (cols.astype(np.int64)[:, None] * k + np.arange(k)).ravel()
    return np.bincount(keys, weights=weights.ravel(), minlength=n * k).reshape(n, k)


_ADJOINT = {
    "z": (_z_args, resolve_flat_rows_z, _adjoint_z_numpy),
    "m": (_m_args, resolve_flat_rows_m, _adjoint_m_numpy),
}
