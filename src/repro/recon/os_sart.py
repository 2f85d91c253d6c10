"""OS-SART — ordered-subsets SART.

The acceleration used by clinical iterative reconstructors: partition the
views into ``num_subsets`` interleaved subsets and apply a SART update
per subset instead of per full sweep, multiplying the effective iteration
count.  Each subset update is SpMV over a row slice of the matrix — the
workload distribution the paper's row-partitioned threading mirrors.

The sinogram may be a single vector (m,) or a stack (m, k); a stack runs
every subset update as a batched SpMM over the row slice and returns an
(n, k) image stack with each slice equal to its single-sinogram run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.recon import driver
from repro.recon.linops import safe_reciprocal
from repro.sparse.csr import CSRMatrix


def view_subsets(geom: ParallelBeamGeometry, num_subsets: int) -> list[np.ndarray]:
    """Interleaved view subsets (maximally spread angles per subset)."""
    if num_subsets < 1 or num_subsets > geom.num_views:
        raise ValidationError("num_subsets must be in [1, num_views]")
    return [np.arange(s, geom.num_views, num_subsets) for s in range(num_subsets)]


def _row_slice(csr: CSRMatrix, rows: np.ndarray) -> CSRMatrix:
    """CSR sub-matrix containing only *rows* (same column space)."""
    ptr = csr.row_ptr
    counts = np.diff(ptr)[rows]
    new_ptr = np.zeros(rows.size + 1, dtype=ptr.dtype)
    np.cumsum(counts, out=new_ptr[1:])
    take = np.concatenate(
        [np.arange(ptr[r], ptr[r + 1]) for r in rows]
    ) if rows.size else np.zeros(0, dtype=np.int64)
    return CSRMatrix(
        (rows.size, csr.shape[1]), new_ptr, csr.col_idx[take], csr.vals[take]
    )


class _OSSART(driver.Recurrence):
    name = "os_sart"

    def __init__(self, csr, y, *, geom, num_subsets, relax, nonneg):
        super().__init__(csr, y, np.float64)
        self.relax, self.nonneg = relax, nonneg
        self.pieces = []
        for views in view_subsets(geom, num_subsets):
            rows = (views[:, None] * geom.num_bins + np.arange(geom.num_bins)[None, :]).ravel()
            sub = _row_slice(csr, rows)
            row_sums = np.asarray(sub.spmv(np.ones(csr.shape[1], dtype=csr.dtype)), dtype=np.float64)
            col_sums = sub.transpose_spmv(np.ones(rows.size, dtype=csr.dtype)).astype(np.float64)
            self.pieces.append((sub, rows, safe_reciprocal(row_sums), safe_reciprocal(col_sums)))

    def step(self, k):
        # the pass's norm belongs to the iterate entering it
        x_in, x = self.x, self.x.copy()
        resid_sq = 0.0
        for sub, rows, inv_r, inv_c in self.pieces:
            resid = self.y[rows].astype(np.float64) - sub.spmm(x.astype(self.dtype)).astype(
                np.float64
            )
            resid_sq += float(np.linalg.norm(resid)) ** 2
            scaled = np.ascontiguousarray((resid * inv_r[:, None]).astype(self.dtype))
            back = sub.transpose_spmm(scaled).astype(np.float64)
            x += self.relax * inv_c[:, None] * back
            if self.nonneg:
                np.maximum(x, 0, out=x)
        self.x = x
        return self.event(k, float(np.sqrt(resid_sq)), x=x_in)

    def report(self, event):
        # a consumer gets the true residual of the iterate leaving the
        # pass, at one extra product
        resid = self.y.astype(np.float64) - self.op.spmm(self.image()).astype(np.float64)
        return replace(event, residual_norm=float(np.linalg.norm(resid)))


def os_sart_reconstruct(
    csr: CSRMatrix,
    geom: ParallelBeamGeometry,
    sinogram: np.ndarray,
    *,
    num_subsets: int = 8,
    iterations: int = 5,
    relax: float = 1.0,
    x0: np.ndarray | None = None,
    nonneg: bool = True,
    callback=None,
    watchdog=None,
    resume_from=None,
) -> np.ndarray:
    """Run OS-SART for *iterations* full passes over all subsets.

    With ``num_subsets=1`` this reduces to plain SART.

    ``resume_from`` continues an interrupted run from a
    :class:`~repro.recon.checkpoint.CheckpointState` captured after pass
    ``k``: the float64 iterate is restored verbatim and the loop starts
    at ``k + 1``, bitwise-identical to the uninterrupted run (the subset
    scalings are recomputed deterministically from the matrix).
    Incompatible with ``x0`` and ``watchdog``.

    ``watchdog`` (bool or ResidualWatchdog) enables the divergence
    guard; its residual stream is a per-pass proxy — the root of the
    summed squared per-subset residual norms already computed during
    the pass, costing no extra SpMM.  Relax values above 2 are accepted
    so a guarded run can recover from over-relaxation (see
    :func:`repro.recon.sirt.sirt_reconstruct`).
    """
    if not (0.0 < relax <= 4.0):
        raise ValidationError("relax must be in (0, 4]")
    return driver.run(
        _OSSART, csr, sinogram, iterations=iterations, x0=x0,
        callback=callback, watchdog=watchdog, resume_from=resume_from,
        geom=geom, num_subsets=num_subsets, relax=relax, nonneg=nonneg,
    )
