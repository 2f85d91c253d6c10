"""Chunk plans: the fixed-order reduction rule of the compiled drivers.

Every compiled driver whose threads would race on a shared output (the
CSCV forward and adjoint, the CSR adjoint) splits its work units — CSCV
blocks, CSR rows — into a fixed list of chunks, gives each chunk a
private output, and sums the outputs in chunk-index order (the rule
:func:`repro.dist.transport.fixed_order_sum` applies across processes).
The split is a pure function of the operator, never of the thread count,
so results are bitwise-identical for any ``REPRO_THREADS``; a single
thread runs the same chunks.

The plan is computed once per operator from arrays it already has and is
passed to the kernels with every call; the cache format does not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: A chunk's private output costs a zero-fill and an add per output slot,
#: so a chunk gets at least this many work slots per output slot ...
CHUNK_WORK_PER_OUTPUT = 32
#: ... and never fewer than this many (small operators stay serial).
CHUNK_MIN_WORK = 1 << 16
#: Upper bound on the chunk count (private outputs, reduction passes).
CHUNK_MAX = 256


@dataclass(frozen=True)
class ChunkPlan:
    """Fixed, nnz-balanced split of an operator's work into chunks.

    The compiled drivers give each chunk a private output and sum the
    outputs in chunk-index order, so the split — not the thread count —
    fixes every rounding: results are bitwise-identical for any
    ``threads``.  ``ptr`` holds the chunk boundaries over the work units
    (CSCV blocks or CSR rows); ``rows`` / ``cols`` hold each chunk's
    ``[lo, hi)`` output span in the forward / adjoint direction, which
    bounds the private output and the reduction to what the chunk
    touches.
    """

    ptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @property
    def count(self) -> int:
        return self.ptr.size - 1


def split_units(work_ptr: np.ndarray, out_len: int) -> np.ndarray:
    """Chunk boundaries over the units of a ``work_ptr`` prefix sum.

    The chunk count depends only on the total work and *out_len* (the
    longest output a chunk's private copy may span); the cuts balance
    the work (nonzeros, value slots) between chunks.
    """
    work_ptr = np.asarray(work_ptr, dtype=np.int64)
    units = work_ptr.size - 1
    total = int(work_ptr[-1] - work_ptr[0]) if units > 0 else 0
    per_chunk = max(CHUNK_MIN_WORK, CHUNK_WORK_PER_OUTPUT * int(out_len))
    count = min(max(total // per_chunk, 1), max(units, 1), CHUNK_MAX)
    targets = work_ptr[0] + (total * np.arange(1, count, dtype=np.int64)) // count
    cuts = np.searchsorted(work_ptr, targets, side="left")
    return np.unique(np.concatenate([[0], cuts, [max(units, 0)]])).astype(np.int64)


def output_spans(index: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``[lo, hi)`` of the non-negative entries of each ``index`` segment.

    Segment ``c`` is ``index[bounds[c]:bounds[c + 1]]``; a segment with
    no valid entry gets the empty span ``[0, 0)``.
    """
    spans = np.zeros(2 * (bounds.size - 1), dtype=np.int64)
    for c in range(bounds.size - 1):
        seg = index[bounds[c]:bounds[c + 1]]
        seg = seg[seg >= 0]
        if seg.size:
            spans[2 * c] = seg.min()
            spans[2 * c + 1] = int(seg.max()) + 1
    return spans
