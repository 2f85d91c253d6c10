"""SIRT — Simultaneous Iterative Reconstruction Technique.

The fully simultaneous relative of ART: every iteration is exactly one
forward SpMV plus one back-projection SpMV over the whole system,

.. math:: x^{k+1} = x^k + \\lambda\\, C A^T R (y - A x^k),

with ``R = diag(1/row\\_sum)`` and ``C = diag(1/col\\_sum)``.  SIRT is the
workload whose inner loop the paper's benchmarks time directly (same
matrix, high-frequency SpMV), making it the natural end-to-end demo for
CSCV formats.

The sinogram may be a single vector (m,) or a stack (m, k) of sinograms
sharing the system matrix (multi-slice CT); a stack runs through the
batched SpMM path — one matrix stream serves all slices — and returns an
(n, k) image stack.  The iteration is column-separable, so each slice of
the batched result equals the corresponding single-sinogram run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError
from repro.recon import driver
from repro.recon.linops import ProjectionOperator


class _SIRT(driver.Recurrence):
    name = "sirt"

    def __init__(self, op, y, *, relax, nonneg, rtol):
        super().__init__(op, y)
        self.relax, self.nonneg, self.rtol = relax, nonneg, rtol
        self.inv_r, self.inv_c = op.sart_weights()
        self.rnorm = math.inf

    def init(self, x):
        self.x, self.rnorm = x, math.inf

    def step(self, k):
        self.resid = (self.y - self.op.forward(self.x)).astype(np.float64)
        self.rnorm = float(np.linalg.norm(self.resid))
        return self.event(k, self.rnorm)

    def update(self):
        back = self.op.adjoint(
            (self.resid * self.inv_r[:, None]).astype(self.dtype)
        ).astype(np.float64)
        x = (self.x.astype(np.float64)
             + self.relax * self.inv_c[:, None] * back).astype(self.dtype)
        if self.nonneg:
            np.maximum(x, 0, out=x)
        self.x = x

    def converged(self):
        return self.rtol > 0 and self.rnorm / self.y_norm < self.rtol


def sirt_reconstruct(
    op: ProjectionOperator,
    sinogram: np.ndarray,
    *,
    iterations: int = 50,
    relax: float = 1.0,
    x0: np.ndarray | None = None,
    nonneg: bool = True,
    rtol: float = 0.0,
    callback=None,
    watchdog=None,
    resume_from=None,
) -> np.ndarray:
    """Run SIRT for *iterations* sweeps (early-exit on relative tolerance).

    Parameters
    ----------
    rtol : float
        Stop once ``||resid|| / ||y||`` falls below this (0 disables).
        For a sinogram stack both norms are Frobenius norms of the stack.
    callback : callable, optional
        Per-iteration hook.  Either the legacy ``callback(k, x,
        residual_norm)`` form or an event consumer taking one
        :class:`~repro.recon.events.IterationEvent` (see
        :func:`~repro.recon.events.as_event_callback`).
    watchdog : bool or ResidualWatchdog, optional
        Divergence guard (:mod:`repro.resilience.watchdog`): ``True``
        for the defaults, or a configured instance.  On detection the
        run restarts from the best iterate with ``relax`` backed off;
        when the restart budget is exhausted a
        :class:`~repro.errors.SolverError` carries the history.  Relax
        values above 2 (the classical convergence bound) are accepted
        precisely so a guarded run can recover from them.
    resume_from : CheckpointState, optional
        Continue an interrupted run from a
        :class:`~repro.recon.checkpoint.CheckpointState` captured after
        iteration ``k``: the iterate is restored verbatim and the loop
        starts at ``k + 1``, producing output bitwise-identical to the
        uninterrupted run under the same parameters.  Incompatible with
        ``x0`` (the checkpoint *is* the start) and ``watchdog`` (a
        restart-adjusted run is not bitwise-resumable).
    """
    if not (0.0 < relax <= 4.0):
        raise ValidationError("relax must be in (0, 4]")
    return driver.run(
        _SIRT, op, sinogram, iterations=iterations, x0=x0, callback=callback,
        watchdog=watchdog, resume_from=resume_from, relax=relax,
        nonneg=nonneg, rtol=rtol,
    )
