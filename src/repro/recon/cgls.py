"""CGLS — conjugate gradients on the normal equations.

Solves ``min_x ||A x - y||_2`` without ever forming ``A^T A``; each
iteration costs one forward and one adjoint SpMV.  The fastest-converging
of the classical iterative methods for consistent CT data and a good
stress of numerical robustness (breakdown guards, early exit).

The sinogram may be a single vector (m,) or a stack (m, k); a stack is
solved with batched SpMM products and *per-column* step sizes — every
scalar of the classical recurrence (``gamma``, ``alpha``, ``beta``)
becomes a k-vector, and converged or broken-down columns freeze while the
rest keep iterating, so each slice matches its own single-vector run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.recon import driver
from repro.recon.linops import ProjectionOperator


def _dots(a, b):
    return np.einsum("ij,ij->j", a, b)


class _CGLS(driver.Recurrence):
    name = "cgls"
    STATE = {
        "x": ("n", None), "r": ("m", None), "s": ("n", None),
        "p": ("n", None), "gamma": ("k", None), "gamma0": ("k", None),
        "active": ("k", bool),
    }

    def __init__(self, op, y, *, rtol, damping):
        super().__init__(op, y, np.float64)
        self.rtol, self.damping = rtol, damping

    def init(self, x):
        self.restart(x)
        self.gamma0 = np.where(self.gamma > 0, self.gamma, 1.0)

    def restart(self, x):
        # a restart re-derives the recurrence from x but keeps gamma0
        self.x = x
        self.r = (self.y - self.op.forward(x.astype(self.dtype))).astype(np.float64)
        self.s = (self.op.adjoint(self.r.astype(self.dtype)).astype(np.float64)
                  - self.damping * x)
        self.p = self.s.copy()
        self.gamma = _dots(self.s, self.s)
        self.active = np.ones(x.shape[1], dtype=bool)

    def reference_norm(self):
        return float(np.sqrt(self.gamma0.sum())) or 1.0

    def converged(self):
        self.active &= self.gamma > self.rtol * self.rtol * self.gamma0
        return not self.active.any()

    def step(self, k):
        p, gamma, active = self.p, self.gamma, self.active
        q = self.op.forward(p.astype(self.dtype)).astype(np.float64)
        qq = _dots(q, q) + self.damping * _dots(p, p)
        active &= qq > 0.0  # p column in the null space: freeze it
        if not active.any():
            return None
        alpha = np.zeros(gamma.shape)
        np.divide(gamma, qq, out=alpha, where=active)
        self.x += alpha[None, :] * p
        self.r -= alpha[None, :] * q
        self.s = (self.op.adjoint(self.r.astype(self.dtype)).astype(np.float64)
                  - self.damping * self.x)
        gamma_new = _dots(self.s, self.s)
        event = self.event(
            k, float(np.linalg.norm(self.r)),
            normal=float(np.sqrt(gamma_new[active].sum())),
        )
        # advance to top-of-next-iteration state now, so a checkpoint
        # captured at callback time resumes exactly; a watchdog restart
        # re-derives p and gamma, so running this first is bit-neutral
        beta = np.zeros(gamma.shape)
        np.divide(gamma_new, gamma, out=beta, where=active & (gamma > 0))
        self.p = self.s + beta[None, :] * p
        self.gamma = gamma_new
        return event


def cgls_reconstruct(
    op: ProjectionOperator,
    sinogram: np.ndarray,
    *,
    iterations: int = 30,
    x0: np.ndarray | None = None,
    rtol: float = 1e-8,
    damping: float = 0.0,
    callback=None,
    watchdog=None,
    resume_from=None,
) -> np.ndarray:
    """Run CGLS; returns the iterate with all math in float64 accumulators.

    Parameters
    ----------
    rtol : float
        Stop when ``||A^T r|| / ||A^T y||`` drops below this (checked per
        column for a sinogram stack).
    damping : float
        Tikhonov parameter ``lambda >= 0``: solves
        ``min ||A x - y||^2 + lambda ||x||^2`` (regularised CGLS, the
        standard stabiliser for noisy/limited-angle data).
    callback : callable, optional
        Per-iteration hook: the legacy ``callback(k, x,
        normal_residual_norm)`` form, or an event consumer taking one
        :class:`~repro.recon.events.IterationEvent` whose ``meaning`` is
        ``"normal_residual"`` (CGLS drives on ``||A^T r||``; the event
        carries the plain ``||r||`` too).
    watchdog : bool or ResidualWatchdog, optional
        Divergence guard.  CGLS has no relaxation to back off; a restart
        instead re-initialises the whole CG recurrence (``r``, ``s``,
        ``p``, ``gamma``) from the best iterate seen — the standard cure
        for a recurrence drifting from the true residual.
    resume_from : CheckpointState, optional
        Continue an interrupted run from a
        :class:`~repro.recon.checkpoint.CheckpointState`: the complete
        CG recurrence (``x``, ``r``, ``s``, ``p``, ``gamma``,
        ``gamma0``, ``active``) is restored verbatim — *not* re-derived
        from the iterate, which would change the bits — and the loop
        starts at ``k + 1``, matching the uninterrupted run exactly.
        Incompatible with ``x0`` and ``watchdog``.
    """
    if damping < 0:
        raise ValidationError("damping must be >= 0")
    return driver.run(
        _CGLS, op, sinogram, iterations=iterations, x0=x0, callback=callback,
        watchdog=watchdog, resume_from=resume_from, rtol=rtol,
        damping=damping,
    )
