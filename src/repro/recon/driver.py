"""One iteration driver for SIRT, CGLS, OS-SART and ART.

Each solver is a :class:`Recurrence`: ``init``, ``step`` and ``update``
hooks plus a ``STATE`` table that drives checkpoint capture and restore.
:func:`run` owns everything else, once: the iteration-count check, batch
coercion and guard, ``x0`` validation, ``resume_from`` (exclusive with
``x0`` and ``watchdog``, shape-checked, starts at ``k + 1``), watchdog
restarts, the ``<solver>.iter`` span, the ``<solver>.residual`` gauge and
``<solver>.iterations`` counter, the convergence meter, the
:class:`~repro.recon.events.IterationEvent` a callback receives (with its
lazy ``state_provider``) and the stop test.

The callback's ``event.x`` is the iterate leaving iteration ``k``.  The
norms are measured against:

=======  =================================  ============================
solver   ``residual_norm``                  ``normal_residual_norm``
=======  =================================  ============================
sirt     the iterate entering ``k``         --
art      the iterate entering ``k``         --
cgls     the iterate leaving ``k``          the iterate leaving ``k``
                                            (drives; active columns)
os-sart  the iterate leaving pass ``k``     --
         (one extra product); the gauge,
         meter and watchdog instead see
         the root of the summed squared
         per-subset residuals, each taken
         before its subset's update
=======  =================================  ============================
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs.trace import span
from repro.recon.events import (
    NORMAL_RESIDUAL,
    RESIDUAL,
    IterationEvent,
    as_event_callback,
)
from repro.resilience.guards import check as guard_check
from repro.resilience.watchdog import resolve_watchdog
from repro.utils.arrays import as_column_batch, check_1d


class Recurrence:
    """One solver's recurrence over 2-D ``(rows, k)`` column batches.

    Subclasses set :attr:`name` and implement :meth:`step`; the other
    hooks have defaults that fit a recurrence whose whole state is the
    iterate ``x``.
    """

    #: Registry-style name: metric/span prefix and checkpoint tag.
    name = ""
    #: Resumable state: attribute -> (leading dimension, dtype).  The
    #: dimension is ``"n"`` (image), ``"m"`` (sinogram) or ``"k"`` (one
    #: value per column); a ``None`` dtype means :attr:`x_dtype`.  Empty
    #: for a solver that cannot resume.
    STATE: dict = {"x": ("n", None)}
    #: Accepts an (m, k) sinogram stack.
    batch = True
    #: Relaxation factor the watchdog backs off (None: none).
    relax = None
    #: Tolerance the convergence meter reports against.
    rtol = 0.0

    def __init__(self, op, y: np.ndarray, x_dtype=None):
        self.op = op
        self.y = y
        self.dtype = op.dtype
        self.x_dtype = np.dtype(x_dtype or op.dtype)

    def init(self, x: np.ndarray) -> None:
        """Start from the iterate *x* (zeros, ``x0``, or a restart)."""
        self.x = x

    def restart(self, x: np.ndarray) -> None:
        """Start again from *x* after a watchdog intervention."""
        self.init(x)

    def step(self, k: int) -> IterationEvent | None:
        """Run iteration *k*; None stops the run (breakdown)."""
        raise NotImplementedError

    def update(self) -> None:
        """Finish the iteration once the watchdog has accepted its event."""

    def converged(self) -> bool:
        """Stop test, checked before each iteration."""
        return False

    def reference_norm(self) -> float:
        """The norm the driving norm is relative to (meter, rtol)."""
        return float(np.linalg.norm(self.y)) or 1.0

    def report(self, event: IterationEvent) -> IterationEvent:
        """The event a callback receives (the driver sets its ``x``)."""
        return event

    def image(self) -> np.ndarray:
        """A copy of the iterate in the operator dtype, (n, k): a copy,
        because a recurrence may update ``x`` in place."""
        return self.x.astype(self.dtype)

    def state(self) -> dict:
        """Copies of the :attr:`STATE` arrays (checkpoint capture)."""
        return {key: getattr(self, key).copy() for key in self.STATE}

    def event(self, k: int, residual: float, *, normal: float | None = None,
              x: np.ndarray | None = None) -> IterationEvent:
        """An event for iteration *k* against *x* (default: ``self.x``)."""
        return IterationEvent(
            k=k, x=self.x if x is None else x, residual_norm=residual,
            normal_residual_norm=normal,
            meaning=RESIDUAL if normal is None else NORMAL_RESIDUAL,
            solver=self.name, state_provider=self.state if self.STATE else None,
        )


def run(cls, op, sinogram, *, iterations: int, x0=None, callback=None,
        watchdog=None, resume_from=None, **params) -> np.ndarray:
    """Validate the inputs, build ``cls(op, y, **params)`` and iterate it.

    Returns the image: 1-D for a 1-D sinogram, (n, k) for a stack.
    """
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    m, n = op.shape
    if not cls.batch:
        check_1d(sinogram, m, "sinogram")
    y, was_1d = as_column_batch(sinogram, m, "sinogram", op.dtype)
    guard_check(y, "sinogram", where=cls.name)
    k_cols = y.shape[1]
    solver = cls(op, y, **params)
    wd = resolve_watchdog(watchdog, solver=cls.name, relax=solver.relax)
    start = 0
    if resume_from is not None:
        if x0 is not None:
            raise ValidationError(
                "x0 cannot be combined with resume_from (the checkpoint "
                "is the starting iterate)"
            )
        if wd is not None:
            raise ValidationError(
                "watchdog cannot be combined with resume_from (restart "
                "interventions make the run non-resumable bitwise)"
            )
        # restore the state verbatim: re-deriving it (e.g. CGLS's
        # recurrence from x alone) would change the bits of every later
        # iterate
        arrays = resume_from.require(cls.name, set(cls.STATE))
        dims = {"n": (n, k_cols), "m": (m, k_cols), "k": (k_cols,)}
        for key, (dim, dtype) in cls.STATE.items():
            shape = np.shape(arrays[key])
            if shape != dims[dim]:
                raise ValidationError(
                    f"{cls.name} checkpoint {key} has shape {shape}; this "
                    f"problem needs {dims[dim]}"
                )
            value = np.array(arrays[key], dtype=dtype or solver.x_dtype, copy=True)
            setattr(solver, key, value)
        start = resume_from.k + 1
    else:
        if x0 is None:
            x = np.zeros((n, k_cols), dtype=solver.x_dtype)
        else:
            x, x0_1d = as_column_batch(x0, n, "x0", solver.x_dtype)
            if x0_1d != was_1d or x.shape[1] != k_cols:
                raise ValidationError("x0 must match the sinogram batch shape")
            x = x.copy()
        solver.init(x)
    x_init = solver.x.copy() if wd is not None else None
    solver.y_norm = solver.reference_norm()

    cb = as_event_callback(callback)
    gauge = obs_metrics.gauge(f"{cls.name}.residual", f"last {cls.name} residual norm")
    counter = obs_metrics.counter(f"{cls.name}.iterations", f"{cls.name} iterations run")
    meter = obs_perf.ConvergenceMeter(cls.name, y_norm=solver.y_norm, rtol=solver.rtol)
    for k in range(start, iterations):
        if solver.converged():
            break
        it_t0 = obs_perf.clock() if obs_perf.active else 0.0
        with span(f"{cls.name}.iter", k=k, batch=k_cols) as it_span:
            event = solver.step(k)
            if event is None:
                break
            it_span.set(residual=event.norm)
            if wd is not None and wd.observe_event(event) == "restart":
                # discard this iteration: restart from the best iterate
                # with the relaxation the watchdog just backed off
                solver.relax = wd.relax
                solver.restart(np.array(
                    x_init if wd.best_x is None else wd.best_x,
                    dtype=solver.x_dtype, copy=True,
                ))
                it_span.set(restart=True)
                continue
            solver.update()
        gauge.set(event.norm)
        counter.inc()
        meter.observe_event(
            event,
            seconds=obs_perf.clock() - it_t0 if obs_perf.active else None,
        )
        if cb is not None:
            xk = solver.image()
            cb(solver.report(event).with_x(xk[:, 0] if was_1d else xk))
    out = solver.image()
    return out[:, 0] if was_1d else out
