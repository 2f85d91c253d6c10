"""Typed per-iteration events: one callback contract for every solver.

Historically each solver invoked ``callback(k, x, resid)`` with a bare
float whose *meaning* differed: SIRT/ART/OS-SART report the data-space
residual ``||y - A x||`` while CGLS drives its recurrence with the
normal-equation residual ``||A^T r||``.  Consumers (the watchdog,
progress streaming in :mod:`repro.serve`, the
:class:`~repro.obs.perf.ConvergenceMeter`) had to know which solver they
were attached to in order to interpret the number.

:class:`IterationEvent` makes the meaning explicit.  Solvers construct
one event per iteration carrying *both* norms when both are cheap (CGLS
maintains ``r`` anyway) and a ``meaning`` tag naming the driving norm;
:attr:`IterationEvent.norm` returns that driving norm so generic
consumers never branch on the solver name.

Backwards compatibility: :func:`as_event_callback` adapts any consumer.
A callable taking a single positional argument (or marked with
``accepts_events = True``) receives the event itself; the legacy
three-argument form keeps receiving ``(k, x, driving_norm)`` unchanged.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = ["IterationEvent", "as_event_callback"]

#: ``meaning`` value for solvers driven by the data-space residual norm.
RESIDUAL = "residual"
#: ``meaning`` value for solvers driven by the normal-equation residual.
NORMAL_RESIDUAL = "normal_residual"


@dataclass(frozen=True)
class IterationEvent:
    """One solver iteration, with explicitly-labelled residual norms.

    Attributes
    ----------
    k : int
        Zero-based iteration index.
    x : numpy.ndarray
        The iterate leaving iteration ``k`` (the solver's output shape:
        1-D for a single sinogram, (n, k) for a batch).  Which iterate
        each norm was measured against differs per solver; see the table
        in :mod:`repro.recon.driver`.
    residual_norm : float or None
        ``||y - A x||`` (Frobenius norm for a batch), when the solver
        computed it this iteration.
    normal_residual_norm : float or None
        ``||A^T (y - A x)||``, when available (CGLS always has it).
    meaning : str
        Which of the two norms drives the solver's own convergence
        checks: ``"residual"`` or ``"normal_residual"``.
    solver : str
        Registry name of the emitting solver (``"sirt"``, ``"cgls"``, ...).
    state_provider : callable or None
        Zero-argument callable returning a dict of the solver's *complete*
        internal state arrays (named copies), from which a
        :class:`~repro.recon.checkpoint.CheckpointState` can be built that
        resumes the run bitwise-identically.  Lazy on purpose — capturing
        state copies every array, so consumers that don't checkpoint pay
        nothing.  Contract: call it *during* the callback, synchronously;
        it reads the solver's live locals and a deferred call would see a
        later iteration's state.
    """

    k: int
    x: np.ndarray
    residual_norm: float | None
    normal_residual_norm: float | None
    meaning: str = RESIDUAL
    solver: str = ""
    state_provider: Callable[[], dict] | None = None

    @property
    def norm(self) -> float:
        """The driving norm (the value legacy callbacks received)."""
        if self.meaning == NORMAL_RESIDUAL:
            return float(self.normal_residual_norm)
        return float(self.residual_norm)

    def with_x(self, x: np.ndarray) -> "IterationEvent":
        """Copy of this event against a different iterate (same norms)."""
        return replace(self, x=x)

    def stripped(self) -> "IterationEvent":
        """Copy with the heavy payloads removed (``x`` and
        ``state_provider``) — the form history keeps so results stay light
        and no solver locals are pinned alive."""
        return replace(self, x=None, state_provider=None)


def _positional_arity(fn: Callable) -> int | None:
    """Number of required positional parameters, or None when unknowable."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    count = 0
    for p in sig.parameters.values():
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            count += 1
        elif p.kind == p.VAR_POSITIONAL:
            return None  # *args: ambiguous, treat as legacy
    return count


def as_event_callback(callback) -> Callable[[IterationEvent], None] | None:
    """Normalise a solver ``callback=`` argument to an event consumer.

    * ``None`` stays ``None`` (the solvers skip event construction).
    * A callable with ``accepts_events = True`` (class attribute or
      function attribute) or exactly one required positional parameter
      is called with the :class:`IterationEvent`.
    * Anything else is treated as the legacy three-argument contract and
      called with ``(event.k, event.x, event.norm)`` — bit-for-bit what
      those callbacks always received.
    """
    if callback is None:
        return None
    if getattr(callback, "accepts_events", False):
        return callback
    if _positional_arity(callback) == 1:
        return callback

    def _legacy(event: IterationEvent) -> None:
        callback(event.k, event.x, event.norm)

    return _legacy
