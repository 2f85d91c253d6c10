"""Child-process tasks of the benchmark: ``worker.py TASK CONFIG.json``.

Each task runs in its own interpreter so that its peak RSS, its thread
count (``REPRO_THREADS`` in the environment) and its backend
(``REPRO_BACKEND``) are its own:

``inputs``  NumPy backend: generate the seeded sinograms and the
            reference images (never timed).
``timed``   Default configuration: load the operator from the warm
            cache, make one untimed call, then time ``api.reconstruct``
            for the given seconds.
``solo``    Default configuration: one timed solo solve per input
            column and solver -- the bitwise references of served jobs.
``kernels`` Time the operator's forward and adjoint products.
``layers``  The traced run's library side: cold sweep and packing, warm
            load, kernels, the per-iteration solver split, checkpoint
            cost, spans and tracing overhead.

The last stdout line is the task's JSON reply; arrays go to ``.npy``
files in the run directory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    make_sinograms,
    median,
    peak_rss_mb,
    require_compiled_kernels,
    self_times,
    write_spans,
)

from repro import api
from repro.obs import trace


def _operator(cfg):
    return api.operator(cfg["size"])


def _solve(op, sino, solver, iterations):
    return api.reconstruct(op, sino, solver=solver,
                           iterations=iterations).image


# ---------------------------------------------------------------------- #
# tasks


def task_inputs(cfg, out: Path) -> dict:
    op = _operator(cfg)
    sino = make_sinograms(op, cfg["size"], cfg["seed"], cfg["k"])
    np.save(out / "sino.npy", sino)
    for solver in cfg["solvers"]:
        img = _solve(op, sino, solver, cfg["iterations"])
        np.save(out / f"ref_{solver}.npy",
                np.asarray(img).reshape(op.shape[1], -1))
    return {}


def task_timed(cfg, out: Path) -> dict:
    require_compiled_kernels()
    op = _operator(cfg)
    arg = np.ascontiguousarray(np.load(out / "sino.npy")[:, 0])
    solver = cfg["solvers"][0]
    # one untimed call first: a process pays its first-call costs once
    # (page faults on fresh allocations, lazy imports), not per call
    t0 = time.perf_counter()
    images = [np.asarray(_solve(op, arg, solver, cfg["iterations"]))
              .reshape(op.shape[1], -1)]
    warmup = time.perf_counter() - t0
    times = []
    t_end = time.perf_counter() + cfg["seconds"]
    # stop before a call that would likely end past the window
    while (len(times) < cfg["min_calls"]
           or time.perf_counter() + median(times) <= t_end):
        t0 = time.perf_counter()
        img = _solve(op, arg, solver, cfg["iterations"])
        times.append(time.perf_counter() - t0)
        images.append(np.asarray(img).reshape(op.shape[1], -1))
    np.save(out / "results.npy", np.stack(images))
    return {"times": times, "warmup_s": warmup,
            "peak_rss_mb": peak_rss_mb()}


def task_solo(cfg, out: Path) -> dict:
    """Solo (k = 1) solve of every input column under every solver."""
    require_compiled_kernels()
    op = _operator(cfg)
    sino = np.load(out / "sino.npy")
    times = {}
    for solver in cfg["solvers"]:
        imgs = []
        for j in range(sino.shape[1]):
            t0 = time.perf_counter()
            imgs.append(_solve(op, np.ascontiguousarray(sino[:, j]), solver,
                               cfg["iterations"]))
            times.setdefault(solver, []).append(time.perf_counter() - t0)
        np.save(out / f"solo_{solver}.npy", np.stack(imgs, axis=1))
    return {"times": times}


def _time_calls(fn, budget_s: float, min_reps: int = 3,
                max_reps: int = 200) -> float:
    """Median wall time of *fn* after one warm-up call."""
    fn()
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < min_reps or (time.perf_counter() < t_end
                                    and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def kernel_times(op, budget_s: float) -> dict:
    """Forward/adjoint product times: 1-D, the solvers' (., 1) path, k=8."""
    rng = np.random.default_rng(0)
    m, n = op.shape
    x1 = rng.random(n).astype(op.dtype)
    y1 = rng.random(m).astype(op.dtype)
    cases = {
        "fwd_s": (op.forward, x1),
        "adj_s": (op.adjoint, y1),
        "fwd_k1_s": (op.forward, x1[:, None].copy()),
        "adj_k1_s": (op.adjoint, y1[:, None].copy()),
        "fwd_k8_s": (op.forward, rng.random((n, 8)).astype(op.dtype)),
        "adj_k8_s": (op.adjoint, rng.random((m, 8)).astype(op.dtype)),
    }
    return {name: _time_calls(lambda f=fn, a=arg: f(a), budget_s)
            for name, (fn, arg) in cases.items()}


def task_kernels(cfg, out: Path) -> dict:
    require_compiled_kernels()
    op = _operator(cfg)
    return kernel_times(op, cfg["kernel_budget_s"])


class TimedOperator:
    """Operator proxy that timestamps every product the solver issues.

    Forwards ``shape``/``dtype``/everything else to the wrapped
    :class:`~repro.recon.linops.ProjectionOperator`; ``forward`` and
    ``adjoint`` record ``(kind, ndim, t0, t1)`` inside a ``kernels.*``
    span.
    """

    def __init__(self, op):
        self._op = op
        self.calls: list = []

    def __getattr__(self, name):
        return getattr(self._op, name)

    def _timed(self, kind, fn, arg, out):
        with trace.span("kernels." + kind):
            t0 = time.perf_counter()
            res = fn(arg, out)
            self.calls.append((kind, np.ndim(arg), t0, time.perf_counter()))
        return res

    def forward(self, x, out=None):
        return self._timed("forward", self._op.forward, x, out)

    def adjoint(self, y, out=None):
        return self._timed("adjoint", self._op.adjoint, y, out)


def solve_breakdown(op, arg, solver, iterations) -> dict:
    """One solve through :class:`TimedOperator` plus the event callback.

    Iteration ``k`` runs from the previous event (iteration 0: from the
    first 2-D product -- SIRT's normalisation sums are 1-D products) to
    event ``k``; its update time is that interval minus its products.
    What follows the last event (result assembly in the facade) is the
    part of the solve no layer accounts for.
    """
    proxy = TimedOperator(op)
    events: list = []
    state: dict = {}

    def on_event(event):
        events.append(time.perf_counter())
        if event.k == iterations - 1:  # keep the final state for ckpt_s
            state["last"] = (event, event.state_provider())

    on_event.accepts_events = True
    with trace.span("recon.solve", solver=solver):
        t0 = time.perf_counter()
        img = api.reconstruct(proxy, arg, solver=solver,
                              iterations=iterations, callback=on_event).image
        t1 = time.perf_counter()
    first_2d = next((c[2] for c in proxy.calls if c[1] == 2), events[0])
    bounds = [first_2d] + events
    iters = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        fwd = sum(c[3] - c[2] for c in proxy.calls
                  if c[0] == "forward" and lo <= c[2] < hi)
        adj = sum(c[3] - c[2] for c in proxy.calls
                  if c[0] == "adjoint" and lo <= c[2] < hi)
        iters.append((hi - lo, fwd, adj))
    return {
        "wall": t1 - t0,
        "init": first_2d - t0,
        "tail": t1 - events[-1],
        "iters": iters,
        "products": len(proxy.calls),
        "state": state["last"],
        "image": np.asarray(img).reshape(op.shape[1], -1),
    }


def task_layers(cfg, out: Path) -> dict:
    from repro.recon.checkpoint import (
        CheckpointState,
        save_checkpoint,
        solver_params_hash,
    )

    require_compiled_kernels()
    size, solver, iters = cfg["size"], cfg["solvers"][0], cfg["iterations"]
    calls = cfg["layer_calls"]
    op = _operator(cfg)
    arg = np.ascontiguousarray(np.load(out / "sino.npy")[:, 0])

    # untraced solves first: the baseline of the tracing overhead
    untraced = []
    for _ in range(calls):
        t0 = time.perf_counter()
        _solve(op, arg, solver, iters)
        untraced.append(time.perf_counter() - t0)

    res: dict = {}
    trace.tracer.reset()
    trace.tracer.enable()
    try:
        with trace.span("geometry.sweep") as sp:
            coo, geom = api.build_ct_matrix(size, dtype=np.float32)
        res["geometry.sweep_s"] = sp.seconds
        with trace.span("core.build") as sp:
            api.build_format("cscv-z", coo, geom=geom, dtype=np.float32)
        res["core.build_s"] = sp.seconds
        del coo
        with trace.span("core.cache.load") as sp:
            op = _operator(cfg)
        res["core.cache.load_s"] = sp.seconds
        runs = [solve_breakdown(op, arg, solver, iters) for _ in range(calls)]
        event, arrays = runs[-1]["state"]
        state = CheckpointState(
            solver=event.solver, k=event.k,
            params_hash=solver_params_hash(solver, {"iterations": iters}),
            arrays=arrays,
        )
        ckpt = []
        for i in range(5):
            with trace.span("recon.checkpoint") as sp:
                save_checkpoint(state, out / f"ckpt{i}.npz")
            ckpt.append(sp.seconds)
    finally:
        trace.tracer.disable()
    spans = trace.tracer.finished()
    write_spans(out / "spans.jsonl", spans)
    np.save(out / "results.npy", np.stack([r["image"] for r in runs]))

    per_iter = [it for r in runs for it in r["iters"]]
    res["recon.iter_s"] = median([it[0] for it in per_iter])
    res["recon.fwd_s"] = median([it[1] for it in per_iter])
    res["recon.adj_s"] = median([it[2] for it in per_iter])
    res["recon.update_s"] = median([it[0] - it[1] - it[2] for it in per_iter])
    res["recon.init_s"] = median([r["init"] for r in runs])
    res["recon.products_per_solve"] = runs[0]["products"]
    res["recon.ckpt_s"] = median(ckpt)
    res["unattributed_frac"] = median([r["tail"] / r["wall"] for r in runs])
    res["trace.overhead_frac"] = (
        median([r["wall"] for r in runs]) / median(untraced) - 1.0
    )
    res["self"] = self_times(spans, SPAN_NAMES)
    res["solves"] = calls
    res["kernels"] = kernel_times(op, cfg["kernel_budget_s"])
    return res


#: Span names the benchmark records around calls into the program.
SPAN_NAMES = {"geometry.sweep", "core.build", "core.cache.load",
              "recon.solve", "recon.checkpoint", "kernels.forward",
              "kernels.adjoint"}


TASKS = {
    "inputs": task_inputs,
    "timed": task_timed,
    "solo": task_solo,
    "kernels": task_kernels,
    "layers": task_layers,
}


def main(argv) -> int:
    task, cfg_path = argv[1], Path(argv[2])
    cfg = json.loads(cfg_path.read_text())
    reply = TASKS[task](cfg, cfg_path.parent)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
