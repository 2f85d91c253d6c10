"""Workloads and metric names of the benchmark (mirrors BENCHMARK.json).

The sizes below are the measured configuration; ``TINY`` shrinks every
workload for the smoke test without changing which code runs.
"""

from __future__ import annotations

#: Fresh processes the library workload's timed window is split over.
TIMED_PROCS = 3

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

WORKLOADS = {
    # one 192^2 slice, SIRT at a fixed iteration count: kernels and the
    # solver loop do all the work, the serving layers none
    "slice-192": {"kind": "library", "size": 192, "iterations": 2,
                  "min_calls": 3,
                  # traced run only: the same slice served as jobs
                  "probe_low": 4, "probe_rate": 1.0, "probe_burst": 4},
    # 64^2 jobs from 4 tenants, 3:1 SIRT:CGLS, against a `repro serve`
    # subprocess: evenly spaced at a low rate (coalescing bypassed), then
    # in bursts of 8 (each burst queues and coalesces); see README.md
    # for how the rates were chosen
    "serve-64": {"kind": "serve", "size": 64, "iterations": 10, "inputs": 4,
                 "rates": {"low": 2.0, "high": 8 / 3},
                 "bursts": {"low": 1, "high": 8},
                 "jobs": {"low": 100, "high": 104}},
}

TINY = {
    "slice-192": {"size": 24, "probe_low": 3, "probe_rate": 10.0,
                  "probe_burst": 4},
    "serve-64": {"size": 16, "iterations": 4, "inputs": 3,
                 "rates": {"low": 8.0, "high": 20.0},
                 "jobs": {"low": 16, "high": 16}},
}

RATES = ("low", "high")

END_TO_END = {
    "setup_s": "s",
    "recon_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "bitwise_diff_frac": "ratio",
    "latency_p50_s.low": "s",
    "latency_p90_s.low": "s",
    "latency_p50_s.high": "s",
    "latency_p90_s.high": "s",
}

_KERNEL_TIMES = ("fwd_s", "adj_s", "fwd_k1_s", "adj_k1_s", "fwd_k8_s",
                 "adj_k8_s")

#: Per-rate metrics of the serving layer (suffixed ``.low`` / ``.high``).
SERVE_LAYER = {
    "serve.admit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.solve_s": "s",
    "serve.fetch_s": "s",
    "serve.batch_width": "jobs",
    "serve.coalesced_frac": "ratio",
    "serve.rejected": "count",
    "serve.journal.appends": "count",
    "serve.ckpt.stored": "count",
    "serve.gen.lag_p90_s": "s",
    "serve.peak_rss_mb": "MB",
}

#: Layers whose spans' self time the traced run reports.
TRACE_LAYERS = ("geometry", "core", "recon", "kernels", "serve")

PER_LAYER = {
    **{f"kernels.{n}": "s" for n in _KERNEL_TIMES},
    **{f"kernels.{n}.t1": "s" for n in _KERNEL_TIMES},
    "kernels.fwd_gbs": "GB/s",
    "kernels.adj_gbs": "GB/s",
    "kernels.fwd_r_em": "ratio",
    "kernels.adj_r_em": "ratio",
    "kernels.bytes_k1": "B",
    "kernels.bytes_k8": "B",
    "host.stream_gbs": "GB/s",
    "recon.iter_s": "s",
    "recon.fwd_s": "s",
    "recon.adj_s": "s",
    "recon.update_s": "s",
    "recon.init_s": "s",
    "recon.ckpt_s": "s",
    "recon.products_per_solve": "count",
    "geometry.sweep_s": "s",
    "core.build_s": "s",
    "core.cache.load_s": "s",
    **{f"{n}.{r}": u for n, u in SERVE_LAYER.items() for r in RATES},
    **{f"trace.self_s.{layer}": "s" for layer in TRACE_LAYERS},
    "unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def workload(name: str, tiny: bool) -> dict:
    cfg = dict(WORKLOADS[name])
    if tiny:
        cfg.update(TINY[name])
    return cfg
