"""The library workload (``slice-192``) and the layer measurements every
workload's traced run shares."""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import common
import spec
from common import median, quantile


def cold_setup(size: int, run: Path) -> list:
    """Time ``api.operator(size)`` into empty cache directories.

    The last build goes into the default cache, leaving it warm for the
    timed child.  A small build first pays the import and first-call
    costs so that they are not charged to one of the timed builds.
    """
    from repro import api
    from repro.core.cache import OperatorCache, default_cache

    api.operator(64, cache=False)
    times = []
    for i in range(spec.SETUP_REPS):
        last = i == spec.SETUP_REPS - 1
        root = default_cache().root if last else run / f"cold{i}"
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        api.operator(size, cache_obj=OperatorCache(root=root))
        times.append(time.perf_counter() - t0)
        if not last:
            shutil.rmtree(root, ignore_errors=True)
    return times


def working_set(size: int, host: dict) -> dict:
    """Computed bytes per product next to the cache sizes."""
    from repro import api
    from repro.obs.perf import format_bytes

    op = api.operator(size)
    b1 = format_bytes(op.fmt, 1)["total"]
    b8 = format_bytes(op.fmt, 8)["total"]
    caches = host["caches"]
    l2 = caches.get("L2", {}).get("bytes", 0)
    llc = max((c["bytes"] for c in caches.values()), default=0)
    where = ("inside L2" if b1 <= l2 else
             "beyond L2 but inside the LLC" if b1 <= llc else
             "beyond the LLC")
    return {
        "bytes_per_product_k1": b1,
        "bytes_per_product_k8": b8,
        "bytes_kind": "computed (obs.perf.format_bytes), not measured",
        "l2_bytes": l2,
        "llc_bytes": llc,
        "placement": f"one k=1 product's computed working set is {where}",
        "nnz": int(op.fmt.nnz),
        "shape": list(op.shape),
    }


def kernel_metrics(kern: dict, kern_t1: dict, ws: dict, stream: float) -> dict:
    out = {}
    for name, value in kern.items():
        out[f"kernels.{name}"] = value
        out[f"kernels.{name}.t1"] = kern_t1[name]
    b1 = ws["bytes_per_product_k1"]
    out["kernels.fwd_gbs"] = b1 / kern["fwd_s"] / 1e9
    out["kernels.adj_gbs"] = b1 / kern["adj_s"] / 1e9
    out["kernels.fwd_r_em"] = out["kernels.fwd_gbs"] / stream
    out["kernels.adj_r_em"] = out["kernels.adj_gbs"] / stream
    out["kernels.bytes_k1"] = b1
    out["kernels.bytes_k8"] = ws["bytes_per_product_k8"]
    out["host.stream_gbs"] = stream
    return out


def layer_metrics(cfg, run: Path, stream: float, ws: dict) -> dict:
    """Per-layer metrics of the library side of a traced run."""
    base = {**cfg, "kernel_budget_s": 0.3 if cfg.get("tiny") else 1.0}
    cfg_path = write_cfg(run, base)
    lay = common.child(["layers", cfg_path])
    kern_t1 = common.child(["kernels", cfg_path], env={"REPRO_THREADS": "1"})
    out = kernel_metrics(lay.pop("kernels"), kern_t1, ws, stream)
    selft = lay.pop("self")
    solves = lay.pop("solves")
    out.update(lay)
    out["trace.self_s.geometry"] = selft.get("geometry.sweep", 0.0)
    out["trace.self_s.core"] = (selft.get("core.build", 0.0)
                                + selft.get("core.cache.load", 0.0))
    out["trace.self_s.recon"] = selft.get("recon.solve", 0.0) / solves
    out["trace.self_s.kernels"] = (selft.get("kernels.forward", 0.0)
                                   + selft.get("kernels.adjoint", 0.0)) / solves
    return out


def write_cfg(run: Path, cfg: dict) -> Path:
    path = run / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------- #
# the library workload: slice-192


def run(cfg, args, run: Path, host: dict) -> tuple:
    import numpy as np

    size = cfg["size"]
    cfg = {**cfg, "seed": args.seed, "k": 1,
           "seconds": args.seconds / spec.TIMED_PROCS,
           "solvers": ["sirt"], "tiny": args.tiny, "layer_calls": 2}
    record: dict = {}
    if args.trace == 0:
        setup = cold_setup(size, run)
        record["setup_samples_s"] = setup
    record["working_set"] = ws = working_set(size, host)
    cfg_path = write_cfg(run, cfg)
    common.child(["inputs", cfg_path], env={"REPRO_BACKEND": "numpy"})
    ref = np.load(run / "ref_sirt.npy")

    if args.trace == 1:
        import serve_load
        from repro.obs import trace

        metrics = layer_metrics(cfg, run, host["stream_gbs"], ws)
        results = list(np.load(run / "results.npy"))
        # the serving layer on this workload's slice: measured here only,
        # the end-to-end runs never start a server
        trace.tracer.reset()
        trace.tracer.enable()
        try:
            served, images, sent = serve_load.serve_slice(
                cfg, np.load(run / "sino.npy")[:, 0], run)
        finally:
            trace.tracer.disable()
        selft = common.self_times(trace.tracer.finished(),
                                  {"serve.admit", "serve.fetch"})
        metrics.update(served)
        metrics["trace.self_s.serve"] = sum(selft.values()) / sent
        results += [img.reshape(ref.shape) for img in images]
        missing = sent - len(images)
        same = None
    else:
        # the timed window is split over fresh processes: call times
        # shift from one process to the next (allocator and page
        # placement), and pooling averages that out
        missing = 0
        times, results, rss, warmup = [], [], [], []
        for i in range(spec.TIMED_PROCS):
            timed = common.child(["timed", cfg_path])
            times += timed["times"]
            warmup.append(timed["warmup_s"])
            rss.append(timed["peak_rss_mb"])
            results.append(np.load(run / "results.npy"))
        results = np.concatenate(results)
        record["recon_samples_s"] = times
        record["warmup_call_s"] = warmup
        # repeated solves of one input against the first
        same = [common.bitwise_equal(r, results[0]) for r in results[1:]]
        p50, p90 = median(times), quantile(times, 0.9)
        metrics = {
            "setup_s": median(setup),
            "recon_s": p50,
            "peak_rss_mb": median(rss),
            # a library call has no offered rate: both rates report the
            # one caller's call latency (see README)
            "latency_p50_s.low": p50,
            "latency_p90_s.low": p90,
            "latency_p50_s.high": p50,
            "latency_p90_s.high": p90,
        }
    if args.corrupt_one:
        results[0] = results[0] * 1.01
    errs = [common.rel_err(r, ref) for r in results]
    failed = missing + sum(e > common.REL_TOL["sirt"] for e in errs)
    record["max_rel_err"] = max(errs)
    attempted = missing + len(results)
    if same is not None:
        metrics["ok_frac"] = (attempted - failed) / attempted
        metrics["bitwise_diff_frac"] = (
            1.0 - sum(same) / len(same) if same else 0.0
        )
        record["bitwise_compared"] = len(same)
    return metrics, attempted, failed, record
