"""The ``serve-64`` workload: open-loop load against ``repro serve``.

One generator thread (the caller's) sends jobs on a fixed schedule, one
HTTP connection at a time, to a ``python -m repro serve`` subprocess
whose cache and journal live in a per-run directory.  Between sends it
polls outstanding jobs and fetches finished images.  Latency runs from
a job's scheduled send time to the server's ``finished_at`` (both wall
clock on the same host), so a late generator or a stalled server
charges the wait to the jobs behind it.

A job counts as failed when its POST is refused (429/503) or errors,
when it ends in a state other than ``done``, when it is not done 60 s
after its scheduled time, or when its image differs from the NumPy
reference by more than ``common.REL_TOL`` for its solver.  A failed job's latency is
taken as that 60 s limit, so failures push the percentiles up.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import spec
from common import BenchError, median, quantile
from library import layer_metrics, working_set, write_cfg

JOB_TIMEOUT_S = 60.0
POLL_EVERY_S = 0.05
HOST = "127.0.0.1"


class Server:
    """One ``repro serve`` subprocess with its own cache and journal."""

    def __init__(self, root: Path):
        self.root = root
        cache = root / "cache"
        shutil.rmtree(root, ignore_errors=True)
        (cache / "kernels").mkdir(parents=True)
        # the compiled kernel library is an install artefact, not set-up:
        # copy it so the server starts with an empty operator cache and
        # journal but does not recompile
        for so in (common.CACHE_ROOT / "kernels").glob("*.so"):
            shutil.copy2(so, cache / "kernels" / so.name)
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache),
                   PYTHONUNBUFFERED="1")
        self.stdout = open(root / "stdout.log", "w", encoding="utf-8")
        self.stderr = open(root / "stderr.log", "w", encoding="utf-8")
        self.t_launch = time.time()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=self.stdout, stderr=self.stderr, env=env,
        )
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.time() + timeout
        pat = re.compile(r"listening on http://[\d.]+:(\d+)")
        while time.time() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("repro serve exited at start:\n"
                                 + (self.root / "stderr.log").read_text()[-2000:])
            m = pat.search((self.root / "stdout.log").read_text())
            if m:
                return int(m.group(1))
            time.sleep(0.01)
        raise BenchError("repro serve did not report its port")

    def request(self, method: str, path: str, body: bytes | None = None):
        """One request on a fresh connection: (status, decoded JSON or text)."""
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if resp.getheader("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(data)
        return resp.status, data.decode("utf-8")

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.time() + timeout
        while time.time() < deadline:
            try:
                if self.request("GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise BenchError("repro serve never became ready")

    def counters(self) -> dict:
        status, text = self.request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                out[name] = float(value)
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=40)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.stdout.close()
        self.stderr.close()


def _payload(i: int, col: int, solver: str, sinos: list, cfg) -> bytes:
    return json.dumps({
        "tenant": f"tenant-{i % 4}",
        "solver": solver,
        "params": {"iterations": cfg["iterations"]},
        "geometry": {"size": cfg["size"]},
        "sinogram": sinos[col],
    }).encode("utf-8")


def _solver_of(i: int) -> str:
    return "cgls" if i % 4 == 3 else "sirt"


def warm_up(server: Server, payload: bytes) -> float:
    """Submit one job and wait for it; return its completion time."""
    status, snap = server.request("POST", "/v1/reconstruct", payload)
    if status != 202:
        raise BenchError(f"warm-up job refused: {status} {snap}")
    deadline = time.time() + JOB_TIMEOUT_S
    while time.time() < deadline:
        status, snap = server.request("GET", f"/v1/jobs/{snap['job_id']}?image=0")
        if snap.get("state") == "done":
            return time.time()
        if snap.get("state") in ("failed", "cancelled"):
            raise BenchError(f"warm-up job {snap.get('state')}: {snap}")
        time.sleep(0.005)
    raise BenchError(f"warm-up job not done after {JOB_TIMEOUT_S:g} s")


def schedule(n: int, rate: float, burst: int) -> list:
    """Send offsets (s) of *n* jobs at mean *rate*, in bursts of *burst*
    jobs due at the same instant."""
    return [(i // burst) * burst / rate for i in range(n)]


def drive(server: Server, jobs: list, offsets: list, payloads: list) -> list:
    """Send *jobs* open-loop at the given offsets; one record per job.

    ``jobs`` is a list of ``(col, solver)``; ``payloads`` the matching
    encoded bodies.
    """
    from repro.obs import trace

    t0 = time.time() + 0.05
    recs = [{"col": c, "solver": s, "sched": t0 + off}
            for (c, s), off in zip(jobs, offsets)]
    outstanding: list = []
    nxt = 0
    while nxt < len(recs) or outstanding:
        now = time.time()
        if nxt < len(recs) and now >= recs[nxt]["sched"]:
            rec = recs[nxt]
            rec["sent"] = now
            with trace.span("serve.admit"):
                try:
                    status, snap = server.request("POST", "/v1/reconstruct",
                                                  payloads[nxt])
                except OSError as exc:
                    status, snap = 0, {"error": repr(exc)}
            rec["admit_s"] = time.time() - now
            if status == 202:
                rec["job_id"] = snap["job_id"]
                rec["last_poll"] = 0.0
                outstanding.append(rec)
            else:
                rec["error"] = f"POST {status}: {snap}"
                rec["rejected"] = status in (429, 503)
            nxt += 1
            continue
        budget = (recs[nxt]["sched"] - now) if nxt < len(recs) else 1.0
        due = [r for r in outstanding if now - r["last_poll"] >= POLL_EVERY_S]
        if budget < 0.004 or not due:
            time.sleep(max(0.0, min(budget, 0.002)))
            continue
        rec = due[0]
        rec["last_poll"] = now
        status, snap = server.request("GET", f"/v1/jobs/{rec['job_id']}?image=0")
        state = snap.get("state")
        if state == "done":
            t1 = time.time()
            with trace.span("serve.fetch"):
                status, full = server.request("GET", f"/v1/jobs/{rec['job_id']}")
            rec["fetch_s"] = time.time() - t1
            rec["snap"] = snap
            rec["image"] = full.get("image")
            outstanding.remove(rec)
        elif state in ("failed", "cancelled"):
            rec["error"] = f"job {state}: {snap.get('error')}"
            rec["snap"] = snap
            outstanding.remove(rec)
        elif now - rec["sched"] > JOB_TIMEOUT_S:
            rec["error"] = "timed out"
            outstanding.remove(rec)
    return recs


def serve_slice(cfg, sino: np.ndarray, run_dir: Path):
    """Serve one library workload's slice as jobs: per-layer serve metrics.

    ``low``: ``probe_low`` jobs evenly spaced at ``probe_rate``; ``high``:
    one burst of ``probe_burst``.  All jobs carry the same sinogram and
    solver, so they share one batch key.  Returns the metrics, the
    images of the jobs that finished, and the number of jobs sent.  Call
    with the tracer on to record the ``serve.*`` spans.
    """
    from repro.serve.jobs import encode_array

    payload = json.dumps({
        "tenant": "tenant-0", "solver": "sirt",
        "params": {"iterations": cfg["iterations"]},
        "geometry": {"size": cfg["size"]},
        "sinogram": encode_array(np.ascontiguousarray(sino)),
    }).encode("utf-8")
    phases = {
        "low": [i / cfg["probe_rate"] for i in range(cfg["probe_low"])],
        "high": [0.0] * cfg["probe_burst"],
    }
    metrics: dict = {}
    recs_all: list = []
    server = Server(run_dir / "probe-server")
    try:
        server.wait_ready()
        warm_up(server, payload)
        for rate in spec.RATES:
            offsets = phases[rate]
            before = server.counters()
            recs = drive(server, [(0, "sirt")] * len(offsets), offsets,
                         [payload] * len(offsets))
            metrics.update(phase_metrics(recs, before, server.counters(), rate))
            metrics[f"serve.peak_rss_mb.{rate}"] = common.peak_rss_mb(
                server.proc.pid)
            recs_all += recs
    finally:
        server.stop()
    images = [_decode(r["image"]) for r in recs_all if "error" not in r]
    return metrics, images, len(recs_all)


def _decode(image: dict) -> np.ndarray:
    import base64

    raw = base64.b64decode(image["b64"])
    return np.frombuffer(raw, dtype=image["dtype"]).reshape(image["shape"])


def phase_metrics(recs: list, before: dict, after: dict, rate: str) -> dict:
    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    done = [r for r in recs if "snap" in r and "error" not in r]
    widths = [r["snap"]["batch_width"] for r in done]
    return {
        f"serve.admit_s.{rate}": median([r["admit_s"] for r in recs]),
        f"serve.queue_wait_s.{rate}": median(
            [r["snap"]["queue_wait_s"] for r in done]),
        f"serve.solve_s.{rate}": median(
            [r["snap"]["finished_at"] - r["snap"]["started_at"] for r in done]),
        f"serve.fetch_s.{rate}": median([r["fetch_s"] for r in done]),
        f"serve.batch_width.{rate}": sum(widths) / len(widths),
        f"serve.coalesced_frac.{rate}": (
            sum(bool(r["snap"]["coalesced"]) for r in done) / len(done)),
        f"serve.rejected.{rate}": sum(bool(r.get("rejected")) for r in recs),
        f"serve.journal.appends.{rate}": delta("repro_serve_journal_appends"),
        f"serve.ckpt.stored.{rate}": delta("repro_serve_ckpt_stored"),
        f"serve.gen.lag_p90_s.{rate}": quantile(
            [r["sent"] - r["sched"] for r in recs], 0.9),
    }


def unattributed(recs: list, solo_s: dict) -> float:
    """Share of job latency that no layer accounts for.

    The layers are the generator's lag, the POST round trip (admission),
    the queue wait and, from ``started_at``, the library's own solo
    solve time of the same input (*solo_s*, keyed by (solver, column)).
    What remains is service overhead around the solve -- operator
    acquisition, batching, checkpoints, contention -- summed over the
    finished jobs.
    """
    total = uncovered = 0.0
    for r in recs:
        snap = r.get("snap")
        if snap is None or "error" in r:
            continue
        lo, hi = r["sched"], snap["finished_at"]
        solve_end = snap["started_at"] + solo_s[(r["solver"], r["col"])]
        parts = [(r["sched"], r["sent"]), (r["sent"], r["sent"] + r["admit_s"]),
                 (snap["submitted_at"], snap["started_at"]),
                 (snap["started_at"], min(solve_end, hi))]
        total += hi - lo
        uncovered += (hi - lo) - common.union_length(parts, lo, hi)
    return uncovered / total if total else 0.0


def run(cfg, args, run_dir: Path, host: dict) -> tuple:
    from repro.obs import trace
    from repro.serve.jobs import encode_array

    size, n_in = cfg["size"], cfg["inputs"]
    cfg = {**cfg, "seed": args.seed, "seconds": args.seconds, "k": n_in,
           "solvers": ["sirt", "cgls"], "tiny": args.tiny, "layer_calls": 3}
    record: dict = {"working_set": working_set(size, host)}
    cfg_path = write_cfg(run_dir, cfg)
    common.child(["inputs", cfg_path], env={"REPRO_BACKEND": "numpy"})
    sino = np.load(run_dir / "sino.npy")
    sinos = [encode_array(np.ascontiguousarray(sino[:, j]))
             for j in range(n_in)]

    rng = np.random.default_rng(args.seed)
    plan = {}
    for rate in spec.RATES:
        cols = rng.integers(0, n_in, cfg["jobs"][rate])
        plan[rate] = [(int(c), _solver_of(i)) for i, c in enumerate(cols)]

    # set-up: launch on an empty cache and journal until the first
    # warm-up job completes; the last server carries the load
    setup, server, rss = [], None, {}
    warm = _payload(0, 0, "sirt", sinos, cfg)
    if args.trace:
        trace.tracer.reset()
        trace.tracer.enable()
    try:
        for i in range(spec.SETUP_REPS):
            if server is not None:
                server.stop()
            server = Server(run_dir / f"server{i}")
            server.wait_ready()
            setup.append(warm_up(server, warm) - server.t_launch)
        phases: dict = {}
        for rate in spec.RATES:
            jobs = plan[rate]
            payloads = [_payload(i, c, s, sinos, cfg)
                        for i, (c, s) in enumerate(jobs)]
            before = server.counters()
            offsets = schedule(len(jobs), cfg["rates"][rate],
                               cfg["bursts"][rate])
            recs = drive(server, jobs, offsets, payloads)
            phases[rate] = (recs, before, server.counters())
            rss[rate] = common.peak_rss_mb(server.proc.pid)
    finally:
        trace.tracer.disable()
        if server is not None:
            server.stop()
    record["setup_samples_s"] = setup

    # library solo solves of every input: bitwise references and recon_s
    solo = common.child(["solo", cfg_path])
    ref = {s: np.load(run_dir / f"ref_{s}.npy") for s in cfg["solvers"]}
    solo_img = {s: np.load(run_dir / f"solo_{s}.npy") for s in cfg["solvers"]}

    attempted = failed = 0
    same: list = []
    max_err: dict = {}
    metrics: dict = {}
    all_recs = []
    for rate in spec.RATES:
        recs, before, after = phases[rate]
        lat = []
        for r in recs:
            attempted += 1
            if "error" not in r:
                img = _decode(r["image"])
                if args.corrupt_one and attempted == 1:
                    img = img * 1.01
                err = common.rel_err(img, ref[r["solver"]][:, r["col"]])
                max_err[r["solver"]] = max(max_err.get(r["solver"], 0.0), err)
                if err > common.REL_TOL[r["solver"]]:
                    r["error"] = "differs from the reference"
                else:
                    same.append(common.bitwise_equal(
                        img, solo_img[r["solver"]][:, r["col"]]))
            if "error" in r:
                failed += 1
                lat.append(JOB_TIMEOUT_S)
            else:
                lat.append(r["snap"]["finished_at"] - r["sched"])
        metrics[f"latency_p50_s.{rate}"] = median(lat)
        metrics[f"latency_p90_s.{rate}"] = quantile(lat, 0.9)
        metrics.update(phase_metrics(recs, before, after, rate))
        metrics[f"serve.peak_rss_mb.{rate}"] = rss[rate]
        record[f"errors.{rate}"] = [r["error"] for r in recs if "error" in r][:5]
        record[f"latency_samples_s.{rate}"] = lat
        all_recs += recs

    solo_times = [t for ts in solo["times"].values() for t in ts]
    low = [r for r in phases["low"][0] if "snap" in r and "error" not in r]
    metrics.update({
        "setup_s": median(setup),
        # one reconstruction as the service runs it: the server-side
        # solve of the low-rate jobs, which run uncoalesced
        "recon_s": median([r["snap"]["finished_at"] - r["snap"]["started_at"]
                           for r in low]),
        # the server's peak through the uncoalesced phase: how wide the
        # high phase's batches get varies from run to run, and with it
        # the batched adjoint's temporaries (serve.peak_rss_mb.high)
        "peak_rss_mb": rss["low"],
        "ok_frac": (attempted - failed) / attempted,
        "bitwise_diff_frac": 1.0 - sum(same) / len(same) if same else 1.0,
    })
    record["library_solo_samples_s"] = solo_times
    record["max_rel_err"] = max_err
    record["bitwise_compared"] = len(same)

    if args.trace:
        spans = trace.tracer.finished()
        common.write_spans(run_dir / "serve_spans.jsonl", spans)
        selft = common.self_times(spans, {"serve.admit", "serve.fetch"})
        metrics.update(layer_metrics(cfg, run_dir, host["stream_gbs"],
                                     record["working_set"]))
        metrics["trace.self_s.serve"] = sum(selft.values()) / len(all_recs)
        solo_s = {(s, j): t for s, ts in solo["times"].items()
                  for j, t in enumerate(ts)}
        metrics["unattributed_frac"] = unattributed(all_recs, solo_s)
    return metrics, attempted, failed, record
