"""Shared plumbing for the benchmark: workspace, host record, inputs,
child processes, statistics, correctness and span bookkeeping.

Every file the benchmark writes lives under ``<checkout>/.perfbench``;
children inherit ``REPRO_CACHE_DIR`` and ``TMPDIR`` pointing there, so
the kernel build, the operator cache, journals and temporaries all stay
inside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CACHE_ROOT = WORK / "cache"

#: Relative error against the NumPy-backend reference above which a
#: result counts as failed, per solver.  The C and NumPy backends run
#: the same float32 solver and differ only in summation order.  For
#: SIRT that moves the image by about 1e-7, so 1e-4 leaves a wide margin
#: while a 1% error shows.  Ten float32 CGLS iterations amplify rounding
#: instead: perturbing a 64^2 sinogram by 1e-7 (relative) moves the
#: image by about 1e-2, and C against NumPy differs by the same, so the
#: CGLS bound can only catch gross errors.
REL_TOL = {"sirt": 1e-4, "cgls": 5e-2}

#: Noise level of the generated sinograms, as a share of the clean
#: sinogram's standard deviation.
NOISE = 0.01


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


# ---------------------------------------------------------------------- #
# workspace and environment


def require_repo() -> None:
    """Fail unless the working directory is a checkout of the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"{SRC / 'repro'} not found: run from the root of a checkout"
        )


def prepare_env() -> None:
    """Point every cache and temporary directory into the checkout.

    Must run before the first ``import repro`` (its config reads the
    environment at import).  Children inherit the same variables.
    """
    for d in (CACHE_ROOT, WORK / "tmp"):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(CACHE_ROOT)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    path = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), path) if p
    )
    for p in (str(HERE), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)


def require_compiled_kernels():
    """The loaded C kernel library; raise rather than time NumPy."""
    import numpy as np

    from repro import config
    from repro.kernels import dispatch
    from repro.kernels.cbindings import load_library

    if config.runtime.backend == "numpy":
        raise BenchError("REPRO_BACKEND=numpy is set; the benchmark times "
                         "the compiled kernels only")
    lib = load_library()
    if lib is None or dispatch.backend_in_use(np.float32) != "c":
        raise BenchError("repro.kernels.cbindings.load_library() returned "
                         "None: refusing to time the NumPy fallback")
    return lib


def run_dir(workload: str, seed: int, trace: int) -> Path:
    d = WORK / "runs" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def child(args: list, *, env: dict | None = None, timeout: float = 170.0):
    """Run ``python3 perfbench/worker.py ARGS``; return its JSON reply.

    The child's last stdout line is its JSON result; a non-zero exit or
    a timeout raises :class:`BenchError` (the child is killed and
    reaped first).
    """
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=full_env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout}s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(pid="self") -> float:
    """Peak RSS (``VmHWM``) of a process, in MB.

    Not ``ru_maxrss``: Linux carries that across ``exec``, so a child
    would inherit the high-water mark of the process that spawned it.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"VmHWM missing from /proc/{pid}/status")


# ---------------------------------------------------------------------- #
# host and configuration record


def _cache_sizes() -> dict:
    """Per-level cache sizes of cpu0 as /sys reports them (bytes)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            shared = (idx / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        num = int(size[:-1]) if size[-1:] in "KMG" else int(size)
        out[f"L{level}"] = {"bytes": num * mult, "shared_cpus": shared}
    return out


def src_digest() -> str:
    """Content hash of the program sources (the checkout is not a git
    repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.suffix in (".py", ".c", ".h") and p.is_file():
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_record(stream_gbs: float) -> dict:
    """Host fingerprint, caches, bandwidth, environment and revision."""
    from repro.kernels.cbindings import load_library
    from repro.obs.perf import host_fingerprint

    lib = load_library()
    return {
        "fingerprint": host_fingerprint(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "stream_gbs": stream_gbs,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("REPRO_", "OMP_"))},
        "git_rev": git_rev(),
        "src_sha": src_digest(),
        "kernel_abi": lib.abi_version if lib is not None else None,
        "python": platform.python_version(),
    }


def measure_stream(tiny: bool) -> float:
    from repro.obs.perf import measure_stream_bandwidth

    return measure_stream_bandwidth(size_mb=16 if tiny else 256)


# ---------------------------------------------------------------------- #
# inputs and correctness


def make_sinograms(op, size: int, seed: int, k: int):
    """Shepp-Logan projected through *op* plus seeded Gaussian noise.

    Returns an (m, k) float stack.  Call under ``REPRO_BACKEND=numpy`` so
    the clean projection -- and so the inputs -- depend on the seed
    alone, not on the threaded kernels' summation order.
    """
    import numpy as np

    from repro.geometry.phantom import shepp_logan

    truth = shepp_logan(size).ravel().astype(op.dtype)
    clean = np.asarray(op.forward(truth), dtype=np.float64)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, NOISE * float(clean.std() or 1.0),
                       (clean.shape[0], k))
    return (clean[:, None] + noise).astype(op.dtype)


def rel_err(x, ref) -> float:
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    den = float(np.linalg.norm(ref)) or 1.0
    return float(np.linalg.norm(x - ref)) / den


def bitwise_equal(a, b) -> bool:
    import numpy as np

    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------- #
# statistics


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]) of a sample."""
    s = sorted(values)
    idx = max(0, min(len(s) - 1, int(-(-q * len(s) // 1)) - 1))
    return float(s[idx])


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------- #
# spans: recorded with repro.obs.trace.span, reduced to self time here


def self_times(spans, names: set) -> dict:
    """Summed self time per span name, over the spans named in *names*.

    A span's self time is its duration minus the part of its interval
    covered by its (benchmark-recorded) children.  Spans the program
    records internally are ignored: they nest inside ours and would
    otherwise move time between layers depending on what ``src/``
    happens to trace.
    """
    parent_of = {s.id: s.parent for s in spans}
    ours = [s for s in spans if s.name in names]
    by_id = {s.id: s for s in ours}
    children: dict = {}
    for s in ours:
        parent = s.parent
        while parent != -1 and parent not in by_id:
            parent = parent_of.get(parent, -1)
        if parent != -1:
            children.setdefault(parent, []).append((s.start, s.end))
    out: dict = {}
    for s in ours:
        covered = union_length(children.get(s.id, []), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + (s.seconds - covered)
    return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name, "id": s.id, "parent": s.parent,
                "start": s.start, "end": s.end, "attrs": s.attrs,
            }, default=str) + "\n")
