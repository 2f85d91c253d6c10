"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``spec.py`` and
``README.md``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run's full record (host, configuration, working set, samples),
which is also saved under ``.perfbench/results/``.

``--tiny`` shrinks every workload for the smoke test; ``--corrupt-one``
perturbs one result before the correctness check, to show that a wrong
result is counted.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import spec  # noqa: E402
from common import BenchError, metric  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-one", action="store_true")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds through the workloads' finally blocks, which stop
    # the server and reap every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.require_repo()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    common.prepare_env()
    cfg = spec.workload(args.workload, args.tiny)
    run = common.run_dir(args.workload, args.seed, args.trace)
    try:
        common.require_compiled_kernels()
        host = common.host_record(common.measure_stream(args.tiny))
        if cfg["kind"] == "library":
            import library as workload
        else:
            import serve_load as workload
        metrics, attempted, failed, record = workload.run(cfg, args, run, host)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = spec.PER_LAYER if args.trace else spec.END_TO_END
    missing = sorted(set(names) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: metric(metrics[n], u) for n, u in names.items()},
    }
    full = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "config": cfg, "host": host, "time": time.time(),
        "record": record, "result": result,
    }
    results_dir = common.WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time() * 1e3)}"
    (results_dir / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str))
    for spans in run.glob("*spans.jsonl"):
        shutil.move(spans, results_dir / f"{stem}.{spans.name}")
    shutil.rmtree(run, ignore_errors=True)
    print(json.dumps(full, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
