"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE CANDIDATE

BASE and CANDIDATE are run records saved by ``run.py`` (files, or
directories of them such as ``.perfbench/results``).  For each workload
and metric it prints both medians, their quartile spread and a label:

``host-mismatch``  the two sides ran on hosts with different fingerprints;
                   nothing is concluded
``worse``          the candidate's median is worse than the base's by
                   more than the metric's bound in BENCHMARK.json
``better``         the candidate's median is better by more than the
                   bound and by more than the base's own quartile spread
``unresolved``     the base's spread is wider than the bound
``same``           none of the above

Per-layer metrics have no bound; they get the ratio and no label.
Exit status 1 when any end-to-end metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def label(base: list, cand: list, better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    mb, mc = statistics.median(base), statistics.median(cand)
    worse_by = (mc - mb if better == "lower" else mb - mc) / mb if mb else 0.0
    if worse_by > bound:
        return "worse"
    if spread(base) > bound:
        return "unresolved"
    if -worse_by > max(bound, spread(base)):
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, cand = load(Path(argv[1])), load(Path(argv[2]))
    hosts_b = {r["host"]["fingerprint"] for r in base}
    hosts_c = {r["host"]["fingerprint"] for r in cand}
    mismatch = hosts_b != hosts_c
    if mismatch:
        print(f"host-mismatch: base ran on {sorted(hosts_b)}, candidate on "
              f"{sorted(hosts_c)}; no gain or regression is concluded")
    status = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base + cand})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        c = [r for r in cand if (r["workload"], r["trace"]) == (workload, trace)]
        if not b or not c:
            continue
        print(f"\n{workload} (trace={trace}): {len(b)} base runs, {len(c)} candidate runs")
        for name in b[0]["result"]["metrics"]:
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            vc = [r["result"]["metrics"][name]["value"] for r in c
                  if name in r["result"]["metrics"]]
            if not vc:
                continue
            m = meta.get(name, {})
            mb, mc = statistics.median(vb), statistics.median(vc)
            ratio = mc / mb if mb else float("nan")
            tag = "host-mismatch" if mismatch else label(
                vb, vc, m.get("better", "lower"), m.get("bound"))
            if tag == "worse" and not trace:
                status = 1
            print(f"  {name:28s} {mb:12.5g} -> {mc:12.5g}  x{ratio:6.3f}  "
                  f"spread {spread(vb):.3f}/{spread(vc):.3f}  {tag}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
