"""Summarise the runs in ``perfbench/out/`` into ``perfbench/BENCH_<label>.json``.

Run the benchmark on several seeds per workload, untraced and traced, then:

    python3 perfbench/summarize.py baseline

Per workload, each end-to-end metric gets its median, quartiles and spread
(quartile distance over median) across the untraced runs, and each
per-layer metric its median across the traced runs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def workload_summary(runs: list[dict], traced: list[dict]) -> dict:
    out: dict = {
        "seeds": sorted(r["args"]["seed"] for r in runs),
        "correct": all(r["correct"] for r in runs + traced),
        "attempted": sum(r["worker"]["attempted"] for r in runs),
        "failed": sum(r["worker"]["failed"] for r in runs),
        "end_to_end": {},
        "per_layer": {},
    }
    for name, metric in (runs[0]["metrics"] if runs else {}).items():
        values = [r["metrics"][name]["value"] for r in runs]
        out["end_to_end"][name] = {"unit": metric["unit"], **summary(values)}
    for name, metric in (traced[0]["metrics"] if traced else {}).items():
        values = [r["metrics"][name]["value"] for r in traced]
        out["per_layer"][name] = {"unit": metric["unit"], "median": statistics.median(values)}
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    label = sys.argv[1]
    results = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-seed*-trace*.json"))]
    workloads = sorted({r["args"]["workload"] for r in results})
    bench = {
        "label": label,
        "python": platform.python_version(),
        "machine": f"{platform.platform()}, {len(os.sched_getaffinity(0))} cpus",
        "pythonhashseed": results[0]["pythonhashseed"] if results else None,
        "workloads": {
            w: workload_summary(
                [r for r in results if r["args"]["workload"] == w and not r["args"]["trace"]],
                [r for r in results if r["args"]["workload"] == w and r["args"]["trace"]],
            )
            for w in workloads
        },
    }
    path = HERE / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
