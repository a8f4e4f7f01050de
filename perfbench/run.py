"""The chasegraph benchmark.  Standard library only.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``enumerate``: stream ``enumerate_derivations`` (dedup "none", the CLI
  default) on ``join.rules`` at depth 6, ``chain.rules`` at depth 7 and two
  generated families.
- ``classify-weak``: ``classify`` in all four classes with the library
  defaults on the samples at depths 3-5 (join to depth 4) and a family, each
  verdict serialised with ``render.verdict_json``.
- ``reduce-long``: the acceptance suite's selfcheck pipeline on every 16th
  maximal-length derivation of ``chain.rules`` at depths 6 and 7 and of
  ``join.rules`` at depth 5.
- ``corpus``: 100 small generated KBs, each parsed, enumerated at depth 3
  under the selfcheck budget, run through the pipeline and classified in all
  four classes at depth 3.

Every process runs single-threaded with ``PYTHONHASHSEED`` fixed to
``HASH_SEED``.  Times are process CPU time (``time.process_time``): the
processes do no I/O while timed, so on an idle machine this is wall time, and
on a shared virtual machine it leaves out time the host gives to other
guests (``worker.py`` says why).  Set-up (process start to the first
question: interpreter start-up, imports, generating and parsing the inputs)
is timed in ``SETUP_PROBES`` extra processes as well as in the measuring
one, and reported as the median.  The measuring process asks the workload's questions in rounds for ``--seconds``
and checks every answer.  ``kb_p50_ms`` and ``kb_tail_ms`` are percentiles,
across inputs, of each input's latency: the median over rounds of the time
to answer every question about it.  An input is a KB at a depth (for
``reduce-long``, the sampled derivations of one KB at one depth).  With ``--trace 1`` it spends half the time
untraced and half traced, reports per-layer metrics instead of end-to-end
ones, and writes its spans under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result of
the run, with every round and problem, goes to ``perfbench/out/`` too.  To
run every workload:

    for w in enumerate classify-weak reduce-long corpus; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
HASH_SEED = "0"
SETUP_PROBES = 4
PROCESS_TIMEOUT_S = 170.0
WORKLOADS = ("enumerate", "classify-weak", "reduce-long", "corpus")

END_TO_END_UNITS = {
    "answer_s": "s",
    "setup_s": "s",
    "kb_p50_ms": "ms",
    "kb_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of the usual percentiles with at
    least ten samples beyond it; the median when there are fewer than
    twenty samples."""
    pct = max((p for p in (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
               if len(samples) * (100.0 - p) / 100.0 >= 10), default=50.0)
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return pct, cuts[round(pct * 10) - 1]


def worker(root: Path, args, deadline: float, *extra: str) -> dict:
    """Run worker.py to the end and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(root / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("src/chasegraph/__init__.py", "samples/join.rules", "samples/chain.rules"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a chasegraph checkout",
                  file=sys.stderr)
            return 2

    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    try:
        probes = [worker(root, args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        out_dir = HERE / "out"
        spans = os.path.relpath(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz", root)
        res = worker(root, args, deadline, *(["--spans", spans] if args.trace else []))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups = probes + [res["setup_s"]]
    correct = not res["problems"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  PYTHONHASHSEED {HASH_SEED}  "
        f"trace {args.trace}",
        f"inputs: {res['inputs']}",
        f"rounds: {len(res['rounds'])} of {res['ops_per_round']} ops "
        f"({', '.join(f'{t:.3f}' for t in res['rounds'])} s of process CPU time)",
        f"failed_ratio {res['failed'] / res['attempted']:.4f} "
        f"({res['failed']} failed of {res['attempted']} attempted; "
        f"{res['refused']} refused by a budget or unknown)",
    ]
    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in LAYER_METRICS}
        lines.append(f"traced rounds: {', '.join(f'{t:.3f}' for t in res['traced_rounds'])} s; "
                     f"{res['spans']['count']} spans written to {res['spans']['file']}")
        selfs = {k[:-len(".self_s")]: v for k, v in res["layers"].items()
                 if k.endswith(".self_s") and v > 0}
        total = sum(selfs.values())
        lines.append("share of traced self time: " + ", ".join(
            f"{name} {v / total:.1%}" for name, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
    else:
        # One sample per input: its median latency over the rounds.  The
        # number of samples, and so the tail percentile, stays the same when
        # a faster program fits more rounds into the run.
        per_input = [statistics.median(col) for col in zip(*res["latencies"])]
        pct, tail = tail_percentile(per_input)
        values = {
            "answer_s": statistics.median(res["rounds"]),
            "setup_s": statistics.median(setups),
            "kb_p50_ms": 1000 * statistics.median(per_input),
            "kb_tail_ms": 1000 * tail,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        lines.append(f"setup runs: {', '.join(f'{t:.4f}' for t in setups)} s")
        lines.append(f"kb latency: p50 and p{pct:g} of {len(per_input)} samples, "
                     f"one per input (its median over {len(res['rounds'])} rounds)")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    for p in res["problems"]:
        lines.append(f"PROBLEM {p}")
    print("\n".join(lines))

    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "pythonhashseed": HASH_SEED, "setup_runs": setups,
              "correct": correct, "metrics": metrics, "worker": res}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
