"""One benchmark process: set a workload up, ask its questions in rounds for
a fixed time, check every answer, and print one JSON object.

``run.py`` starts this file with a fixed ``PYTHONHASHSEED`` and chasegraph
on ``PYTHONPATH``; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

MAX_PROBLEMS = 20  # problem messages kept in the output

# Answers are timed on the process's CPU clock.  The process is single-
# threaded and does no I/O while answering, so on an idle machine this is its
# wall time; on a shared virtual machine it leaves out the time the host runs
# other guests instead, which made wall time drift by 1.8x within minutes.
clock = time.process_time


class Run:
    """Answers, latencies and failures of one process."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.tracer: Tracer | None = None
        self.op_id = 0
        self.latencies: list[list[float]] = []  # per round, one per input
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.problems: list[str] = []
        self.last: dict[int, object] = {}

    def problem(self, msg: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(msg)

    def round(self) -> float:
        """Ask every question once; return the summed answer time (CPU)."""
        total = 0.0
        per_input: dict[str, float] = {}
        for i, op in enumerate(self.workload.ops):
            if self.tracer is not None:
                self.tracer.op_id = self.op_id
                self.tracer.recording = True
            self.op_id += 1
            answer, error, refused = None, None, False
            start = clock()
            try:
                answer = op.answer()
            except workloads.Refused as exc:
                error, refused = str(exc), True
            except Exception:  # a crash is a failed op, reported, not fatal
                error = traceback.format_exc(limit=3)
            elapsed = clock() - start
            if self.tracer is not None:
                self.tracer.recording = False
            total += elapsed
            key = op.input or op.label
            per_input[key] = per_input.get(key, 0.0) + elapsed
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if refused:
                    self.refused += 1
                else:
                    self.problem(f"{op.label}: {error}")
                continue
            problems = op.check(answer)
            if problems:
                self.failed += 1
                for p in problems:
                    self.problem(f"{op.label}: {p}")
            self.last[i] = answer
        self.latencies.append(list(per_input.values()))
        return total

    def rounds(self, budget: float, after_round=None) -> list[float]:
        """Rounds until the next one would end after ``budget`` seconds of
        wall time; at least one."""
        times: list[float] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            times.append(self.round())
            if after_round is not None:
                after_round()
            now = time.perf_counter()
            if now - start + (now - round_start) > budget:
                return times

    def full_checks(self) -> None:
        """Check each question's last answer in full; an answer failing
        here counts as one more failed op."""
        for i, op in enumerate(self.workload.ops):
            if i in self.last:
                problems = op.full_check(self.last[i])
                self.failed += bool(problems)
                for p in problems:
                    self.problem(f"{op.label}: {p}")


def traced_rounds(run: Run, budget: float, spans_path: str | None) -> tuple[list, dict]:
    """Rounds with every traced function wrapped; the per-layer metrics are
    medians over the rounds."""
    tracer = run.tracer = Tracer()
    per_round: list[dict[str, float]] = []
    first_span = 0

    def collect() -> None:
        nonlocal first_span
        per_round.append(layer_metrics(list(tracer.spans(first_span)), tracer.counts))
        tracer.counts.clear()
        first_span = len(tracer)

    tracer.install()
    try:
        times = run.rounds(budget, collect)
    finally:
        tracer.uninstall()
        run.tracer = None
    if spans_path:
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    layers = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    return times, {"layers": layers, "spans": {"file": spans_path, "count": len(tracer)}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced rounds' spans here")
    args = parser.parse_args()

    workload = workloads.build(args.workload, Path.cwd(), args.seed)
    # CPU time since the process started: interpreter start-up, imports,
    # generating and parsing the inputs.
    setup_s = clock()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = Run(workload)
    out: dict = {
        "setup_s": setup_s,
        "inputs": workload.inputs,
        "ops_per_round": len(workload.ops),
    }
    if not args.trace:
        out["rounds"] = run.rounds(args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["latencies"] = run.latencies
    else:
        # Untraced rounds first, then traced ones, half the time each.
        out["rounds"] = run.rounds(args.seconds / 2)
        out["traced_rounds"], traced = traced_rounds(run, args.seconds / 2, args.spans)
        out.update(traced)
        out["layers"]["trace.overhead_ratio"] = (
            statistics.median(out["traced_rounds"]) / statistics.median(out["rounds"]))
    run.full_checks()
    out.update(attempted=run.attempted, failed=run.failed, refused=run.refused,
               problems=run.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
