"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import self_times  # noqa: E402

_EMIT = """
import sys
sys.path.insert(0, sys.argv[1])
import gen
for seed in range(60):
    sys.stdout.write(gen.rename_predicates(gen.corpus_kb(seed), seed))
for n in (2, 3, 4):
    sys.stdout.write(gen.join_family(n) + gen.chain_family(n))
"""


def _generated_text(hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", _EMIT, str(HERE)],
        env={"PYTHONHASHSEED": hash_seed}, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_generated_text_does_not_depend_on_the_hash_seed():
    first, second = _generated_text("0"), _generated_text("1")
    assert first and first == second


def test_self_time_subtracts_only_direct_children():
    # op 0: a [0, 10] with children b [1, 4] and c [5, 9]; c has child d [6, 8].
    # A root span in op 1 with a parent id outside the list is a root too.
    spans = [
        (0, -1, 0, "a", 0.0, 10.0),
        (1, 0, 0, "b", 1.0, 4.0),
        (2, 0, 0, "c", 5.0, 9.0),
        (3, 2, 0, "d", 6.0, 8.0),
        (7, 99, 1, "b", 20.0, 20.5),
    ]
    got = self_times(spans)
    assert got == {"a": (1, 3.0), "b": (2, 3.5), "c": (1, 2.0), "d": (1, 2.0)}


def test_self_time_clips_children_to_their_parent():
    spans = [(0, -1, 0, "a", 0.0, 2.0), (1, 0, 0, "b", 1.5, 3.0)]
    assert self_times(spans) == {"a": (1, 1.5), "b": (1, 1.5)}
