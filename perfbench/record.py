"""Write ``expected.json``: the answers of the current engine to every
question the benchmark asks, so that later runs can check theirs.

Run from the repository root:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record.py

The file was recorded once, at the commit that added the benchmark; record
it again only when an intended change of answers lands.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads as w


def record_enumerate(root: Path) -> dict:
    out = {}
    for label, text, depth in w.enumerate_questions(root):
        kb = w.parse_kb(text)
        out[label] = {
            "count": w.count_derivations(kb, depth),
            "fingerprint": w.fingerprint(w.chase.enumerate_derivations(kb.database, kb.rules, depth)),
        }
    return out


def record_classify(root: Path) -> dict:
    out = {}
    for name, text, depth in w.classify_questions(root):
        kb = w.parse_kb(text)
        for cls in w.CLASSES:
            verdict, _ = w.classify_answer(kb, cls, depth)
            out[f"{name} d{depth} {cls}"] = {
                "result": verdict.result,
                "certificate": w.certificate_digest(verdict),
            }
    return out


def record_reduce(root: Path) -> dict:
    out = {}
    for src, text, depth in w.reduce_sources(root):
        kb = w.parse_kb(text)
        flags = [w.analysis.is_greedy(d, kb).greedy for d in w.maximal_derivations(kb, depth)]
        count, nongreedy = len(flags), flags.count(False)
        flags += [False] * (-count % 4)
        bits = "".join(
            f"{int(''.join('1' if f else '0' for f in flags[i:i + 4]), 2):x}"
            for i in range(0, count, 4)
        )
        out[src] = {"maximal": count, "nongreedy": nongreedy, "greedy_bits": bits}
    return out


def record_corpus() -> dict:
    kbs, skipped = {}, []
    kb_seed = 0
    while len(kbs) < w.CORPUS_KBS:
        try:
            kbs[str(kb_seed)] = w.corpus_summary(w.corpus_answer(w.gen.corpus_kb(kb_seed)))
        except w.Refused:
            skipped.append(kb_seed)
        kb_seed += 1
    return {"kbs": kbs, "skipped": skipped}


def main() -> int:
    root = Path.cwd()
    expected = {
        "enumerate": record_enumerate(root),
        "classify-weak": record_classify(root),
        "reduce-long": record_reduce(root),
        "corpus": record_corpus(),
    }
    w.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
