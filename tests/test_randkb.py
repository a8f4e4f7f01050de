"""The seeded random-KB generator, and both enumeration streams over its
corpus, depend on the seed alone."""

import subprocess
import sys

from conftest import subprocess_env

_FINGERPRINT_SCRIPT = """
import hashlib, random
from chasegraph.chase import derivation_key, enumerate_derivations
from chasegraph.errors import ResourceLimitError
from chasegraph.randkb import random_kb

rng, kbs = random.Random(1702), 0
count, digest = {"none": 0, "traces": 0}, {"none": hashlib.sha256(), "traces": hashlib.sha256()}
while kbs < 500:  # the acceptance corpus: seed 1702, 500 in-budget KBs, depth 3
    kb = random_kb(rng)
    try:
        derivations = list(enumerate_derivations(kb.database, kb.rules, 3,
                                                 max_derivations=1200))
    except ResourceLimitError:
        continue
    kbs += 1
    for dedup in ("none", "traces"):
        if dedup == "traces":
            derivations = list(enumerate_derivations(kb.database, kb.rules, 3, dedup=dedup))
        count[dedup] += len(derivations)
        digest[dedup].update(repr([str(r) for r in kb.rules]).encode())
        for d in derivations:
            digest[dedup].update(repr(derivation_key(d)).encode())
for dedup in ("none", "traces"):
    print(count[dedup], digest[dedup].hexdigest())
"""


def test_corpus_fingerprint_independent_of_hash_seed():
    def run(seed: str) -> str:
        env = subprocess_env(PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _FINGERPRINT_SCRIPT],
                              capture_output=True, text=True, env=env, check=True)
        return proc.stdout

    first = run("0")
    # the full stream, then one derivation per trace (DECISIONS.md section 5)
    assert [int(line.split()[0]) for line in first.splitlines()] == [11370, 7183]
    assert first == run("1")
