"""The seeded random-KB generator depends on its seed alone."""

import os
import subprocess
import sys

_FINGERPRINT_SCRIPT = """
import hashlib, random
from chasegraph.chase import derivation_key, enumerate_derivations
from chasegraph.errors import ResourceLimitError
from chasegraph.randkb import random_kb

rng, kbs, count, digest = random.Random(1702), 0, 0, hashlib.sha256()
while kbs < 500:  # the acceptance corpus: seed 1702, 500 in-budget KBs, depth 3
    kb = random_kb(rng)
    try:
        derivations = list(enumerate_derivations(kb.database, kb.rules, 3,
                                                 max_derivations=1200))
    except ResourceLimitError:
        continue
    kbs += 1
    count += len(derivations)
    digest.update(repr([str(r) for r in kb.rules]).encode())
    for d in derivations:
        digest.update(repr(derivation_key(d)).encode())
print(count, digest.hexdigest())
"""


def test_corpus_fingerprint_independent_of_hash_seed():
    def run(seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _FINGERPRINT_SCRIPT],
                              capture_output=True, text=True, env=env, check=True)
        return proc.stdout

    first = run("0")
    assert int(first.split()[0]) > 0
    assert first == run("1")
