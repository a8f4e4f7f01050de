"""Seeded input generators for the benchmark.  Standard library only.

Every generator returns rule-file text; the program under test sees only
that text, parsed by ``docparse``.  Generation iterates lists and sorted
collections only, never a ``set`` or ``frozenset``, so the text depends on
the seed alone and not on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
import re
import string

_PRED_NAMES = ("p", "q", "r", "s")
_CONSTANTS = ("a", "b", "c")


def _atom(pred: str, args) -> str:
    return f"{pred}({','.join(args)})"


def corpus_kb(seed: int) -> str:
    """One small KB in the shape envelope of ``chasegraph.randkb``.

    Up to 3 rules, arity up to 3, up to 2 body atoms per rule, a database of
    up to 3 atoms; database predicates lean toward rule bodies, and most
    multi-rule KBs end in a join rule over two producer heads.  Unlike
    ``randkb.random_kb``, the join rule picks producer heads from a list, so
    the same seed gives the same text under every hash seed.
    """
    rng = random.Random(seed)
    arities = {name: rng.randint(1, 3) for name in _PRED_NAMES[: rng.randint(2, 4)]}
    preds = sorted(arities)
    consts = _CONSTANTS[: rng.randint(1, 3)]

    def make_rule(idx: int):
        body_vars = [f"X{i}" for i in range(1, rng.randint(2, 3) + 1)]
        body = []
        for _ in range(2 if rng.random() < 0.5 else 1):
            p = rng.choice(preds)
            args = tuple(
                rng.choice(body_vars) if rng.random() < 0.85 else rng.choice(consts)
                for _ in range(arities[p])
            )
            body.append((p, args))
        used_vars = sorted({t for _, args in body for t in args if t[0].isupper()})
        exist_vars = [f"Z{i}" for i in range(1, rng.randint(1, 2) + 1)]
        head = []
        for _ in range(rng.randint(1, 2)):
            p = rng.choice(preds)
            args = []
            for _ in range(arities[p]):
                roll = rng.random()
                if used_vars and roll < 0.4:
                    args.append(rng.choice(used_vars))
                elif roll < 0.9:
                    args.append(rng.choice(exist_vars))
                else:
                    args.append(rng.choice(consts))
            head.append((p, tuple(args)))
        return (f"g{idx}", body, head)

    def make_join_rule(idx: int, producers):
        # one head atom from each of two producers, disjoint variables, and
        # a variable of each echoed in the head
        heads = sorted({a for _, _, head in producers for a in head})
        if len(heads) < 2:
            return None
        left = rng.choice(heads)
        right = rng.choice(heads)
        lvars = [f"X{i}" for i in range(1, len(left[1]) + 1)]
        rvars = [f"Y{i}" for i in range(1, len(right[1]) + 1)]
        body = [(left[0], tuple(lvars)), (right[0], tuple(rvars))]
        if body[0] == body[1]:
            return None
        p = rng.choice(preds)
        pool = [rng.choice(lvars), rng.choice(rvars)]
        args = tuple(
            pool[k] if k < 2 else rng.choice(lvars + rvars) for k in range(arities[p])
        )
        return (f"g{idx}", body, [(p, args)])

    n_rules = rng.randint(1, 3)
    rules = [make_rule(i + 1) for i in range(n_rules)]
    if n_rules >= 2 and rng.random() < 0.6:
        join = make_join_rule(n_rules, rules[:-1])
        if join is not None:
            rules[-1] = join

    body_preds = sorted({p for _, body, _ in rules for p, _ in body})

    def ground_atom():
        if body_preds and rng.random() < 0.75:
            p = rng.choice(body_preds)
        else:
            p = rng.choice(preds)
        return (p, tuple(rng.choice(consts) for _ in range(arities[p])))

    facts = sorted({ground_atom() for _ in range(rng.randint(1, 3))})
    lines = [_atom(p, args) + "." for p, args in facts]
    for rid, body, head in rules:
        lines.append(
            f"{rid}: {', '.join(_atom(*a) for a in body)} -> "
            f"{', '.join(_atom(*a) for a in head)}."
        )
    return "\n".join(lines) + "\n"


def join_family(n: int) -> str:
    """The n-producer join.  n = 2 is ``samples/join.rules`` up to names.

    n unary facts, one producer per fact, one combined producer firing all
    n at once, and a join reading one atom of every producer.
    """
    lines = [f"p{i}(c{i})." for i in range(1, n + 1)]
    for i in range(1, n + 1):
        lines.append(f"r{i}: p{i}(X) -> q{i}(X,Y,Z).")
    body = ", ".join(f"p{i}(X{i})" for i in range(1, n + 1))
    head = ", ".join(f"q{i}(X{i},Y{i},Z{i})" for i in range(1, n + 1))
    lines.append(f"rc: {body} -> {head}.")
    body = ", ".join(f"q{i}(X{i},Y{i},Z{i})" for i in range(1, n + 1))
    args = ",".join(f"X{i},Y{i}" for i in range(1, n + 1))
    lines.append(f"rj: {body} -> t({args},O).")
    return "\n".join(lines) + "\n"


def chain_family(n: int) -> str:
    """The length-n chain: n growers, each extending the last link with a
    fresh null, and one closer per link joining it to the link before it,
    as ``r3`` does in ``samples/chain.rules``."""
    lines = ["c0(a,b)."]
    for i in range(1, n + 1):
        lines.append(f"g{i}: c{i - 1}(X,Y) -> c{i}(Y,Z).")
    for i in range(1, n + 1):
        lines.append(f"k{i}: c{i}(X,Y), c{i - 1}(Z,X) -> d{i}(X,Y).")
    return "\n".join(lines) + "\n"


_PRED_RE = re.compile(r"\b([a-z][A-Za-z0-9_]*)\(")


def rename_predicates(text: str, seed: int) -> str:
    """Rename every predicate to a seed-chosen name, consistently.

    Renaming predicates leaves every answer the benchmark checks unchanged:
    trigger order, derivation keys, verdicts and reductions never read a
    predicate name.  It changes hashing and sort order inside the engine.
    """
    rng = random.Random(f"rename:{seed}")
    mapping: dict[str, str] = {}
    for pred in sorted(set(_PRED_RE.findall(text))):
        name = pred
        while name == pred or name in mapping.values():
            name = "p" + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        mapping[pred] = name
    return _PRED_RE.sub(lambda m: mapping[m.group(1)] + "(", text)
