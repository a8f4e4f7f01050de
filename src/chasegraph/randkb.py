"""Small random knowledge bases for property checks.

Generation is driven entirely by a caller-supplied ``random.Random`` so a
seed pins the whole sequence.  The shape envelope is tiny (up to 3 rules,
arity up to 3, up to 2 body atoms per rule, database of up to 3 atoms), and
two biases keep the yield interesting: database predicates are drawn from
the rule bodies so most KBs actually chase, and half the multi-rule KBs end
in a join rule reading two producer heads, the shape that separates greedy
from non-greedy derivations.
"""

from __future__ import annotations

import random

from .model import Atom, Constant, Instance, KnowledgeBase, Rule, Variable, atom_key

_PRED_NAMES = ("p", "q", "r", "s")
_CONSTANTS = (Constant("a"), Constant("b"), Constant("c"))


def random_kb(rng: random.Random) -> KnowledgeBase:
    arities = {name: rng.randint(1, 3) for name in _PRED_NAMES[: rng.randint(2, 4)]}
    preds = sorted(arities)
    consts = _CONSTANTS[: rng.randint(1, 3)]

    def make_rule(idx: int) -> Rule:
        body_vars = [Variable(f"X{i}") for i in range(1, rng.randint(2, 3) + 1)]
        body = []
        for _ in range(2 if rng.random() < 0.5 else 1):
            p = rng.choice(preds)
            args = tuple(
                rng.choice(body_vars) if rng.random() < 0.85 else rng.choice(consts)
                for _ in range(arities[p])
            )
            body.append(Atom(p, args))
        used_vars = sorted(
            {t for a in body for t in a.args if isinstance(t, Variable)},
            key=lambda v: v.name,
        )
        exist_vars = [Variable(f"Z{i}") for i in range(1, rng.randint(1, 2) + 1)]
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
            head.append(Atom(p, tuple(args)))
        return Rule(f"g{idx}", frozenset(body), frozenset(head))

    def make_join_rule(idx: int, producers: tuple[Rule, ...]) -> Rule | None:
        # read one head atom from each of two producer rules, with disjoint
        # variables, and echo a variable of each in the head
        heads = [a for r in producers for a in sorted(r.head, key=atom_key)]
        if len(heads) < 2:
            return None
        left = rng.choice(heads)
        right = rng.choice(heads)
        lvars = [Variable(f"X{i}") for i in range(1, left.arity + 1)]
        rvars = [Variable(f"Y{i}") for i in range(1, right.arity + 1)]
        body = [Atom(left.pred, tuple(lvars)), Atom(right.pred, tuple(rvars))]
        if body[0] == body[1]:
            return None
        p = rng.choice(preds)
        pool = [rng.choice(lvars), rng.choice(rvars)]
        args = tuple(
            pool[k] if k < 2 else rng.choice(lvars + rvars)
            for k in range(arities[p])
        )
        if not args:
            return None
        return Rule(f"g{idx}", frozenset(body), frozenset({Atom(p, args)}))

    n_rules = rng.randint(1, 3)
    rules = [make_rule(i + 1) for i in range(n_rules)]
    if n_rules >= 2 and rng.random() < 0.6:
        join = make_join_rule(n_rules, tuple(rules[:-1]))
        if join is not None:
            rules[-1] = join

    body_preds = sorted({a.pred for r in rules for a in r.body})

    def ground_atom() -> Atom:
        # bias the database toward predicates some rule body reads, so most
        # generated KBs actually chase
        if body_preds and rng.random() < 0.75:
            p = rng.choice(body_preds)
        else:
            p = rng.choice(preds)
        return Atom(p, tuple(rng.choice(consts) for _ in range(arities[p])))

    db = Instance({ground_atom() for _ in range(rng.randint(1, 3))})
    return KnowledgeBase(db, tuple(rules))
