"""Brute-force oracles, deliberately independent of the engine's search paths.

The homomorphism oracle enumerates every assignment of the source's
non-constant terms; the dependence oracle enumerates every instance over
the two rules' body predicates on a small constant universe (up to
renaming of the fresh constants) and checks the new-trigger condition on
each.  Both are only usable at desk scale.

The weak-class oracle is the classifier's earlier engine for wgbts and
wcdgs: instances are bucketed by a cheap shape key and grouped by pairwise
``isomorphic_mod_nulls``, and each group's good derivation is searched by
iterative deepening, one fresh enumeration per length.

The enumeration oracle is the chase's earlier derivation enumerator: at each
node it recomputes every rule's triggers over the whole instance, applies
each through the public ``Derivation.extend``, and recurses; its
``"mod-nulls"`` mode keeps the set of derivation keys it has seen.
"""

from __future__ import annotations

import itertools

from chasegraph.analysis import _rename_apart, _witnesses_dependence, is_greedy
from chasegraph.chase import Derivation, derivation_key, enumerate_derivations, triggers
from chasegraph.classify import (
    HOLDS,
    REFUTED,
    UNKNOWN,
    ClassificationVerdict,
    GroupWitness,
    Refutation,
)
from chasegraph.derivgraph import build_derivation_graph
from chasegraph.errors import ResourceLimitError
from chasegraph.homs import isomorphic_mod_nulls
from chasegraph.model import (
    Atom,
    Constant,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Substitution,
    term_key,
    variables_of,
)
from chasegraph.reduction import reduce_graph


def brute_force_homomorphisms(source, target: Instance) -> list[Substitution]:
    mappable = sorted(
        {t for a in source for t in a.args if not isinstance(t, Constant)},
        key=term_key,
    )
    pool = sorted(target.terms(), key=term_key)
    found = []
    for combo in itertools.product(pool, repeat=len(mappable)):
        sub = Substitution(dict(zip(mappable, combo)))
        if sub.apply(source) <= target.atoms:
            found.append(sub)
    found.sort(key=Substitution.key)
    return found


def brute_force_depends_on(r2: Rule, r1: Rule, max_fresh: int = 3) -> bool:
    """Exhaustive search for an instance where applying r1 newly triggers r2.

    Instances range over the predicates of the two bodies, with at most
    |body(r1)| + |body(r2)| atoms over min(max_fresh, total body variables)
    fresh constants plus the rules' own constants.  Instances differing only
    by a permutation of the fresh constants are checked once.
    """
    r2 = _rename_apart(r2, variables_of(r1.body) | variables_of(r1.head))
    n_fresh = min(max_fresh, len(variables_of(r1.body)) + len(variables_of(r2.body)))
    fresh = [Constant(f"_u{i}") for i in range(n_fresh)]
    consts = sorted(r1.constants() | r2.constants(), key=term_key) + fresh

    preds = sorted({(a.pred, len(a.args)) for a in r1.body | r2.body})
    atoms: list[Atom] = []
    for pred, arity in preds:
        for args in itertools.product(consts, repeat=arity):
            atoms.append(Atom(pred, args))

    # permutations of the fresh constants as atom-index maps
    perms = []
    atom_index = {a: i for i, a in enumerate(atoms)}
    for perm in itertools.permutations(fresh):
        table = dict(zip(fresh, perm))
        mapped = [
            atom_index[Atom(a.pred, tuple(table.get(t, t) for t in a.args))]
            for a in atoms
        ]
        perms.append(mapped)

    pred_bit = {p: 1 << i for i, (p, _) in enumerate(preds)}
    atom_bits = [pred_bit[a.pred] for a in atoms]
    need_mask = 0
    for a in r1.body:
        need_mask |= pred_bit[a.pred]

    max_atoms = len(r1.body) + len(r2.body)
    for size in range(max_atoms + 1):
        for combo in itertools.combinations(range(len(atoms)), size):
            mask = 0
            for i in combo:
                mask |= atom_bits[i]
            if mask & need_mask != need_mask:
                continue
            canonical = min(tuple(sorted(p[i] for i in combo)) for p in perms)
            if canonical != combo:
                continue
            instance = Instance(atoms[i] for i in combo)
            if _witnesses_dependence(instance, r1, r2):
                return True
    return False


def enumerate_oracle(db: Instance, rules, max_len: int, dedup: str = "none",
                     skip_redundant: bool = False, max_derivations: int = 10**6):
    """Every derivation from db of length <= max_len, depth-first, recomputing
    each node's triggers over the whole instance."""
    seen: set[tuple] = set()
    count = 0

    def walk(d: Derivation):
        nonlocal count
        count += 1
        if count > max_derivations:
            raise ResourceLimitError(f"more than {max_derivations} derivations")
        yield d
        if len(d) >= max_len:
            return
        for r in rules:
            for hom in triggers(d.final, r):
                child = d.extend(r, hom)
                if skip_redundant and not child.new_atoms(len(child)):
                    continue
                if dedup == "mod-nulls":
                    key = derivation_key(child)
                    if key in seen:
                        continue
                    seen.add(key)
                yield from walk(child)

    yield from walk(Derivation(db))


def _bucket_key(inst: Instance) -> tuple:
    """Cheap renaming-invariant key; candidates in one bucket still get a
    full isomorphism check."""
    shape = []
    for a in inst.sorted_atoms():
        shape.append((a.pred, tuple("?" if isinstance(t, Null) else t.name for t in a.args)))
    return (tuple(sorted(shape)), len(inst.nulls()))


def _group_instances(kb: KnowledgeBase, depth: int, dedup: str) -> list[list]:
    """[target, shortest length, first shortest derivation] per instance
    class, in first-seen order."""
    buckets: dict[tuple, list[list]] = {}
    ordered: list[list] = []
    for d in enumerate_derivations(kb.database, kb.rules, depth, dedup=dedup):
        inst = d.final
        key = _bucket_key(inst)
        group = None
        for g in buckets.get(key, []):
            if isomorphic_mod_nulls(inst, g[0]) is not None:
                group = g
                break
        if group is None:
            group = [inst, len(d), d]
            buckets.setdefault(key, []).append(group)
            ordered.append(group)
        elif len(d) < group[1]:
            group[1], group[2] = len(d), d
    return ordered


def _find_rederivation(kb: KnowledgeBase, target: Instance, max_len: int, dedup: str, check):
    """Iterative deepening: the first derivation of the target, by length
    and then enumeration order, whose check is truthy, with that result."""
    for length in range(max_len + 1):
        for cand in enumerate_derivations(kb.database, kb.rules, length, dedup=dedup):
            if len(cand) != length:
                continue
            if isomorphic_mod_nulls(cand.final, target) is None:
                continue
            result = check(cand)
            if result:
                return cand, result
    return None


def weak_classify_oracle(
    kb: KnowledgeBase,
    cls: str,
    depth: int,
    dedup: str = "mod-nulls",
    rederivation_bound: str = "shortest",
) -> ClassificationVerdict:
    """The wgbts/wcdgs verdict, computed the slow way."""
    if cls == "wgbts":
        def check(d):
            return is_greedy(d, kb).greedy
        reason = "instance admits no greedy derivation"
    else:
        def check(d):
            return reduce_graph(build_derivation_graph(d, kb), "full")
        reason = "no derivation of the instance has a reducible graph"
    try:
        witnesses = []
        for target, shortest_len, shortest in _group_instances(kb, depth, dedup):
            bound = shortest_len if rederivation_bound == "shortest" else depth
            found = _find_rederivation(kb, target, bound, dedup, check)
            if found is None:
                cert = Refutation(shortest, reason, target=target)
                return ClassificationVerdict(cls, depth, REFUTED, cert)
            w, result = found
            trace = result if cls == "wcdgs" else None
            witnesses.append(GroupWitness(target, shortest_len, w, trace))
        return ClassificationVerdict(cls, depth, HOLDS, tuple(witnesses))
    except ResourceLimitError as exc:
        return ClassificationVerdict(cls, depth, UNKNOWN, detail=str(exc))
