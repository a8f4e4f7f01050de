"""Rule dependence, greediness checking, and derivation transformations.

Dependence ("applying rule r1 can newly enable rule r2") is decided by
checking candidate instances built from frozen copies of body(r1) together
with frozen copies of a proper subset of body(r2), under every pattern that
partitions the participating variables and optionally identifies blocks
with rule constants.  Any real witness instance projects onto one of these
candidates, so the enumeration is complete; each candidate is checked
directly against the definition, so it is sound.

Greediness of a derivation demands that each step's frontier image live
inside the constants of the knowledge base, the nulls of the initial
instance, and the nulls introduced by a *single* earlier step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chase import Derivation, apply_rule, enumerate_derivations, triggers
from .derivgraph import reachable
from .errors import NotPermutableError
from .homs import _pass_key, find_homomorphisms
from .model import (
    Constant,
    Instance,
    KnowledgeBase,
    Rule,
    Substitution,
    Term,
    Variable,
    nulls_of,
    term_key,
    variables_of,
)


# ---------------------------------------------------------------------------
# Rule dependence and the dependency graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleDependencyGraph:
    """Vertices are rule ids; an edge (r, r2) says r2 depends on r."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def sources(self) -> frozenset[str]:
        dependents = {r2 for _, r2 in self.edges}
        return frozenset(v for v in self.vertices if v not in dependents)

    def layers(self) -> dict[str, int]:
        """Topological depth over the condensation of the dependence graph.

        Rules in a dependence cycle share a layer; a rule's layer is one more
        than the deepest layer it depends on outside its own cycle.  A strict
        ancestor u of v (v not among u's ancestors) has fewer ancestors than
        v, so taking rules by ancestor count decides every u before v.
        """
        pred: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            pred[b].append(a)
        anc = {v: reachable(pred, v) for v in self.vertices}
        layer: dict[str, int] = {}
        for v in sorted(self.vertices, key=lambda v: len(anc[v])):
            layer[v] = max((layer[u] + 1 for u in anc[v] if v not in anc[u]), default=0)
        return {v: layer[v] for v in self.vertices}


def _rename_apart(r: Rule, taken: frozenset[Variable]) -> Rule:
    clash = variables_of(r.body) | variables_of(r.head)
    if not (clash & taken):
        return r
    ren = Substitution({v: Variable(f"{v.name}__2") for v in clash})
    return Rule(r.rid + "__2", frozenset(ren.apply(r.body)), frozenset(ren.apply(r.head)))


def _patterns(variables: list[Variable], consts: list[Constant]):
    """Every partition of the variables, each block frozen to its own fresh
    constant or identified with one rule constant (injectively)."""
    if not variables:
        yield Substitution()
        return
    blocks: list[list[Variable]] = []
    labels: list[Constant | None] = []

    def emit() -> Substitution:
        mapping: dict[Term, Term] = {}
        for i, blk in enumerate(blocks):
            img = labels[i] if labels[i] is not None else Constant(f"_frz{i}")
            for v in blk:
                mapping[v] = img
        return Substitution(mapping)

    def assign(i: int):
        if i == len(variables):
            yield emit()
            return
        v = variables[i]
        for blk in blocks:
            blk.append(v)
            yield from assign(i + 1)
            blk.pop()
        blocks.append([v])
        labels.append(None)
        yield from assign(i + 1)
        used = {c for c in labels if c is not None}
        for c in consts:
            if c in used:
                continue
            labels[-1] = c
            yield from assign(i + 1)
            labels[-1] = None
        blocks.pop()
        labels.pop()

    yield from assign(0)


def depends_on(r2: Rule, r1: Rule) -> bool:
    """True iff applying r1 to some instance can newly trigger r2.

    Formally: there is an instance I, a trigger h of r1 in I, and a
    homomorphism h2 mapping body(r2) into the result of applying (r1, h)
    such that h2 does not already map body(r2) into I itself.
    """
    if not {a.pred for a in r1.head} & {a.pred for a in r2.body}:
        return False  # a new trigger must read at least one new atom
    r2r = _rename_apart(r2, variables_of(r1.body) | variables_of(r1.head))
    consts = sorted(r1.constants() | r2r.constants(), key=term_key)
    body2 = sorted(r2r.body, key=lambda a: (a.pred, len(a.args), str(a)))
    for keep_n in range(len(body2)):  # proper subsets: >= 1 atom must be new
        for kept in itertools.combinations(body2, keep_n):
            pool = sorted(
                variables_of(r1.body) | variables_of(kept),
                key=term_key,
            )
            for sigma in _patterns(pool, consts):
                candidate = Instance(sigma.apply(r1.body) | sigma.apply(kept))
                if _witnesses_dependence(candidate, r1, r2r):
                    return True
    return False


def _witnesses_dependence(instance: Instance, r1: Rule, r2: Rule) -> bool:
    body2_preds = {a.pred for a in r2.body}
    for h in triggers(instance, r1):
        chased, trig = apply_rule(instance, r1, h)
        new = chased - instance
        # a new trigger must read a new atom, and atoms only match their
        # own predicate
        if not {a.pred for a in new} & body2_preds:
            continue
        for h2 in find_homomorphisms(r2.body, chased):
            if not h2.apply(r2.body) <= instance.atoms:
                return True
    return False


def rule_dependency_graph(rules: tuple[Rule, ...]) -> RuleDependencyGraph:
    edges = set()
    for r1 in rules:
        for r2 in rules:
            if depends_on(r2, r1):
                edges.add((r1.rid, r2.rid))
    return RuleDependencyGraph(tuple(r.rid for r in rules), frozenset(edges))


# ---------------------------------------------------------------------------
# Greediness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreedinessReport:
    """Verdict plus per-step evidence.

    ``witnesses[i]`` is the earlier step whose introduced nulls cover step
    i's frontier image (0 when constants and initial nulls suffice).
    ``violations`` lists (step, frontier image) pairs with no such witness.
    """

    greedy: bool
    witnesses: dict[int, int]
    violations: tuple[tuple[int, frozenset[Term]], ...]


def is_greedy(d: Derivation, kb: KnowledgeBase) -> GreedinessReport:
    """Check that each step's frontier image sits inside the nulls introduced
    by one earlier step, plus constants and initial nulls.

    The witness set for step j is the nulls of the atoms j actually added.
    For steps whose head image is disjoint from the prior instance (every
    application in practice) this is exactly the null set of the head image.

    The base is the KB's constants and the terms of ``d.initial``.  Every
    term of an instance along ``d`` is a term of ``d.initial``, a rule
    constant or a fresh null, so the database's other constants, which the
    base also holds, change no step's remainder.
    """
    base = kb.constants | d.initial.terms()
    step_nulls = [nulls_of(d.new_atoms(i)) for i in range(1, len(d) + 1)]

    witnesses: dict[int, int] = {}
    violations: list[tuple[int, frozenset[Term]]] = []
    for i, step in enumerate(d.steps, start=1):
        image = frozenset(step.trigger.hom[v] for v in step.rule.frontier)
        rest = image - base
        if not rest:
            witnesses[i] = 0
            continue
        for j in range(1, i):
            if rest <= step_nulls[j - 1]:
                witnesses[i] = j
                break
        else:
            violations.append((i, image))
    return GreedinessReport(not violations, witnesses, tuple(violations))


# ---------------------------------------------------------------------------
# Permutations and normalization
# ---------------------------------------------------------------------------

def permute_adjacent(d: Derivation, i: int) -> Derivation:
    """Swap steps i and i+1 (1-based); the final instance is unchanged.

    Permutability is checked at the trigger level: step i+1's body match
    must already hold in I_{i-1} (weaker than rule-level independence, and
    exactly what the swap needs), and step i+1's head image may not
    re-derive atoms step i introduced.  Under these two conditions each
    step adds the same atoms in either order, so the steps move unchanged.
    Without the second one, step i+1 would add the re-derived atoms once
    moved first and step i would add fewer, which can break greediness.
    """
    if not 1 <= i < len(d):
        raise ValueError(f"step index {i} out of range for length {len(d)}")
    step_a, step_b = d.steps[i - 1], d.steps[i]
    if not step_b.trigger.hom.apply(step_b.rule.body) <= d.instance_at(i - 1).atoms:
        raise NotPermutableError(
            f"step {i + 1} reads atoms produced by step {i}; cannot swap"
        )
    if step_b.trigger.extension.apply(step_b.rule.head) & step_a.new_atoms:
        raise NotPermutableError(
            f"step {i + 1} re-derives atoms produced by step {i}; cannot swap"
        )
    return Derivation(d.initial, d.steps[: i - 1] + (step_b, step_a) + d.steps[i + 1:])


def normalize_by_grd(d: Derivation, grd: RuleDependencyGraph) -> Derivation:
    """Bubble applications of shallower-layer rules toward the front.

    A stable pass: adjacent steps swap only when the right rule's dependency
    layer is strictly smaller and the trigger-level condition allows it;
    non-permutable pairs stay put.  Terminates because every swap removes a
    layer inversion.
    """
    layers = grd.layers()
    current = d
    changed = True
    while changed:
        changed = False
        for i in range(1, len(current)):
            left = layers[current.steps[i - 1].rule.rid]
            right = layers[current.steps[i].rule.rid]
            if right < left:
                try:
                    current = permute_adjacent(current, i)
                    changed = True
                except NotPermutableError:
                    pass
    return current


# ---------------------------------------------------------------------------
# Derivations grouped by final instance, and greedy re-derivation
# ---------------------------------------------------------------------------

def group_derivations(
    kb: KnowledgeBase, max_len: int
) -> dict[tuple, tuple[Instance, list[Derivation]]]:
    """Derivations up to max_len, one per trace (``dedup="traces"``), by the
    canonical key of their final instance: key -> (first final instance seen,
    members in enumeration order).  The pass reuses the form of each
    component a step left unchanged (``homs.canonical_key``)."""
    key = _pass_key()
    groups: dict[tuple, tuple[Instance, list[Derivation]]] = {}
    for d in enumerate_derivations(kb.database, kb.rules, max_len, dedup="traces"):
        groups.setdefault(key(d.final), (d.final, []))[1].append(d)
    return groups


def first_good(group: list[Derivation], check):
    """(d, check(d)) for the first d with a truthy check, in (length,
    enumeration) order, which iterative deepening also follows."""
    return next(((d, r) for d in sorted(group, key=len) if (r := check(d))), None)


def find_greedy_rederivation(
    kb: KnowledgeBase, target: Instance, max_len: int
) -> Derivation | None:
    """Shortest greedy derivation of ``target`` (up to null renaming), if any:
    the first in (length, enumeration) order of one enumeration to max_len,
    which keeps one derivation per trace (greediness is a trace invariant).
    With no early exit, ResourceLimitError comes whenever the enumeration, or
    the canonical key of a final instance as large as the target, trips its budget.
    Component forms are reused within the call, as in ``group_derivations``.
    """
    key = _pass_key()
    wanted = key(target)
    group = [d for d in enumerate_derivations(kb.database, kb.rules, max_len, dedup="traces")
             if len(d.final) == len(target) and key(d.final) == wanted]
    found = first_good(group, lambda d: is_greedy(d, kb).greedy)
    return found[0] if found else None
