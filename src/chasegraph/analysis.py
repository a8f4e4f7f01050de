"""Rule dependence, greediness checking, and derivation transformations.

Dependence ("applying rule r1 can newly enable rule r2") is decided by
piece-unification: part of body(r2) unifies with head(r1) so that r1's
existential variables stay fresh nulls and some unified atom is new.  One
unification per choice of atoms decides it, with no instance or
homomorphism search; ``DECISIONS.md`` section 11 proves it sound and
complete.

Greediness of a derivation demands that each step's frontier image live
inside the constants of the knowledge base, the nulls of the initial
instance, and the nulls introduced by a *single* earlier step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .chase import Derivation, DerivationStep, enumerate_derivations
from .derivgraph import _arcs_into, reachable
from .errors import NotPermutableError
from .homs import _Split
from .model import (
    Atom,
    Constant,
    Instance,
    KnowledgeBase,
    Rule,
    Term,
    Variable,
    terms_of,
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


def _tagged(atoms, side: int) -> list[tuple]:
    """Atoms as (pred, args), each variable v tagged (side, v) so that two
    rules' variables stay apart whatever their names."""
    return [(a.pred, tuple((side, t) if isinstance(t, Variable) else t for t in a.args))
            for a in atoms]


def _root(parent: dict, t):
    while t in parent:
        t = parent[t]
    return t


def _unifier(pairs) -> dict | None:
    """The most general unifier of the term pairs, as a union-find parent
    map in which a constant stays the root of its class; None when it would
    identify two distinct constants."""
    parent: dict = {}
    for s, t in pairs:
        s, t = _root(parent, s), _root(parent, t)
        if s != t:
            if isinstance(s, Constant):
                if isinstance(t, Constant):
                    return None
                s, t = t, s
            parent[s] = t
    return parent


def _unified(parent: dict, atoms) -> set[tuple]:
    return {(pred, tuple(_root(parent, t) for t in args)) for pred, args in atoms}


def depends_on(r2: Rule, r1: Rule) -> bool:
    """True iff applying r1 to some instance can newly trigger r2.

    Formally: there is an instance I, a trigger h of r1 in I, and a
    homomorphism h2 mapping body(r2) into the result of applying (r1, h)
    such that h2 does not already map body(r2) into I itself.

    Decided by piece-unification (``DECISIONS.md`` section 11): some
    nonempty part ``new`` of body(r2) unifies with head(r1) so that each
    existential of r1 keeps a class of its own, apart from constants, the
    body of r1 and the rest of body(r2), and some unified atom of ``new``
    is not among the unified atoms of body(r1) and that rest.
    """
    if not {a.pred for a in r1.head} & {a.pred for a in r2.body}:
        return False  # a new trigger must read at least one new atom
    head, body1, body2 = _tagged(r1.head, 1), _tagged(r1.body, 1), _tagged(r2.body, 2)
    existentials = [(1, z) for z in r1.existentials]
    for n in range(1, len(body2) + 1):
        for new in itertools.combinations(body2, n):
            rest = body1 + [a for a in body2 if a not in new]
            others = {t for a in rest for t in a[1] if not isinstance(t, Constant)}
            choices = [[h for h in head if (h[0], len(h[1])) == (a[0], len(a[1]))] for a in new]
            for image in itertools.product(*choices):
                parent = _unifier(zip([t for a in new for t in a[1]],
                                      [t for h in image for t in h[1]]))
                if parent is None:
                    continue
                roots = {_root(parent, z) for z in existentials}
                if (len(roots) < len(existentials) or any(isinstance(r, Constant) for r in roots)
                        or roots & {_root(parent, t) for t in others}):
                    continue
                if _unified(parent, new) - _unified(parent, rest):
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

    The witness set for step j is the nulls of the atoms j actually added,
    read from the terms of those atoms: what a witness must cover holds
    fresh nulls only.  For steps whose head image is disjoint from the
    prior instance (every application in practice) this is exactly the
    null set of the head image.

    The base is the KB's constants and the terms of ``d.initial``.  Every
    term of an instance along ``d`` is a term of ``d.initial``, a rule
    constant or a fresh null, so the database's other constants, which the
    base also holds, change no step's remainder.
    """
    base = kb.constants | d.initial.terms()
    terms = [terms_of(d.initial.atoms)]  # the terms of each node so far

    witnesses: dict[int, int] = {}
    violations: list[tuple[int, frozenset[Term]]] = []
    for i, step in enumerate(d.steps, start=1):
        w = _witness(step, base, terms)
        if w is None:
            violations.append((i, _frontier_image(step)))
        else:
            witnesses[i] = w
        terms.append(terms_of(step.new_atoms))
    return GreedinessReport(not violations, witnesses, tuple(violations))


def _frontier_image(step: DerivationStep) -> frozenset[Term]:
    return frozenset(map(step.trigger.hom.mapping.__getitem__, step.rule.frontier))


def _witness(step: DerivationStep, base: frozenset[Term],
             terms: Sequence[frozenset[Term]]) -> int | None:
    """``is_greedy``'s test of one step: 0 when ``base`` covers its frontier
    image, else the first earlier step j whose node terms (``terms[j]``)
    cover the rest; None when no step does.  The rest holds fresh nulls
    only, and node 0's terms lie inside ``base``, so node 0 never covers
    it (DECISIONS.md section 13)."""
    rest = _frontier_image(step) - base
    if not rest:
        return 0
    for j, ts in enumerate(terms):
        if rest <= ts:
            return j
    return None


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
# One walk of a derivation stream: class bits and keys from the parent
# ---------------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class _Node:
    """A derivation in a walk, built from its parent's node (DECISIONS.md
    section 13): its greedy and reducible bits; what its children's tests
    read, which is the node that added each atom and each node's terms
    (constants left out: no label holds one); and, on first use, the split
    of its final instance."""

    greedy: bool
    reducible: bool
    owner: dict[Atom, int]
    terms: tuple[frozenset[Term], ...]
    parent: "_Node | None"
    added: frozenset[Atom]  # the atoms of the last step, or the initial ones
    split: _Split | None = None

    @classmethod
    def root(cls, atoms: frozenset[Atom]) -> "_Node":
        return cls(True, True, dict.fromkeys(atoms, 0), (terms_of(atoms),), None, atoms)

    def child(self, step: DerivationStep, constants: frozenset[Constant],
              base: frozenset[Term]) -> "_Node":
        """The node of this derivation extended by ``step``: greedy iff this
        one is and the step passes ``is_greedy``'s test; reducible iff this
        one is and the new node, if a convergence point, has an earlier node
        whose terms cover the labels into it (DECISIONS.md section 7)."""
        new = step.new_atoms
        greedy = self.greedy and _witness(step, base, self.terms) is not None
        reducible = self.reducible
        if reducible and len(step.rule.sorted_frontier_atoms) > 1:  # else one parent at most
            into = _arcs_into(step, self.owner, constants)
            if len(into) > 1:
                union = frozenset().union(*into.values())
                reducible = any(union <= ts for ts in self.terms)
        return _Node(greedy, reducible, {**self.owner, **dict.fromkeys(new, len(self.terms))},
                     self.terms + (terms_of(new),), self, new)

    def key(self, memo: dict) -> tuple:
        """``canonical_key`` of the final instance, forms shared through ``memo``."""
        return self._split_of().key(memo)

    def _split_of(self) -> _Split:
        if self.split is None:
            self.split = (self.parent._split_of() if self.parent else _Split()).extended(self.added)
        return self.split


def _walk(kb: KnowledgeBase, stream: Iterable[Derivation]) -> Iterator[tuple[Derivation, _Node]]:
    """Each derivation of a depth-first stream from the KB's database, with
    its node.  One node is kept per depth: the parent of d is the last
    derivation of length len(d) - 1 before it (DECISIONS.md section 13)."""
    base = kb.constants | kb.database.terms()
    path: list[_Node] = []
    for d in stream:
        del path[len(d):]
        path.append(path[-1].child(d.steps[-1], kb.constants, base) if path
                    else _Node.root(d.initial.atoms))
        yield d, path[-1]


def _grouped(kb: KnowledgeBase, stream: Iterable[Derivation]
             ) -> dict[tuple, tuple[Instance, list[tuple[Derivation, bool, bool]]]]:
    """The walk's derivations by the canonical key of their final instance:
    key -> (first final instance seen, (derivation, greedy, reducible) per
    member in stream order)."""
    memo: dict = {}
    groups: dict[tuple, tuple[Instance, list]] = {}
    for d, node in _walk(kb, stream):
        key = node.key(memo)
        group = groups.get(key)
        if group is None:
            group = groups[key] = (d.final, [])
        group[1].append((d, node.greedy, node.reducible))
    return groups


# ---------------------------------------------------------------------------
# Derivations grouped by final instance, and greedy re-derivation
# ---------------------------------------------------------------------------

def group_derivations(
    kb: KnowledgeBase, max_len: int
) -> dict[tuple, tuple[Instance, list[Derivation]]]:
    """Derivations up to max_len, one per trace (``dedup="traces"``), by the
    canonical key of their final instance: key -> (first final instance seen,
    members in enumeration order).  Each key is carried from the parent's
    final, reusing the form of each component the step left unchanged
    (DECISIONS.md section 13)."""
    stream = enumerate_derivations(kb.database, kb.rules, max_len, dedup="traces")
    return {key: (target, [m[0] for m in members])
            for key, (target, members) in _grouped(kb, stream).items()}


def find_greedy_rederivation(
    kb: KnowledgeBase, target: Instance, max_len: int
) -> Derivation | None:
    """Shortest greedy derivation of ``target`` (up to null renaming), if any:
    the first in (length, enumeration) order of one enumeration to max_len,
    which keeps one derivation per trace (greediness is a trace invariant).
    With no early exit, ResourceLimitError comes whenever the enumeration, or
    the canonical key of a final instance as large as the target, trips its
    budget.  Keys and greediness are carried from each derivation's parent,
    as in ``group_derivations``.
    """
    memo: dict = {}
    wanted = _Split().extended(target.atoms).key(memo)
    found = None
    for d, node in _walk(kb, enumerate_derivations(kb.database, kb.rules, max_len,
                                                   dedup="traces")):
        if (len(d.final) == len(target) and node.key(memo) == wanted and node.greedy
                and (found is None or len(d) < len(found))):
            found = d
    return found
