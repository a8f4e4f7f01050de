"""Rule application, bounded saturation, and exhaustive derivation enumeration.

A trigger is a homomorphism from a rule body into the current instance.
Applying it extends the instance with the head image: the head template
(the head with the match applied and the existential variables left in
place) with each existential variable sent to a fresh null of the run
(DECISIONS.md section 12).  Derivations record the whole history (trigger,
extension and added atoms per step) so that greediness analysis and
derivation graphs can be computed after the fact; each intermediate
instance is the initial one plus the atoms of earlier steps.

The one-step operator applies *all* triggers of *all* rules in parallel
with pairwise-distinct fresh nulls; iterating it k times gives the k-level
saturation used for (sound, bounded) entailment checking.

Enumeration is semi-naive along the depth-first search: a node inherits its
parent's triggers, which stay valid as instances only grow, and adds those
matches that read an atom of its step's delta, found by a search seeded with
that atom and tried only against the body atoms of its shape.  Each trigger
is checked against the instance and its template built once, when the
search finds it, so applying an entry only fills the template (DECISIONS.md
section 8).  Merging by canonical key keeps the order of a full recompute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NotTriggeredError, ResourceLimitError
from .homs import _index_by_pred, _match_atom, _search, find_homomorphisms
from .model import (
    Atom,
    Instance,
    Null,
    Rule,
    Substitution,
    atom_key,
    nulls_of,
    term_key,
    terms_of,
)

DEFAULT_MAX_ATOMS = 10**5
DEFAULT_MAX_DERIVATIONS = 10**6


class Trigger(NamedTuple):
    """A rule body match plus its recorded head extension.

    ``hom`` maps exactly the body variables; ``extension`` additionally maps
    each existential head variable to the fresh null it received.
    """

    rule_id: str
    hom: Substitution
    extension: Substitution


class DerivationStep(NamedTuple):
    """One rule application and the atoms it added (its head image minus
    the instance it was applied to)."""

    rule: Rule
    trigger: Trigger
    new_atoms: frozenset[Atom]


@dataclass(frozen=True)
class Derivation:
    """A sequence I0, (rule_1, h_1, I1), ..., (rule_n, h_n, In), stored as I0
    and each step's added atoms: I_i is I0 plus the atoms of steps 1..i."""

    initial: Instance
    steps: tuple[DerivationStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    @cached_property
    def final(self) -> Instance:
        return self.instance_at(len(self.steps))

    def instance_at(self, i: int) -> Instance:
        """The instance after step i, 0 <= i <= len(self); I0 is the initial one."""
        if not 0 <= i <= len(self.steps):
            raise IndexError(f"no instance I{i} in a derivation of length {len(self.steps)}")
        if i == 0:
            return self.initial
        return Instance._of(self.initial.atoms.union(*(s.new_atoms for s in self.steps[:i])))

    def new_atoms(self, i: int) -> frozenset[Atom]:
        """Atoms introduced by step i, 1 <= i <= len(self)."""
        if not 1 <= i <= len(self.steps):
            raise IndexError(f"no step {i} in a derivation of length {len(self.steps)}")
        return self.steps[i - 1].new_atoms

    def extend(self, r: Rule, hom: Substitution) -> "Derivation":
        """One more step, a run of its own: body match ``hom`` is checked in
        O(|body|) against the final instance, whose nulls the new ones follow."""
        prev, hom = self.final, hom.restrict(r.body_vars)
        _check(prev.atoms, r, hom)
        step = _apply(prev.atoms, r, hom, _template(r, hom), _nulls_after(prev))
        return Derivation(self.initial, self.steps + (step,))

    def rule_ids(self) -> tuple[str, ...]:
        return tuple(s.rule.rid for s in self.steps)

    def validate(self) -> None:
        """Raise ValueError unless every step invariant holds."""
        prev, seen = self.initial, set(self.initial.terms())  # seen: the terms of prev
        for i, step in enumerate(self.steps, start=1):
            r = step.rule
            hom, ext = step.trigger.hom, step.trigger.extension
            if step.trigger.rule_id != r.rid:
                raise ValueError(f"step {i}: trigger names rule {step.trigger.rule_id}")
            if set(hom.mapping) != set(r.body_vars):
                raise ValueError(f"step {i}: trigger domain is not vars(body)")
            if not hom.apply(r.body) <= prev.atoms:
                raise ValueError(f"step {i}: trigger does not map the body into I{i-1}")
            if ext.restrict(r.body_vars) != hom:
                raise ValueError(f"step {i}: extension disagrees with trigger on body vars")
            if not ext.mapping.keys() >= r.existentials:
                raise ValueError(f"step {i}: extension does not map every existential variable")
            fresh = [ext[z] for z in r.sorted_existentials]
            if len(set(fresh)) != len(fresh) or not all(isinstance(n, Null) for n in fresh):
                raise ValueError(f"step {i}: existential images are not distinct nulls")
            if not seen.isdisjoint(fresh):
                raise ValueError(f"step {i}: fresh null already occurs earlier")
            if step.new_atoms != ext.apply(r.head) - prev.atoms:
                raise ValueError(f"step {i}: new atoms are not the head image minus I{i-1}")
            prev = Instance._of(prev.atoms | step.new_atoms)
            seen.update(terms_of(step.new_atoms))


def triggers(instance: Instance, r: Rule) -> list[Substitution]:
    """All homomorphisms from the rule body into the instance, in canonical order."""
    return find_homomorphisms(r.body, instance)


def apply_rule(instance: Instance, r: Rule, hom: Substitution) -> tuple[Instance, Trigger]:
    """One rule application: I plus the head image under the extended match.

    The extension sends each existential variable to a null past I's own;
    the returned trigger records it so the step can be replayed or audited.
    """
    d = Derivation(instance).extend(r, hom)
    return d.final, d.steps[0].trigger


def _check(atoms: frozenset[Atom], r: Rule, hom: Substitution) -> None:
    """Raise unless body match ``hom`` maps the body of r into ``atoms``; only a
    failed fill is redone by ``hom.apply``, to raise its UnboundVariableError."""
    if not _image(r.body, hom.mapping) <= atoms and not hom.apply(r.body) <= atoms:
        raise NotTriggeredError(f"{r.rid}: homomorphism {hom} is not a trigger")


def _image(atoms: Iterable[Atom], mapping: dict) -> frozenset[Atom]:
    """``atoms`` with each term that ``mapping`` binds replaced by its image;
    ``tuple.__new__`` builds them without ``Atom.__new__``'s Python frame."""
    image, new = mapping.get, tuple.__new__
    return frozenset([new(Atom, (p, tuple(map(image, args, args)))) for p, args in atoms])


def _template(r: Rule, hom: Substitution) -> frozenset[Atom]:
    """The head of r with body match ``hom`` applied, existentials left in place."""
    return _image(r.head, hom.mapping)


def _nulls_after(instance: Instance) -> Iterator[int]:
    """The null ordinals of a run from ``instance`` (DECISIONS.md section 12)."""
    return itertools.count(max((n.ordinal for n in instance.nulls()), default=0) + 1)


def _apply(atoms: frozenset[Atom], r: Rule, hom: Substitution,
           template: frozenset[Atom], nulls: Iterator[int]) -> DerivationStep:
    """The step applying a checked match to the instance ``atoms``: the next
    ordinals of ``nulls``, one per existential in sorted order, fill the
    template.  Nulls, trigger and step are built by ``tuple.__new__``, as in ``_image``."""
    ext, head, new = hom, template, tuple.__new__
    if r.sorted_existentials:
        fresh = {z: new(Null, (2, next(nulls))) for z in r.sorted_existentials}
        ext, head = Substitution._of(hom.mapping | fresh), _image(template, fresh)
    return new(DerivationStep, (r, new(Trigger, (r.rid, hom, ext)), head - atoms))


def one_step(instance: Instance, rules: Sequence[Rule]) -> Instance:
    """Parallel application of every trigger of every rule, as one run."""
    added: set[Atom] = set()
    nulls = _nulls_after(instance)
    for r in rules:
        for hom in triggers(instance, r):
            added |= _apply(instance.atoms, r, hom, _template(r, hom), nulls).new_atoms
    return instance | added


def chase_levels(
    db: Instance,
    rules: Sequence[Rule],
    k: int,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> list[Instance]:
    """The saturation chain [db, Ch1(db), ..., Chk(db)] of one run.

    Each level contains the previous, and its fresh nulls are numbered on
    from the highest null of the level before.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    levels = [db]
    for _ in range(k):
        levels.append(one_step(levels[-1], rules))
        if len(levels[-1]) > max_atoms:
            raise ResourceLimitError(f"saturation exceeded {max_atoms} atoms",
                                     budget="atoms", limit=max_atoms)
    return levels


def chase_k(
    db: Instance,
    rules: Sequence[Rule],
    k: int,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> Instance:
    """The k-level saturation: one_step iterated k times from db."""
    return chase_levels(db, rules, k, max_atoms)[-1]


def derivation_key(d: Derivation) -> tuple:
    """A canonical key equal for two derivations iff they differ only by a
    null renaming (the renaming is forced: step-aligned triggers determine
    where each null must go, and fresh nulls are allocated in sorted
    existential-variable order)."""
    dense: dict[Null, int] = {}

    def render(t) -> tuple:
        if isinstance(t, Null):
            if t not in dense:
                dense[t] = len(dense)
            return (2, dense[t])
        return term_key(t)

    for t in sorted(nulls_of(d.initial.atoms)):
        render(t)
    key = []
    for step in d.steps:
        bindings = tuple(
            (term_key(var), render(img)) for var, img in step.trigger.extension.items()
        )
        key.append((step.rule.rid, bindings))
    return tuple(key)


def _by_shape(r: Rule) -> dict[tuple, list[tuple]]:
    """(pred, arity) -> [(body atom, the rest of the body)], over r's body in atom_key order."""
    body, shapes = sorted(r.body, key=atom_key), {}
    for i, b in enumerate(body):
        shapes.setdefault((b.pred, len(b.args)), []).append((b, body[:i] + body[i + 1:]))
    return shapes


def _merge_triggers(old: list[tuple], r: Rule, shapes: dict, delta: frozenset[Atom],
                    index: dict, atoms: frozenset[Atom]) -> list[tuple]:
    """``old`` (key, hom, template) entries plus one per body match in the
    indexed instance ``atoms`` that maps some body atom onto a delta atom,
    sorted by key.  Each delta atom is matched only against the body atoms
    of its shape (``_by_shape``).  Each new match is checked against
    ``atoms`` and its template built here, once (DECISIONS.md section 8).
    With no new match ``old`` itself comes back: no list is ever mutated."""
    found: dict[tuple, Substitution] = {}
    for t in delta:
        for b, rest in shapes.get((t.pred, len(t.args)), ()):
            if (m := _match_atom(b, t, {})) is not None:
                found.update((h.key(), h) for h in _search(rest, index, m, None))
    if not found:
        return old
    for h in found.values():
        _check(atoms, r, h)
    return sorted(old + [(k, h, _template(r, h)) for k, h in found.items()], key=itemgetter(0))


def enumerate_derivations(
    db: Instance,
    rules: Sequence[Rule],
    max_len: int,
    dedup: str = "none",
    max_derivations: int = DEFAULT_MAX_DERIVATIONS,
) -> Iterator[Derivation]:
    """Yield every derivation from db of length <= max_len, depth-first.

    Order is deterministic: children are explored by rule-list order, then
    by trigger order.  ``dedup="mod-nulls"`` yields the same stream as "none":
    two derivations of one DFS first differ at a step whose bindings render
    differently under ``derivation_key``, so no two are null renamings.
    ``dedup="traces"`` yields only the DFS-first derivation of each trace
    (derivations equal up to swapping independent steps) by a search with
    sleep sets; DECISIONS.md section 5 gives the argument.  A frame's sleep
    dict maps each sleeping or explored trigger, as (rule index, match key),
    to the atoms it added; a child keeps the entries disjoint from its step's.
    Each trigger is checked once, when it is found; a bad match raises
    NotTriggeredError before any derivation applying it is yielded.  A
    derivation shorter than ``max_len`` is yielded with ``final`` set to its
    parent's atoms plus its step's, as ``instance_at(len(d))`` would build it.
    Redundant steps (head image already present) are legal derivation steps
    and are enumerated.  ``max_derivations`` bounds the derivations yielded.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if dedup not in ("none", "mod-nulls", "traces"):
        raise ValueError(f"unknown dedup mode {dedup!r}")
    shapes = [_by_shape(r) for r in rules]
    nulls = _nulls_after(db)

    def frame(d: Derivation, delta: frozenset[Atom], index: dict, lists: list,
              sleep: dict | None) -> tuple:
        index = _index_by_pred(delta, index)
        atoms = d.final.atoms
        lists = [_merge_triggers(old, r, by_shape, delta, index, atoms)
                 for r, by_shape, old in zip(rules, shapes, lists)]
        if sleep is None:
            moves = ((None, r, h, t) for r, ts in zip(rules, lists) for _, h, t in ts)
        else:
            moves = (((i, k), r, h, t) for i, (r, ts) in enumerate(zip(rules, lists))
                     for k, h, t in ts if (i, k) not in sleep)
        return d, index, lists, moves, sleep

    count, stack = 0, []
    node = (Derivation(db), db.atoms, {}, [[] for _ in rules], {} if dedup == "traces" else None)
    while node or stack:
        if node:
            count += 1
            if count > max_derivations:
                raise ResourceLimitError(f"more than {max_derivations} derivations",
                                         budget="derivations", limit=max_derivations)
            yield node[0]
            if len(node[0]) < max_len:
                stack.append(frame(*node))
            node = None
        elif (nxt := next(stack[-1][3], None)) is None:
            stack.pop()
        else:
            d, index, lists, _, sleep = stack[-1]
            ident, r, h, t = nxt
            atoms = d.final.atoms
            step = _apply(atoms, r, h, t, nulls)
            child, asleep = Derivation(d.initial, d.steps + (step,)), None
            if len(child) < max_len:  # a leaf child opens no frame
                object.__setattr__(child, "final", Instance._of(atoms | step.new_atoms))
                if sleep is not None:
                    asleep = {s: n for s, n in sleep.items() if n.isdisjoint(step.new_atoms)}
                    sleep[ident] = step.new_atoms
            node = (child, step.new_atoms, index, lists, asleep)
