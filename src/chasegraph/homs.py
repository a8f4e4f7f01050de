"""Backtracking homomorphism search between atom sets.

A homomorphism fixes every constant and maps the remaining terms of the
source (variables and nulls alike) onto terms of the target so that every
source atom lands on a target atom.  The search is plain backtracking with
two deterministic choices: the next atom to resolve is the one with the
fewest remaining candidate matches, and candidates are tried in term order.
Determinism matters because trigger enumeration order downstream fixes
derivation identifiers.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .errors import ResourceLimitError
from .model import (
    Atom,
    Constant,
    Instance,
    Null,
    Rule,
    Substitution,
    Term,
    atom_key,
)

MAX_CANON_NODES = 10_000  # search nodes per labelled instance, read at call time


def _index_by_pred(atoms: frozenset[Atom], base: dict | None = None) -> dict[tuple, tuple]:
    """(predicate, arity) -> atoms: ``base``'s entries, then ``atoms`` sorted."""
    grouped: dict[tuple[str, int], list[Atom]] = {}
    for a in sorted(atoms, key=atom_key):
        grouped.setdefault((a.pred, len(a.args)), []).append(a)
    index = dict(base or {})
    for k, new in grouped.items():
        index[k] = index.get(k, ()) + tuple(new)
    return index


def _match_atom(src: Atom, tgt: Atom, binding: dict[Term, Term]) -> dict[Term, Term] | None:
    """Extend ``binding`` so that src maps onto tgt, or return None."""
    new: dict[Term, Term] = {}
    for s, t in zip(src.args, tgt.args):
        if isinstance(s, Constant):
            if s != t:
                return None
            continue
        bound = binding.get(s) or new.get(s)
        if bound is None:
            new[s] = t
        elif bound != t:
            return None
    return new


def _search(atoms: list[Atom], index: dict, seed: dict[Term, Term],
            limit: int | None) -> list[Substitution]:
    """Extensions of ``seed`` mapping ``atoms`` into the indexed atoms, in search
    order (the first atom with fewest candidates next, candidates in index order)."""
    results: list[Substitution] = []

    def search(remaining: list[Atom], binding: dict[Term, Term]) -> bool:
        """Return True when the requested number of results has been found."""
        if not remaining:
            results.append(Substitution._of(dict(binding)))
            return limit is not None and len(results) >= limit
        pick_i, exts = 0, None
        for i, a in enumerate(remaining):
            cands = [e for t in index.get((a.pred, len(a.args)), ())
                     if (e := _match_atom(a, t, binding)) is not None]
            if exts is None or len(cands) < len(exts):
                pick_i, exts = i, cands
                if not cands:
                    break
        rest = remaining[:pick_i] + remaining[pick_i + 1:]
        for ext in exts:
            binding.update(ext)
            if search(rest, binding):
                return True
            for k in ext:
                del binding[k]
        return False

    search(atoms, dict(seed))
    return results


def find_homomorphisms(
    source: frozenset[Atom] | set[Atom],
    target: Instance,
    seed: Substitution | None = None,
    limit: int | None = None,
) -> list[Substitution]:
    """All extensions of ``seed`` mapping ``source`` into ``target``.

    Returns the empty list when no homomorphism exists.  Without ``limit``
    the list is complete and sorted canonically; with a limit it holds the
    first matches in (deterministic) search order, sorted.
    """
    atoms = sorted(frozenset(source), key=atom_key)
    results = _search(atoms, _index_by_pred(target.atoms), seed.mapping if seed else {}, limit)
    results.sort(key=Substitution.key)
    return results


def hom_exists(source, target: Instance, seed: Substitution | None = None) -> bool:
    return bool(find_homomorphisms(source, target, seed=seed, limit=1))


def satisfies_rule(instance: Instance, r: Rule) -> bool:
    """True iff every body match extends to a head match within the instance."""
    for h in find_homomorphisms(r.body, instance):
        head_seed = h.restrict(r.frontier)
        if not hom_exists(r.head, instance, seed=head_seed):
            return False
    return True


def hom_equivalent(a: Instance, b: Instance) -> bool:
    """True iff homomorphisms exist in both directions (nulls act as variables)."""
    return hom_exists(a.atoms, b) and hom_exists(b.atoms, a)


def canonical_key(inst: Instance) -> tuple:
    """A key equal for two instances iff a bijective null renaming maps one
    onto the other: (sorted ground atoms, sorted null-connected component forms).

    A component's form is its least labelled sorted atom tuple under
    individualisation and refinement (McKay and Piperno, "Practical graph
    isomorphism II", 2014); a null's colour is refined by the predicates,
    positions and co-argument colours or constants of its atoms.  A member
    v of a split cell is skipped when the map from the singleton cells after
    individualising a tried member onto those after individualising v is a
    colour-keeping automorphism.  Only sorted data is iterated, so the key
    is hash-seed independent.  Over ``MAX_CANON_NODES`` search nodes in all
    raises ResourceLimitError.  A form reads only its component's atoms, so
    a grouping pass in ``analysis`` carries the form of every component a
    step left unchanged and shares one form between components equal up to
    an order-preserving null renaming; a reused form is charged the search
    nodes it cost, so the budget trips exactly where it would if each form
    were recomputed (DECISIONS.md sections 4 and 13).
    """
    ground, components = _canonical_forms(inst, {})
    return tuple(ground), tuple(sorted(form for form, _, _ in components))


def isomorphic_mod_nulls(a: Instance, b: Instance) -> Substitution | None:
    """A bijective null renaming turning ``a`` into exactly ``b``, if any.

    Equal canonical keys pair each component of ``a`` with one of ``b`` of
    the same form; sending each null to the null of the partner with the
    same label in the form's leaf maps the component onto its partner.
    Labelling each instance runs under ``MAX_CANON_NODES`` search nodes.
    """
    (ground_a, comps_a), (ground_b, comps_b) = _canonical_forms(a, {}), _canonical_forms(b, {})
    comps_a.sort(key=itemgetter(0))
    comps_b.sort(key=itemgetter(0))
    if ground_a != ground_b or [c[0] for c in comps_a] != [c[0] for c in comps_b]:
        return None
    renaming: dict[Term, Term] = {}
    for (_, label_a, _), (_, label_b, _) in zip(comps_a, comps_b):
        by_label = {c: m for m, c in label_b.items()}
        renaming.update((n, by_label[c]) for n, c in label_a.items())
    return Substitution(renaming)


class _Component:
    """A null-connected component: its null ordinals, its atom keys and,
    once computed, its form, its labelling by null rank and its search nodes."""

    __slots__ = ("nulls", "atoms", "labelled")

    def __init__(self, nulls: frozenset[int], atoms: list[tuple]):
        self.nulls = nulls
        self.atoms = atoms
        self.labelled: tuple[tuple, tuple[int, ...], int] | None = None


def _components(keys: list[tuple]) -> tuple[list[tuple], list[_Component]]:
    """The ground atom keys of ``keys``, in their order, and the components
    of the rest; a component moves to the end when an atom joins it."""
    ground: list[tuple] = []
    comps: dict[int, tuple[set[int], list[tuple]]] = {}
    owner: dict[int, int] = {}  # null ordinal -> its component
    for i, k in enumerate(keys):
        ns = {v for c, v in k[2] if c == 2}
        if not ns:
            ground.append(k)
            continue
        atoms = [k]
        for c in {owner[n] for n in ns if n in owner}:
            more_nulls, more_atoms = comps.pop(c)
            ns |= more_nulls
            atoms += more_atoms
        comps[i] = (ns, atoms)
        owner.update(dict.fromkeys(ns, i))
    return ground, [_Component(frozenset(ns), atoms) for ns, atoms in comps.values()]


def _charge(comps, memo: dict) -> list[tuple[tuple, tuple[int, ...], int]]:
    """Each component's (form, labelling by null rank, search nodes), computing
    the forms not yet known under what is left of ``MAX_CANON_NODES``.  ``memo``
    maps a component's dense tuple (DECISIONS.md section 4) to that triple; a
    known form is charged its nodes again."""
    budget, nodes = MAX_CANON_NODES, 0
    out = []
    for comp in comps:
        got = comp.labelled
        if got is None:
            ordinals = sorted(comp.nulls)
            index = {o: i for i, o in enumerate(ordinals)}
            dense = tuple([(p, n, tuple([index[t[1]] if t[0] == 2 else t for t in args]))
                           for p, n, args in sorted(comp.atoms)])
            got = memo.get(dense) or _form(len(ordinals), dense, budget - nodes)
            if got is not None:
                memo[dense] = comp.labelled = got
        if got is None or got[2] > budget - nodes:
            raise ResourceLimitError(
                f"canonical form of an instance with {sum(len(c.nulls) for c in comps)} "
                f"nulls exceeded the canonical-form budget MAX_CANON_NODES of {budget} "
                "search nodes", budget="canonical-nodes", limit=budget)
        nodes += got[2]
        out.append(got)
    return out


def _canonical_forms(inst: Instance, memo: dict) -> tuple[list[tuple], list[tuple]]:
    """The sorted ground atom keys and, per null-connected component, its
    form, the discrete labelling of the nulls that yields it, and the search
    nodes the form cost (``_charge`` says how ``memo`` is used)."""
    ground, comps = _components(sorted(map(atom_key, inst.atoms)))
    return ground, [(form, {Null(o): c for o, c in zip(sorted(comp.nulls), colour)}, nodes)
                    for comp, (form, colour, nodes) in zip(comps, _charge(comps, memo))]


class _Split(NamedTuple):
    """An instance as its sorted ground atom keys and its components, which
    an instance with more atoms shares where the new atoms do not touch them."""

    ground: tuple[tuple, ...] = ()
    comps: tuple[_Component, ...] = ()

    def extended(self, atoms: frozenset[Atom]) -> "_Split":
        """The split of this instance plus ``atoms``: the components the new
        atoms touch are split again with them, the rest are kept."""
        keys = list(map(atom_key, atoms))
        ns = {v for k in keys for c, v in k[2] if c == 2}
        kept = tuple(c for c in self.comps if c.nulls.isdisjoint(ns))
        touched = [k for c in self.comps if not c.nulls.isdisjoint(ns) for k in c.atoms]
        ground, comps = _components(keys + touched)
        return _Split(tuple(sorted(self.ground + tuple(ground))) if ground else self.ground,
                      kept + tuple(comps))

    def key(self, memo: dict) -> tuple:
        """``canonical_key`` of the instance, forms shared through ``memo``."""
        return self.ground, tuple(sorted(form for form, _, _ in _charge(self.comps, memo)))


def _form(size: int, dense: tuple[tuple, ...],
          allowance: int) -> tuple[tuple, tuple[int, ...], int] | None:
    """The form, labelling by null rank and search-node count of the
    component with ``size`` nulls and dense atom tuple ``dense`` (the null of
    rank k held as the int k), or None past ``allowance`` nodes.  A
    colouring is a list, so each round labels every atom once."""
    members = frozenset(dense)
    slots = [[(i, x) for i, x in enumerate(args) if type(x) is int] for _, _, args in dense]
    everyone = range(size)

    def labels(colour: list[int]) -> list[tuple]:
        return [(p, n, tuple([(2, colour[x]) if type(x) is int else x for x in args]))
                for p, n, args in dense]

    def refine(colour: list[int]) -> list[int]:
        while len(set(colour)) < len(colour):
            occurrences: list[list] = [[] for _ in everyone]
            for positions, label in zip(slots, labels(colour)):
                for i, x in positions:
                    occurrences[x].append((i, label))
            sig = [(c, tuple(sorted(o))) for c, o in zip(colour, occurrences)]
            rank = {s: r for r, s in enumerate(sorted(set(sig)))}
            new = [rank[s] for s in sig]
            if len(rank) == len(set(colour)):
                return new
            colour = new
        # discrete: a round would only renumber the colours in their order
        rank = {c: r for r, c in enumerate(sorted(colour))}
        return [rank[c] for c in colour]

    def cells(colour: list[int]) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for n, c in enumerate(colour):
            out.setdefault(c, []).append(n)
        return out

    def symmetric(colour: list[int], u: int, cu: list[int], v: int, cv: list[int]) -> bool:
        su, sv = ({c: ms[0] for c, ms in cells(x).items() if len(ms) == 1} for x in (cu, cv))
        perm = {su[c]: sv[c] for c in su if c in sv}
        back = {m: n for n, m in perm.items()}
        for n in [n for n in everyone if n not in perm]:  # close chains by walking back
            perm[n] = n
            while perm[n] in back:
                perm[n] = back[perm[n]]
        # perm maps the component's nulls onto themselves, so a permuted atom
        # is in the instance iff it is in the component (DECISIONS.md section 4)
        return (perm[u] == v and all(colour[perm[n]] == colour[n] for n in everyone)
                and all((p, n, tuple([perm[x] if type(x) is int else x for x in args]))
                        in members for p, n, args in dense))

    nodes, best = 0, None
    stack = [refine([0] * size)]
    while stack:
        nodes += 1
        if nodes > allowance:
            return None
        colour = stack.pop()
        split = min((ms for ms in cells(colour).values() if len(ms) > 1),
                    key=lambda ms: colour[ms[0]], default=None)
        if split is None:
            leaf = tuple(sorted(labels(colour)))
            if best is None or leaf < best[0]:
                best = (leaf, colour)
            continue
        tried: list[tuple[int, list[int]]] = []
        for v in split:
            cv = refine([2 * c + (n != v) for n, c in enumerate(colour)])
            if not any(symmetric(colour, u, cu, v, cv) for u, cu in tried):
                tried.append((v, cv))
                stack.append(cv)
    leaf, colour = best
    return leaf, tuple(colour), nodes
