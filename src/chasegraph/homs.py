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
    term_key,
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
            results.append(Substitution(binding))
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
    positions and co-argument colours or constants of its atoms.  A member v of a split cell is skipped when the
    map from the singleton cells after individualising a tried member onto
    those after individualising v is a colour-keeping automorphism.  Only
    sorted data is iterated, so the key is hash-seed independent.  Over
    ``MAX_CANON_NODES`` search nodes in all raises ResourceLimitError.
    """
    ground, components = _canonical_forms(inst)
    return tuple(ground), tuple(sorted(form for form, _ in components))


def isomorphic_mod_nulls(a: Instance, b: Instance) -> Substitution | None:
    """A bijective null renaming turning ``a`` into exactly ``b``, if any.

    Equal canonical keys pair each component of ``a`` with one of ``b`` of
    the same form; sending each null to the null of the partner with the
    same label in the form's leaf maps the component onto its partner.
    Labelling each instance runs under ``MAX_CANON_NODES`` search nodes.
    """
    (ground_a, comps_a), (ground_b, comps_b) = _canonical_forms(a), _canonical_forms(b)
    comps_a.sort(key=itemgetter(0))
    comps_b.sort(key=itemgetter(0))
    if ground_a != ground_b or [f for f, _ in comps_a] != [f for f, _ in comps_b]:
        return None
    renaming: dict[Term, Term] = {}
    for (_, label_a), (_, label_b) in zip(comps_a, comps_b):
        by_label = {c: m for m, c in label_b.items()}
        renaming.update((n, by_label[c]) for n, c in label_a.items())
    return Substitution(renaming)


def _canonical_forms(inst: Instance) -> tuple[list[tuple], list[tuple[tuple, dict[Null, int]]]]:
    """The sorted ground atom keys and, per null-connected component, its
    form with the discrete labelling of the nulls that yields it."""
    budget, nodes = MAX_CANON_NODES, 0
    ground, components = [], []
    for a in inst.sorted_atoms():
        ns = {t for t in a.args if isinstance(t, Null)}
        if not ns:
            ground.append(atom_key(a))
            continue
        hit = [c for c in components if c[0] & ns]
        components = [c for c in components if not c[0] & ns]
        components.append((ns.union(*(c[0] for c in hit)), [a] + [x for c in hit for x in c[1]]))

    def form(null_set: set[Null], comp: list[Atom]) -> tuple[tuple, dict[Null, int]]:
        nonlocal nodes
        nulls = sorted(null_set, key=term_key)
        occurrences = {n: [(i, a) for a in comp for i, t in enumerate(a.args) if t == n]
                       for n in nulls}

        def labelled(a: Atom, colour: dict[Null, int]) -> tuple:
            return (a.pred, len(a.args), tuple(
                (2, colour[t]) if isinstance(t, Null) else term_key(t) for t in a.args))

        def refine(colour: dict[Null, int]) -> dict[Null, int]:
            while True:
                sig = {n: (colour[n], tuple(sorted((i, labelled(a, colour))
                                                   for i, a in occurrences[n])))
                       for n in nulls}
                rank = {s: r for r, s in enumerate(sorted(set(sig.values())))}
                new = {n: rank[sig[n]] for n in nulls}
                if len(rank) == len(set(colour.values())):
                    return new
                colour = new

        def cells(colour: dict[Null, int]) -> dict[int, list[Null]]:
            out: dict[int, list[Null]] = {}
            for n in nulls:
                out.setdefault(colour[n], []).append(n)
            return out

        def symmetric(colour: dict[Null, int], u: Null, cu: dict, v: Null, cv: dict) -> bool:
            su, sv = ({c: ms[0] for c, ms in cells(x).items() if len(ms) == 1} for x in (cu, cv))
            perm = {su[c]: sv[c] for c in su if c in sv}
            back = {m: n for n, m in perm.items()}
            for n in [n for n in nulls if n not in perm]:  # close chains by walking back
                perm[n] = n
                while perm[n] in back:
                    perm[n] = back[perm[n]]
            return (perm[u] == v and all(colour[perm[n]] == colour[n] for n in nulls)
                    and all(Atom(a.pred, tuple(perm.get(t, t) for t in a.args)) in inst.atoms
                            for a in comp))

        best = None
        stack = [refine({n: 0 for n in nulls})]
        while stack:
            nodes += 1
            if nodes > budget:
                raise ResourceLimitError(
                    f"canonical form of an instance with {len(inst.nulls())} nulls exceeded "
                    f"the canonical-form budget MAX_CANON_NODES of {budget} search nodes",
                    budget="canonical-nodes", limit=budget)
            colour = stack.pop()
            split = min((ms for ms in cells(colour).values() if len(ms) > 1),
                        key=lambda ms: colour[ms[0]], default=None)
            if split is None:
                leaf = tuple(sorted(labelled(a, colour) for a in comp))
                if best is None or leaf < best[0]:
                    best = (leaf, colour)
                continue
            tried: list[tuple[Null, dict]] = []
            for v in split:
                cv = refine({n: 2 * c + (n != v) for n, c in colour.items()})
                if not any(symmetric(colour, u, cu, v, cv) for u, cu in tried):
                    tried.append((v, cv))
                    stack.append(cv)
        return best

    return ground, [form(*c) for c in components]
