"""Brute-force oracles, deliberately independent of the engine's search paths.

The homomorphism oracle enumerates every assignment of the source's
non-constant terms; the dependence oracle enumerates every instance over
the two rules' body predicates on a small constant universe (up to
renaming of the fresh constants) and checks the new-trigger condition on
each.  Both are only usable at desk scale.  The frozen-candidate oracle is
the earlier ``depends_on``: it checks the instances built from frozen
copies of body(r1) and of a proper subset of body(r2), under every
partition of their variables and every injective identification of
blocks with rule constants; its cost is exponential in those variables.

The isomorphism oracle is the earlier ``isomorphic_mod_nulls``: plain
backtracking over the nulls of one instance in ordinal order, pruning when
an atom whose nulls are all bound has no image in the other instance.
The canonical-form oracle is the earlier ``homs._canonical_forms``: it
labels each atom once per null occurrence in every refinement round and
shares no form between instances.

The weak-class oracle is the classifier's earlier engine for wgbts and
wcdgs: instances are bucketed by a cheap shape key and grouped by pairwise
``isomorphic_oracle``, and each group's good derivation is searched by
iterative deepening, one fresh enumeration per length.

The layer oracle is the earlier ``RuleDependencyGraph.layers``: it finds
each dependence cycle by a forward and a backward reachability search and
takes a component's layer by memoised recursion over its parents.

The greediness oracle is the earlier ``is_greedy``: it rebuilds its base
from the constants of the initial instance and of every rule, and the
initial instance's nulls, on every call.

The enumeration oracle is the chase's earlier derivation enumerator: at each
node it recomputes every rule's triggers over the whole instance, applies
each through the public ``Derivation.extend``, and recurses; its
``"mod-nulls"`` mode keeps the set of derivation keys it has seen.

The graph oracles are the reduction engine's and the graph checks' earlier
code: they read only a graph's decorations, constants, provenance and arcs,
recompute every node's term set, parents and frontier on each call, key
search states by a sorted tuple, and search full reductions recursively;
the checks search once per null, per term or per prefix.  The tree
oracle also rejects an edge or a root that names no bag, and a self-loop,
which the earlier check let through.  The side-condition oracle is the earlier per-operation validation that
``apply_ar``, ``apply_tr`` and ``apply_cr`` ran before the move generator
became the only definition of when a step applies.
"""

from __future__ import annotations

import itertools

from chasegraph.analysis import (
    GreedinessReport,
    RuleDependencyGraph,
    is_greedy,
)
from chasegraph.chase import (
    Derivation,
    apply_rule,
    derivation_key,
    enumerate_derivations,
    triggers,
)
from chasegraph.classify import (
    HOLDS,
    REFUTED,
    UNKNOWN,
    ClassificationVerdict,
    GroupWitness,
    Refutation,
)
from chasegraph.derivgraph import (
    DecompositionReport,
    DerivationGraph,
    build_derivation_graph,
    reachable,
)
from chasegraph import homs
from chasegraph.errors import ResourceLimitError
from chasegraph.model import (
    Atom,
    Constant,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Substitution,
    Term,
    Variable,
    atom_key,
    atom_set_str,
    constants_of,
    nulls_of,
    term_key,
    term_set_str,
    terms_of,
    variables_of,
)
from chasegraph.reduction import (
    ArStep,
    CrStep,
    PrefixInvariantReport,
    ReductionTrace,
    TrStep,
    reduce_graph,
)
from chasegraph.treedecomp import TreeDecomposition


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


def frozen_candidate_depends_on(r2: Rule, r1: Rule) -> bool:
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
        for h2 in homs.find_homomorphisms(r2.body, chased):
            if not h2.apply(r2.body) <= instance.atoms:
                return True
    return False


def brute_force_depends_on(r2: Rule, r1: Rule, max_fresh: int = 3) -> bool:
    """Exhaustive search for an instance where applying r1 newly triggers r2.

    Instances range over the predicates of the two bodies, with at most
    |body(r1)| + |body(r2)| atoms over min(max_fresh, total body variables)
    fresh constants plus the rules' own constants.  Instances differing only
    by a permutation of the fresh constants are checked once.
    """
    if not {a.pred for a in r1.head} & {a.pred for a in r2.body}:
        return False  # no new atom can feed a body match, on any instance
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


def layers_oracle(grd: RuleDependencyGraph) -> dict[str, int]:
    """Topological depth over the condensation of the dependence graph."""
    succ = {v: set() for v in grd.vertices}
    pred = {v: set() for v in grd.vertices}
    for a, b in grd.edges:
        succ[a].add(b)
        pred[b].add(a)
    sccs: list[set[str]] = []
    assigned: set[str] = set()
    for v in grd.vertices:
        if v in assigned:
            continue
        comp = (reachable(succ, v) & reachable(pred, v)) | {v}
        comp -= assigned
        sccs.append(comp)
        assigned |= comp
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    layer_of_comp: dict[int, int] = {}

    def comp_layer(ci: int) -> int:
        if ci in layer_of_comp:
            return layer_of_comp[ci]
        parents = {
            comp_of[a]
            for a, b in grd.edges
            if comp_of[b] == ci and comp_of[a] != ci
        }
        layer_of_comp[ci] = 0 if not parents else 1 + max(comp_layer(p) for p in parents)
        return layer_of_comp[ci]

    return {v: comp_layer(comp_of[v]) for v in grd.vertices}


def is_greedy_oracle(d: Derivation, kb: KnowledgeBase) -> GreedinessReport:
    base: set[Term] = set(constants_of(d.initial.atoms))
    for r in kb.rules:
        base |= r.constants()
    base |= nulls_of(d.initial.atoms)
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


def enumerate_oracle(db: Instance, rules, max_len: int, dedup: str = "none",
                     max_derivations: int = 10**6):
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
                if dedup == "mod-nulls":
                    key = derivation_key(child)
                    if key in seen:
                        continue
                    seen.add(key)
                yield from walk(child)

    yield from walk(Derivation(db))


def isomorphic_oracle(a: Instance, b: Instance) -> Substitution | None:
    """A bijective null renaming turning ``a`` into exactly ``b``, if any."""
    if len(a) != len(b):
        return None
    a_nulls = sorted(nulls_of(a.atoms), key=lambda n: n.ordinal)
    b_nulls = nulls_of(b.atoms)
    if len(a_nulls) != len(b_nulls):
        return None
    ground_a = frozenset(x for x in a if not nulls_of([x]))
    ground_b = frozenset(x for x in b if not nulls_of([x]))
    if ground_a != ground_b:
        return None

    b_atoms = b.atoms

    def solve(i: int, binding: dict[Term, Term], used: set[Null]) -> dict[Term, Term] | None:
        if i == len(a_nulls):
            image = {Substitution(binding).apply_atom(x) for x in a}
            return binding if image == b_atoms else None
        n = a_nulls[i]
        for m in sorted(b_nulls - used, key=lambda x: x.ordinal):
            binding[n] = m
            used.add(m)
            # prune: every atom fully renamed so far must exist in b
            ok = True
            sub = Substitution(binding)
            for x in a:
                xs = nulls_of([x])
                if xs and xs <= set(binding):
                    if sub.apply_atom(x) not in b_atoms:
                        ok = False
                        break
            if ok:
                found = solve(i + 1, binding, used)
                if found is not None:
                    return found
            del binding[n]
            used.discard(m)
        return None

    found = solve(0, {}, set())
    return Substitution(found) if found is not None else None


def canonical_forms_oracle(inst: Instance) -> tuple[list[tuple], list[tuple]]:
    """``homs._canonical_forms`` without a memo, as it was before components
    were indexed densely: the sorted ground atom keys and, per component,
    (form, labelling, search nodes).  A round computes each atom's label once
    per null occurrence, and the automorphism test looks permuted atoms up
    in the whole instance."""
    budget, nodes = homs.MAX_CANON_NODES, 0
    ground, components = [], []
    for a in inst.sorted_atoms():
        ns = {t for t in a.args if isinstance(t, Null)}
        if not ns:
            ground.append(atom_key(a))
            continue
        hit = [c for c in components if c[0] & ns]
        components = [c for c in components if not c[0] & ns]
        components.append((ns.union(*(c[0] for c in hit)), [a] + [x for c in hit for x in c[1]]))

    def form(null_set: set[Null], comp: list[Atom]) -> tuple[tuple, dict[Null, int], int]:
        nonlocal nodes
        start = nodes
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
        return best + (nodes - start,)

    return ground, [form(*c) for c in components]


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
            if isomorphic_oracle(inst, g[0]) is not None:
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
            if isomorphic_oracle(cand.final, target) is None:
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
) -> ClassificationVerdict:
    """The wgbts/wcdgs verdict, computed the slow way: each instance's good
    derivation is searched up to the full depth."""
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
            found = _find_rederivation(kb, target, depth, dedup, check)
            if found is None:
                cert = Refutation(shortest, reason, target=target)
                return ClassificationVerdict(cls, depth, REFUTED, cert)
            w, result = found
            trace = result if cls == "wcdgs" else None
            witnesses.append(GroupWitness(target, shortest_len, w, trace))
        return ClassificationVerdict(cls, depth, HOLDS, tuple(witnesses))
    except ResourceLimitError as exc:
        return ClassificationVerdict(cls, depth, UNKNOWN, detail=str(exc))


def node_terms_oracle(g, i: int) -> frozenset:
    return terms_of(g.at[i]) | g.constants


def nonconstant_terms_oracle(g, i: int) -> frozenset:
    return terms_of(g.at[i]) - g.constants


def parents_oracle(g, k: int) -> list[int]:
    return sorted(i for (i, j) in g.arcs if j == k)


def in_degree_oracle(g, k: int) -> int:
    return sum(1 for (_, j) in g.arcs if j == k)


def state_key_oracle(g) -> tuple:
    return tuple(
        (i, j, tuple(sorted(map(term_key, lbl))))
        for (i, j), lbl in sorted(g.arcs.items())
    )


def node_frontier_oracle(g, node: int) -> frozenset:
    if in_degree_oracle(g, node) == 0:
        return frozenset()
    r, trig = g.provenance[node]
    return frozenset(trig.extension[v] for v in r.frontier) - g.constants


def is_cycle_free_oracle(g) -> bool:
    indegree: dict[int, int] = {}
    for (_, j) in g.arcs:
        indegree[j] = indegree.get(j, 0) + 1
        if indegree[j] > 1:
            return False
    return True


def side_condition_oracle(g, step) -> bool:
    """Whether the earlier ``apply_ar``, ``apply_tr`` and ``apply_cr`` checks
    accept the step; a cycle removal must also name its converging pair in
    increasing order, the order ``apply_cr`` puts it in."""
    arcs = g.arcs
    if isinstance(step, ArStep):
        return (step.i, step.j) in arcs and not arcs[(step.i, step.j)]
    pair = ((step.i, step.k), (step.j, step.k))
    if step.i == step.j or not all(arc in arcs for arc in pair):
        return False
    if isinstance(step, TrStep):
        return all(step.t in arcs[arc] for arc in pair)
    return (step.i < step.j and 0 <= step.l < step.k
            and arcs[pair[0]] | arcs[pair[1]] <= node_terms_oracle(g, step.l))


def apply_step_oracle(g, step):
    """The step's arc rewrite, without re-checking side conditions."""
    arcs = dict(g.arcs)
    if isinstance(step, ArStep):
        del arcs[(step.i, step.j)]
    elif isinstance(step, TrStep):
        arcs[(step.j, step.k)] = arcs[(step.j, step.k)] - {step.t}
    else:
        union = arcs.pop((step.i, step.k)) | arcs.pop((step.j, step.k))
        arcs[(step.l, step.k)] = arcs.get((step.l, step.k), frozenset()) | union
    return DerivationGraph(g.facts, arcs)


def moves_oracle(g):
    for (i, j), lbl in sorted(g.arcs.items()):
        if not lbl:
            yield ArStep(i, j)
    for k in g.nodes:
        parents = parents_oracle(g, k)
        if len(parents) < 2:
            continue
        for i in parents:
            for j in parents:
                if i == j:
                    continue
                shared = g.arcs[(i, k)] & g.arcs[(j, k)]
                for t in sorted(shared, key=term_key):
                    yield TrStep(i, j, k, t)
        for i, j in itertools.combinations(parents, 2):
            union = g.arcs[(i, k)] | g.arcs[(j, k)]
            for l in range(k):
                if union <= node_terms_oracle(g, l):
                    yield CrStep(i, j, k, l)


def reduce_cr_only_oracle(g):
    steps = []
    graphs = [g]
    while True:
        points = sorted(k for k in g.nodes if in_degree_oracle(g, k) >= 2)
        if not points:
            break
        k = points[0]
        parents = parents_oracle(g, k)
        chosen = None
        for l in range(k):
            for i, j in itertools.combinations(parents, 2):
                if g.arcs[(i, k)] | g.arcs[(j, k)] <= node_terms_oracle(g, l):
                    chosen = CrStep(i, j, k, l)
                    break
            if chosen:
                break
        if chosen is None:
            return None
        g = apply_step_oracle(g, chosen)
        steps.append(chosen)
        graphs.append(g)
    return ReductionTrace._of(tuple(steps), tuple(graphs))


def reduce_full_oracle(g, max_states: int = 10**5):
    """(trace or None, number of states visited), by recursive search;
    raises ResourceLimitError at the first state beyond ``max_states``."""
    seen: set[tuple] = set()

    def dfs(cur, steps, graphs):
        if is_cycle_free_oracle(cur):
            return ReductionTrace._of(tuple(steps), tuple(graphs))
        key = state_key_oracle(cur)
        if key in seen:
            return None
        seen.add(key)
        if len(seen) > max_states:
            raise ResourceLimitError(f"reduction search exceeded {max_states} states")
        for step in moves_oracle(cur):
            nxt = apply_step_oracle(cur, step)
            steps.append(step)
            graphs.append(nxt)
            found = dfs(nxt, steps, graphs)
            if found is not None:
                return found
            steps.pop()
            graphs.pop()
        return None

    return dfs(g, [], [g]), len(seen)


def check_prefix_invariants_oracle(trace) -> PrefixInvariantReport:
    failures = []
    fr_ok = wit_ok = True
    check_witness = is_cycle_free_oracle(trace.final)
    for p, g in enumerate(trace.graphs):
        for n in g.nodes:
            parents = parents_oracle(g, n)
            if not parents:
                continue
            incoming = frozenset().union(*(g.arcs[(i, n)] for i in parents))
            if node_frontier_oracle(g, n) != incoming:
                fr_ok = False
                failures.append(f"prefix {p}: frontier of X{n} != union of incoming labels")
        if check_witness:
            for n in g.nodes:
                if in_degree_oracle(g, n) == 0:
                    continue
                fr = node_frontier_oracle(g, n)
                if not any(fr <= node_terms_oracle(g, m) for m in range(n)):
                    wit_ok = False
                    failures.append(f"prefix {p}: no earlier node covers the frontier of X{n}")
    return PrefixInvariantReport(fr_ok, wit_ok, tuple(failures))


def check_decomposition_properties_oracle(g, final: Instance, kb: KnowledgeBase):
    failures = []
    covered = frozenset.union(*(node_terms_oracle(g, i) for i in g.nodes))
    want = final.terms() | g.constants
    term_cover = covered == want
    if not term_cover:
        failures.append(f"term cover: {term_set_str(covered ^ want)} mismatched")

    decorated = frozenset.union(*(frozenset(g.at[i]) for i in g.nodes))
    atom_cover = final.atoms <= decorated
    if not atom_cover:
        failures.append(f"atom cover: missing {atom_set_str(final.atoms - decorated)}")

    connected = True
    undirected = {i: set() for i in g.nodes}
    for (i, j) in g.arcs:
        undirected[i].add(j)
        undirected[j].add(i)
    for x in sorted(final.nulls(), key=term_key):
        members = {i for i in g.nodes if x in nonconstant_terms_oracle(g, i)}
        if not members:
            continue
        start = min(members)
        seen = {start}
        stack = [start]
        while stack:
            for nxt in undirected[stack.pop()]:
                if nxt in members and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != members:
            connected = False
            failures.append(f"occurrence subgraph for {x} is disconnected")

    consts = set(kb.database.constants())
    for r in kb.rules:
        consts |= r.constants()
    head_sizes = [len({t for a in r.head for t in a.args}) for r in kb.rules]
    bound = max([len(kb.database.terms())] + head_sizes) + len(consts)
    oversized = [i for i in g.nodes if len(node_terms_oracle(g, i)) > bound]
    bounded = not oversized
    if oversized:
        failures.append(f"nodes {oversized} exceed the term bound {bound}")
    return DecompositionReport(term_cover, atom_cover, connected, bounded, bound, tuple(failures))


def check_generative_paths_oracle(g) -> list[str]:
    violations = []
    all_nulls = frozenset.union(
        frozenset(), *(nonconstant_terms_oracle(g, i) for i in g.nodes)
    )
    for x in sorted((t for t in all_nulls if isinstance(t, Null)), key=term_key):
        members = [i for i in g.nodes if x in nonconstant_terms_oracle(g, i)]
        gen = members[0]
        for k in members:
            allowed = {m for m in members if m <= k}
            seen = {gen}
            stack = [gen]
            while stack:
                cur = stack.pop()
                for (i, j) in g.arcs:
                    if i == cur and j in allowed and j not in seen:
                        seen.add(j)
                        stack.append(j)
            if k not in seen:
                violations.append(f"no admissible directed path from X{gen} to X{k} for {x}")
    return violations


def extract_tree_decomposition_oracle(g) -> TreeDecomposition:
    bags = tuple(node_terms_oracle(g, i) for i in g.nodes)
    edges = {(min(i, j), max(i, j)) for (i, j) in g.arcs}
    component: dict[int, int] = {}
    for i in g.nodes:
        if i in component:
            continue
        stack = [i]
        component[i] = i
        while stack:
            cur = stack.pop()
            for (a, b) in g.arcs:
                for nxt in ((b,) if a == cur else (a,) if b == cur else ()):
                    if nxt not in component:
                        component[nxt] = i
                        stack.append(nxt)
    roots = sorted({component[i] for i in g.nodes})
    for a, b in zip(roots, roots[1:]):
        edges.add((a, b))
    return TreeDecomposition(bags, frozenset(edges), roots[0])


def _td_neighbors_oracle(td, i: int) -> list[int]:
    out = [b for (a, b) in td.edges if a == i]
    out += [a for (a, b) in td.edges if b == i]
    return sorted(out)


def validate_tree_decomposition_oracle(td, instance: Instance) -> bool:
    n = len(td.bags)
    if td.root not in range(n) or len(td.edges) != n - 1:
        return False
    if any(a not in range(n) or b not in range(n) or a == b for (a, b) in td.edges):
        return False
    seen = {td.root}
    stack = [td.root]
    while stack:
        for nxt in _td_neighbors_oracle(td, stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != n:
        return False
    union = frozenset().union(*td.bags)
    if not instance.terms() <= union:
        return False
    for a in instance:
        if not any(a.terms() <= bag for bag in td.bags):
            return False
    for t in sorted(union, key=term_key):
        members = {i for i, bag in enumerate(td.bags) if t in bag}
        start = min(members)
        seen = {start}
        stack = [start]
        while stack:
            for nxt in _td_neighbors_oracle(td, stack.pop()):
                if nxt in members and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != members:
            return False
    return True
