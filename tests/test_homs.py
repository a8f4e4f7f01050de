import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chasegraph import homs
from chasegraph.chase import enumerate_derivations
from chasegraph.docparse import parse_document
from chasegraph.errors import ResourceLimitError
from chasegraph.homs import (
    canonical_key,
    find_homomorphisms,
    hom_equivalent,
    isomorphic_mod_nulls,
    satisfies_rule,
)
from chasegraph.model import (
    Atom,
    Constant,
    Instance,
    Null,
    Rule,
    Substitution,
    Variable,
)
from chasegraph.randkb import random_kb

from conftest import A, B, X, Y
from oracles import brute_force_homomorphisms, canonical_forms_oracle, isomorphic_oracle


def test_single_match():
    target = Instance({Atom("p", (A,)), Atom("r", (B,))})
    assert find_homomorphisms({Atom("p", (X,))}, target) == [Substitution({X: A})]


def test_no_unifier_when_variable_repeats():
    target = Instance({Atom("t", (A, B))})
    assert find_homomorphisms({Atom("t", (X, X))}, target) == []


def test_join_body_match_found(join_kb, nongreedy_join_derivation):
    # the recorded join match must be among all matches into I3
    d = nongreedy_join_derivation
    i3 = d.instance_at(3)
    body = join_kb.rule_by_id("r4").body
    homs = find_homomorphisms(body, i3)
    assert d.steps[3].trigger.hom in homs
    # two q-atoms x one s-atom
    assert len(homs) == 2


def test_results_extend_seed_and_map_into_target():
    target = Instance({Atom("e", (A, B)), Atom("e", (B, A))})
    seed = Substitution({X: A})
    for h in find_homomorphisms({Atom("e", (X, Y))}, target, seed=seed):
        assert h[X] == A
        assert h.apply({Atom("e", (X, Y))}) <= target.atoms


def test_limit_returns_prefix_of_search():
    target = Instance({Atom("p", (Constant(c),)) for c in "abcde"})
    assert len(find_homomorphisms({Atom("p", (X,))}, target, limit=2)) == 2
    assert len(find_homomorphisms({Atom("p", (X,))}, target)) == 5


def test_satisfies_rule_examples(join_kb):
    r1 = join_kb.rule_by_id("r1")
    assert not satisfies_rule(join_kb.database, r1)  # p(a) matched, no q-atom
    n1, n2 = Null(2001), Null(2002)
    saturated = join_kb.database | {Atom("q", (A, n1, n2))}
    assert satisfies_rule(saturated, r1)
    vacuous = Rule("v", frozenset({Atom("missing", (X,))}), frozenset({Atom("p", (X,))}))
    assert satisfies_rule(join_kb.database, vacuous)


def test_hom_equivalent_examples():
    one = Instance({Atom("q", (A, Null(1), Null(2)))})
    two = Instance({Atom("q", (A, Null(3), Null(4))), Atom("q", (A, Null(5), Null(6)))})
    assert hom_equivalent(one, one)
    assert hom_equivalent(one, two)
    assert not hom_equivalent(Instance({Atom("p", (A,))}), Instance({Atom("p", (B,))}))


def test_isomorphic_mod_nulls_examples():
    left = Instance({Atom("q", (A, Null(1), Null(2)))})
    right = Instance({Atom("q", (A, Null(7), Null(9)))})
    ren = isomorphic_mod_nulls(left, right)
    assert ren is not None
    assert ren.apply(left.atoms) == right.atoms
    shared = Instance({Atom("q", (A, Null(1), Null(1)))})
    split = Instance({Atom("q", (A, Null(2), Null(3)))})
    assert isomorphic_mod_nulls(shared, split) is None
    assert isomorphic_mod_nulls(split, shared) is None
    # same null components, different ground atoms
    assert isomorphic_mod_nulls(left | {Atom("p", (A,))}, right | {Atom("p", (B,))}) is None


def test_isomorphic_implies_hom_equivalent():
    left = Instance({Atom("e", (Null(1), Null(2))), Atom("e", (Null(2), Null(1)))})
    right = Instance({Atom("e", (Null(5), Null(4))), Atom("e", (Null(4), Null(5)))})
    assert isomorphic_mod_nulls(left, right) is not None
    assert hom_equivalent(left, right)


def test_same_final_instance_of_two_runs_identical_mod_nulls(
    join_kb, nongreedy_join_derivation, greedy_join_derivation
):
    assert isomorphic_mod_nulls(
        nongreedy_join_derivation.final, greedy_join_derivation.final
    ) is not None


_consts = [Constant(c) for c in "ab"]
_nulls = [Null(9000 + i) for i in range(3)]
_vars = [Variable(v) for v in "XYZ"]

ground_terms = st.sampled_from(_consts + _nulls)
ground_atoms = st.builds(
    lambda p, args: Atom(p, tuple(args)),
    st.sampled_from("pq"),
    st.lists(ground_terms, min_size=1, max_size=2),
)
pattern_atoms = st.builds(
    lambda p, args: Atom(p, tuple(args)),
    st.sampled_from("pq"),
    st.lists(st.sampled_from(_consts + _vars), min_size=1, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(st.sets(pattern_atoms, min_size=1, max_size=3), st.sets(ground_atoms, max_size=6))
def test_search_agrees_with_brute_force(source, target_atoms):
    # arity consistency within one generated problem
    arities: dict[str, int] = {}
    for a in list(source) + list(target_atoms):
        if arities.setdefault(a.pred, a.arity) != a.arity:
            return
    target = Instance(target_atoms)
    fast = find_homomorphisms(source, target)
    slow = brute_force_homomorphisms(source, target)
    assert fast == slow


def test_search_agrees_with_brute_force_on_recorded_instances(
    join_kb, nongreedy_join_derivation
):
    body = join_kb.rule_by_id("r4").body
    target = nongreedy_join_derivation.final
    assert find_homomorphisms(body, target) == brute_force_homomorphisms(body, target)


# ---------------------------------------------------------------------------
# canonical keys up to null renaming
# ---------------------------------------------------------------------------

def _sample_finals(name: str, depth: int) -> list[Instance]:
    text = (Path(__file__).resolve().parent.parent / "samples" / f"{name}.rules").read_text()
    kb = parse_document(text).knowledge_base()
    return [d.final for d in enumerate_derivations(kb.database, kb.rules, depth)]


@pytest.mark.parametrize("name,depth", [("join", 4), ("chain", 5)])
def test_canonical_key_equal_iff_isomorphic(name, depth):
    # Isomorphism is an equivalence, so comparing every instance with its
    # key class's first member, and the first members with each other,
    # decides the claim for all pairs.
    classes: dict[tuple, list[Instance]] = {}
    for inst in _sample_finals(name, depth):
        classes.setdefault(canonical_key(inst), []).append(inst)
    firsts = [members[0] for members in classes.values()]
    for members in classes.values():
        for inst in members[1:]:
            assert isomorphic_oracle(members[0], inst) is not None
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            assert isomorphic_oracle(a, b) is None


def test_canonical_key_invariant_under_null_renaming():
    rng = random.Random(5)
    for inst in _sample_finals("join", 4)[::7] + _sample_finals("chain", 5)[::5]:
        nulls = sorted(inst.nulls(), key=lambda n: n.ordinal)
        images = rng.sample(range(10_000, 10_000 + 3 * len(nulls)), len(nulls))
        ren = Substitution({n: Null(k) for n, k in zip(nulls, images)})
        assert canonical_key(Instance(ren.apply(inst.atoms))) == canonical_key(inst)


def test_canonical_key_splits_symmetric_gadgets_into_components(monkeypatch):
    # four identical q gadgets and four identical s gadgets: one search node
    # each, where a single search over all 16 nulls walks 4!*4! orderings
    ns = [Null(500 + i) for i in range(16)]
    atoms = {Atom("p", (A,)), Atom("r", (B,))}
    atoms |= {Atom("q", (A, ns[2 * i], ns[2 * i + 1])) for i in range(4)}
    atoms |= {Atom("s", (B, ns[8 + 2 * i], ns[9 + 2 * i])) for i in range(4)}
    inst = Instance(atoms)
    key = canonical_key(inst)
    monkeypatch.setattr(homs, "MAX_CANON_NODES", 16)
    assert canonical_key(inst) == key
    monkeypatch.setattr(homs, "MAX_CANON_NODES", 7)
    with pytest.raises(ResourceLimitError, match="16 nulls.*MAX_CANON_NODES of 7 "):
        canonical_key(inst)


def test_canonical_key_prunes_arms_that_hang_off_a_shared_null(monkeypatch):
    # Seven identical two-null arms on one null: no bare swap of two y's is
    # an automorphism, but swapping whole arms is, so each level of the
    # search keeps one child, where an unpruned search visits about e*7! nodes.
    c, ys, zs = Null(1), [Null(100 + i) for i in range(7)], [Null(200 + i) for i in range(7)]
    atoms = {Atom("q", (c, y)) for y in ys} | {Atom("q", (y, z)) for y, z in zip(ys, zs)}
    inst = Instance(atoms)
    monkeypatch.setattr(homs, "MAX_CANON_NODES", 10)
    key = canonical_key(inst)
    rng = random.Random(3)
    nulls = sorted(inst.nulls(), key=lambda n: n.ordinal)
    for _ in range(5):
        ren = Substitution(dict(zip(nulls, map(Null, rng.sample(range(1000, 1100), 15)))))
        assert canonical_key(Instance(ren.apply(inst.atoms))) == key
    # same atom and null counts, but one arm is three nulls long and one is one
    moved = Instance(atoms - {Atom("q", (ys[6], zs[6]))} | {Atom("q", (zs[5], zs[6]))})
    assert isomorphic_mod_nulls(moved, inst) is None
    assert canonical_key(moved) != key


def _graph(edges) -> Instance:
    """An undirected graph over nulls, as a symmetric binary relation."""
    return Instance({Atom("e", (Null(700 + u), Null(700 + v)))
                     for a, b in edges for u, v in ((a, b), (b, a))})


def test_canonical_key_breaks_symmetry_inside_a_component():
    # K33 and the triangular prism are both connected and 3-regular on six
    # vertices: colour refinement cannot split them, individualisation must
    k33 = _graph([(i, j) for i in range(3) for j in range(3, 6)])
    prism_edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    prism = _graph(prism_edges)
    assert canonical_key(k33) != canonical_key(prism)
    perm = [4, 0, 5, 2, 1, 3]
    relabelled = _graph([(perm[a], perm[b]) for a, b in prism_edges])
    assert relabelled != prism
    assert canonical_key(relabelled) == canonical_key(prism)
    assert isomorphic_mod_nulls(k33, prism) is None


def test_canonical_key_tries_every_member_of_a_colour_class():
    # Two copies of K4 minus an edge, joined at their degree-2 vertices: a
    # cubic graph (one colour class after refinement) whose vertices are not
    # all alike (0, 1, 4, 5 lie on two triangles, the rest on one), so the
    # key may not depend on which null is individualised first.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
             (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (2, 6), (3, 7)]
    rng = random.Random(11)
    keys = set()
    for _ in range(20):
        perm = rng.sample(range(8), 8)
        keys.add(canonical_key(_graph([(perm[a], perm[b]) for a, b in edges])))
    assert len(keys) == 1


def _parity_inputs() -> list[Instance]:
    """Finals of join d5, chain d6 and the seeded ``randkb`` KBs 0-59 at
    depth 3 (full streams), then the symmetric gadgets above."""
    insts = _sample_finals("join", 5) + _sample_finals("chain", 6)
    for seed in range(60):
        kb = random_kb(random.Random(seed))
        insts += [d.final for d in enumerate_derivations(kb.database, kb.rules, 3)]
    c, ys, zs = Null(1), [Null(100 + i) for i in range(7)], [Null(200 + i) for i in range(7)]
    arms = {Atom("q", (c, y)) for y in ys} | {Atom("q", (y, z)) for y, z in zip(ys, zs)}
    insts += [Instance(arms), Instance(arms - {Atom("q", (ys[6], zs[6]))}
                                       | {Atom("q", (zs[5], zs[6]))})]
    prism_edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    perm = [4, 0, 5, 2, 1, 3]
    insts += [_graph([(i, j) for i in range(3) for j in range(3, 6)]), _graph(prism_edges),
              _graph([(perm[a], perm[b]) for a, b in prism_edges])]
    return insts


def test_canonical_forms_match_the_oracle_with_and_without_a_memo():
    # ground keys, forms, labellings and per-component search nodes, both
    # for each instance alone and within one pass that reuses forms
    memo: dict = {}
    forms = nodes = 0
    for inst in _parity_inputs():
        expected = canonical_forms_oracle(inst)
        assert repr(homs._canonical_forms(inst, {})) == repr(expected)
        assert repr(homs._canonical_forms(inst, memo)) == repr(expected)
        forms += len(expected[1])
        nodes += sum(cost for _, _, cost in expected[1])
    assert len(memo) < forms and nodes > forms  # forms recur, and some need a search


def test_order_isomorphic_components_share_one_memo_entry():
    # a component's memo entry is keyed by its dense tuple, so copies under an
    # order-preserving null renaming share it and each gets its own nulls'
    # labelling; a copy with the null order reversed has an entry of its own
    def gadget(ordinals):  # a 3-cycle with a tail: the labelling is forced
        a, b, c, d = map(Null, ordinals)
        return {Atom("e", (a, b)), Atom("e", (b, c)), Atom("e", (c, a)), Atom("f", (a, d))}

    same, shifted, reversed_ = (1, 2, 3, 4), (7, 9, 10, 12), (20, 19, 18, 17)
    inst = Instance(gadget(same) | gadget(shifted) | gadget(reversed_))
    memo: dict = {}
    ground, comps = homs._canonical_forms(inst, memo)
    assert repr((ground, comps)) == repr(canonical_forms_oracle(inst))
    assert len(comps) == 3 and len(memo) == 2
    assert len({form for form, _, _ in comps}) == 1
    by_nulls = {frozenset(labels): labels for _, labels, _ in comps}
    first, second = by_nulls[frozenset(map(Null, same))], by_nulls[frozenset(map(Null, shifted))]
    assert [first[Null(o)] for o in same] == [second[Null(o)] for o in shifted]


# ---------------------------------------------------------------------------
# isomorphism through the canonical labelling, against the backtracking oracle
# ---------------------------------------------------------------------------

def _assert_agrees_with_oracle(a: Instance, b: Instance) -> bool:
    ren = isomorphic_mod_nulls(a, b)
    assert (ren is None) == (isomorphic_oracle(a, b) is None)
    if ren is not None:
        assert set(ren.mapping) == a.nulls() and set(ren.mapping.values()) == b.nulls()
        assert ren.apply(a.atoms) == b.atoms
    return ren is not None


def test_isomorphic_mod_nulls_matches_oracle_on_equal_size_sample_finals():
    by_size: dict[int, list[Instance]] = {}
    for inst in _sample_finals("join", 4) + _sample_finals("chain", 5):
        by_size.setdefault(len(inst), []).append(inst)
    found = 0
    for members in by_size.values():
        sample = members[::max(1, len(members) // 8)]
        for i, a in enumerate(sample):
            for b in sample[i + 1:]:
                found += _assert_agrees_with_oracle(a, b)
    assert found > 0


def _random_instance(rng: random.Random, n_nulls: int) -> Instance:
    terms = [Null(300 + i) for i in range(n_nulls)] + [A]
    atoms = {Atom("e", (rng.choice(terms), rng.choice(terms))) for _ in range(2 * n_nulls)}
    atoms |= {Atom("p", (rng.choice(terms),)) for _ in range(rng.randint(0, 2))}
    return Instance(atoms)


def test_isomorphic_mod_nulls_matches_oracle_on_random_graphs():
    rng = random.Random(2307)
    hits = misses = 0
    for _ in range(1200):
        a = _random_instance(rng, rng.randint(3, 7))
        nulls = sorted(a.nulls(), key=lambda n: n.ordinal)
        ren = Substitution(dict(zip(nulls, map(Null, rng.sample(range(900, 950), len(nulls))))))
        b = Instance(ren.apply(a.atoms))
        assert _assert_agrees_with_oracle(a, b)
        # replace one atom by a random one of its predicate: sometimes still isomorphic
        old = rng.choice(sorted(b.atoms, key=str))
        terms = sorted(b.terms(), key=str)
        new = Atom(old.pred, tuple(rng.choice(terms) for _ in old.args))
        perturbed = Instance(b.atoms - {old} | {new})
        if len(perturbed) == len(a):
            if _assert_agrees_with_oracle(a, perturbed):
                hits += 1
            else:
                misses += 1
    assert hits > 0 and misses > 0


def test_isomorphic_mod_nulls_runs_under_the_canonical_budget(monkeypatch):
    k33 = _graph([(i, j) for i in range(3) for j in range(3, 6)])
    relabelled = Instance(Substitution({Null(700 + i): Null(810 - i) for i in range(6)})
                          .apply(k33.atoms))
    assert relabelled != k33 and isomorphic_mod_nulls(k33, relabelled) is not None
    monkeypatch.setattr(homs, "MAX_CANON_NODES", 1)
    with pytest.raises(ResourceLimitError, match="MAX_CANON_NODES of 1 ") as exc:
        isomorphic_mod_nulls(k33, relabelled)
    assert (exc.value.budget, exc.value.limit) == ("canonical-nodes", 1)
