import operator
import random
from pathlib import Path

import pytest

from chasegraph import analysis, homs
from chasegraph.analysis import (
    RuleDependencyGraph,
    depends_on,
    find_greedy_rederivation,
    group_derivations,
    is_greedy,
    normalize_by_grd,
    permute_adjacent,
    rule_dependency_graph,
)
from chasegraph.chase import Derivation, enumerate_derivations
from chasegraph.derivgraph import build_derivation_graph
from chasegraph.docparse import parse_document
from chasegraph.errors import NotPermutableError, ResourceLimitError
from chasegraph.homs import canonical_key, isomorphic_mod_nulls
from chasegraph.model import (
    Atom,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Substitution,
    Variable,
)
from chasegraph.randkb import random_kb
from chasegraph.reduction import reduce_graph

from conftest import A, B, U, V, W, X, Y, Z, rename_derivation_nulls
from oracles import (
    brute_force_depends_on,
    canonical_forms_oracle,
    frozen_candidate_depends_on,
    is_greedy_oracle,
    layers_oracle,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# ---------------------------------------------------------------------------
# dependence / GRD
# ---------------------------------------------------------------------------

def test_join_rule_depends_on_each_producer(join_kb):
    r1, r2, r3, r4 = join_kb.rules
    assert depends_on(r4, r1)
    assert depends_on(r4, r2)
    assert depends_on(r4, r3)
    assert not depends_on(r2, r1)
    assert not depends_on(r1, r4)
    assert not depends_on(r4, r4)


def test_self_dependence_of_existential_loop():
    loop = Rule("l", frozenset({Atom("p", (X,))}), frozenset({Atom("p", (Y,))}))
    assert depends_on(loop, loop)
    assert brute_force_depends_on(loop, loop, max_fresh=2)


def test_grd_join(join_kb):
    grd = rule_dependency_graph(join_kb.rules)
    assert grd.edges == {("r1", "r4"), ("r2", "r4"), ("r3", "r4")}
    assert grd.sources() == {"r1", "r2", "r3"}
    assert grd.layers() == {"r1": 0, "r2": 0, "r3": 0, "r4": 1}


def test_grd_of_independent_rule():
    r = Rule("r", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X,))}))
    grd = rule_dependency_graph((r,))
    assert grd.edges == frozenset()


def test_grd_chain_matches_oracle(chain_kb):
    grd = rule_dependency_graph(chain_kb.rules)
    expected = set()
    for r1 in chain_kb.rules:
        for r2 in chain_kb.rules:
            if brute_force_depends_on(r2, r1):
                expected.add((r1.rid, r2.rid))
    assert grd.edges == frozenset(expected)
    assert grd.edges == {("r1", "r2"), ("r2", "r3"), ("r2", "r4"), ("r3", "r4")}


def test_depends_on_with_rule_constants():
    # the witness needs a body variable frozen onto the other rule's constant
    feeder = Rule("feeder", frozenset({Atom("s", (X,))}),
                  frozenset({Atom("q", (X, Y))}))
    reader = Rule("reader", frozenset({Atom("q", (A, Y))}),
                  frozenset({Atom("t", (Y,))}))
    assert depends_on(reader, feeder)
    assert brute_force_depends_on(reader, feeder)
    picky = Rule("picky", frozenset({Atom("q", (B, Y))}), frozenset({Atom("t", (Y,))}))
    feeder_a = Rule("fa", frozenset({Atom("s", (X,))}), frozenset({Atom("q", (A, X))}))
    assert not depends_on(picky, feeder_a)
    assert not brute_force_depends_on(picky, feeder_a)


def test_normalize_with_cyclic_dependencies():
    # a self-dependent growth rule keeps a well-defined layer
    grow = Rule("grow", frozenset({Atom("p", (X,))}), frozenset({Atom("p", (Y,))}))
    mark = Rule("mark", frozenset({Atom("p", (X,))}), frozenset({Atom("m", (X,))}))
    grd = rule_dependency_graph((grow, mark))
    layers = grd.layers()
    assert layers["grow"] == 0  # its only dependence is its own cycle
    assert layers["mark"] == 1
    kb = KnowledgeBase(Instance({Atom("p", (A,))}), (grow, mark))
    d = Derivation(kb.database)
    d = d.extend(mark, Substitution({X: A}))
    d = d.extend(grow, Substitution({X: A}))
    normalized = normalize_by_grd(d, grd)
    normalized.validate()
    assert normalized.rule_ids() == ("grow", "mark")
    assert normalized.final == d.final


def test_layers_match_oracle_on_random_graphs():
    # dense enough for cycles, with self-loops, and vertex orders both ways
    rng = random.Random(80)
    for _ in range(300):
        vertices = tuple(f"r{i}" for i in rng.sample(range(9), rng.randint(1, 9)))
        edges = frozenset((a, b) for a in vertices for b in vertices if rng.random() < 0.2)
        grd = RuleDependencyGraph(vertices, edges)
        assert grd.layers() == layers_oracle(grd)


def test_layers_of_a_long_chain_need_no_recursion():
    # listed last-first, the deepest rule's layer is asked for first
    n = 400
    rules = tuple(Rule(f"r{i}", frozenset({Atom(f"p{i}", (X,))}),
                       frozenset({Atom(f"p{i + 1}", (X,))})) for i in reversed(range(n)))
    grd = rule_dependency_graph(rules)
    assert grd.layers() == {f"r{i}": i for i in range(n)}
    d = Derivation(Instance({Atom("p0", (A,))}))
    for r in reversed(rules[-3:]):
        d = d.extend(r, Substitution({X: A}))
    assert normalize_by_grd(d, grd).rule_ids() == ("r0", "r1", "r2")


def test_depends_on_matches_oracle_on_random_rules():
    rng = random.Random(7)
    preds = {"p": 1, "q": 2, "e": 2}
    variables = [Variable(v) for v in "XYZ"]

    def small_rule(idx):
        def atom():
            p = rng.choice(sorted(preds))
            return Atom(p, tuple(rng.choice(variables) for _ in range(preds[p])))
        body = frozenset({atom() for _ in range(rng.randint(1, 2))})
        head = frozenset({atom() for _ in range(1)})
        return Rule(f"x{idx}", body, head)

    rules = [small_rule(i) for i in range(8)]
    checked = 0
    for r1 in rules[:4]:
        for r2 in rules[4:]:
            assert depends_on(r2, r1) == brute_force_depends_on(r2, r1, max_fresh=2)
            checked += 1
    assert checked == 16


def _parse_rules(text):
    return tuple(parse_document(text).rules)


# One literal case per condition of the piece-unifier test (DECISIONS.md
# section 11), each failing only that condition, next to a twin that passes.
@pytest.mark.parametrize("text, expected", [
    # an existential unified with a constant
    ("r1: p(X) -> q(X,Z).  r2: q(Y,a) -> t(Y).", False),
    ("r1: p(X) -> q(X,Z).  r2: q(Y,W) -> t(Y).", True),
    # an existential unified with a body variable of r1, through r2's repeated Y
    ("r1: p(X) -> q(X,Z).  r2: q(Y,Y) -> t(Y).", False),
    ("r1: p(X) -> q(X,X).  r2: q(Y,Y) -> t(Y).", True),
    # two existentials unified together
    ("r1: p(X) -> q(Z,W).  r2: q(Y,Y) -> t(Y).", False),
    ("r1: p(X) -> q(Z,Z).  r2: q(Y,Y) -> t(Y).", True),
    # an existential's variable that also sits in a kept atom
    ("r1: p(X) -> q(X,Z).  r2: q(Y,W), s(W) -> t(Y).", False),
    ("r1: p(X) -> q(X,Z).  r2: q(Y,W), s(Y) -> t(Y).", True),
    # a redundant application: no existential, and the head is in the body
    ("r1: q(X,Y), p(X) -> q(X,Y).  r2: q(U,V) -> t(U).", False),
    ("r1: q(X,Y), p(X) -> q(Y,X).  r2: q(U,V) -> t(U).", True),
])
def test_each_piece_unifier_condition(text, expected):
    r1, r2 = _parse_rules(text)
    assert depends_on(r2, r1) is expected
    assert brute_force_depends_on(r2, r1) is expected


def test_rules_are_kept_apart_whatever_their_variable_names():
    # renaming r2's X to X__2 would clash with r1's own X__2
    r1, r2 = _parse_rules("r1: a(X,X__2) -> b(X,Z).  r2: b(Y,X) -> c(Y).")
    assert depends_on(r2, r1)
    assert frozen_candidate_depends_on(r2, r1)
    assert brute_force_depends_on(r2, r1, max_fresh=2)


def test_depends_on_decides_the_seed_233_pair_without_search():
    # the frozen-candidate oracle takes seconds here: it partitions the six
    # variables of body(g3) with those of a kept atom of body(g1), under
    # two rule constants
    g1, _, g3 = random_kb(random.Random(233)).rules
    assert depends_on(g1, g3)


def test_depends_on_matches_frozen_candidates_on_random_kbs_and_samples():
    kbs = [random_kb(random.Random(seed)) for seed in range(100)]
    kbs += [parse_document(p.read_text()).knowledge_base() for p in sorted(SAMPLES.glob("*.rules"))]
    pairs = [(r1, r2) for kb in kbs for r1 in kb.rules for r2 in kb.rules]
    assert len(pairs) >= 400
    assert [depends_on(r2, r1) for r1, r2 in pairs] == [
        frozen_candidate_depends_on(r2, r1) for r1, r2 in pairs]


def test_depends_on_matches_brute_force_on_rules_with_constants():
    rng = random.Random(19)
    arity = {"p": 1, "q": 2, "e": 2}
    body_terms = [X, Y, A]
    head_terms = body_terms + [Z, W]

    def atoms(terms, k):
        return frozenset(Atom(p, tuple(rng.choice(terms) for _ in range(arity[p])))
                         for p in (rng.choice(sorted(arity)) for _ in range(k)))

    rules = [Rule(f"x{i}", atoms(body_terms, rng.randint(1, 2)), atoms(head_terms, 2))
             for i in range(24)]
    pairs = [(r1, r2) for r1 in rules[:12] for r2 in rules[12:]]
    shaped = [(r1, r2) for r1, r2 in pairs
              if r1.existentials and len(r1.head) == 2 and r1.constants() | r2.constants()]
    assert len(shaped) >= 100
    for r1, r2 in pairs:
        assert depends_on(r2, r1) == brute_force_depends_on(r2, r1, max_fresh=2)


# ---------------------------------------------------------------------------
# greediness
# ---------------------------------------------------------------------------

def test_nongreedy_join_violation_at_step_four(join_kb, nongreedy_join_derivation):
    report = is_greedy(nongreedy_join_derivation, join_kb)
    assert not report.greedy
    assert len(report.violations) == 1
    step, image = report.violations[0]
    assert step == 4
    # frontier image spans nulls created by two different steps, plus a and b
    d = nongreedy_join_derivation
    e1, e3 = d.steps[0].trigger.extension, d.steps[2].trigger.extension
    assert image == {A, B, e1[Y], e3[Y]}


def test_greedy_join_derivation(join_kb, greedy_join_derivation):
    report = is_greedy(greedy_join_derivation, join_kb)
    assert report.greedy
    assert report.witnesses[3] == 1  # the join reads both atoms of the r3 step


def test_short_derivations_trivially_greedy(join_kb):
    empty = Derivation(join_kb.database)
    assert is_greedy(empty, join_kb).greedy
    one = empty.extend(join_kb.rule_by_id("r1"), Substitution({X: A}))
    assert is_greedy(one, join_kb).greedy


def test_greediness_invariant_under_null_renaming(join_kb, nongreedy_join_derivation):
    d = nongreedy_join_derivation
    nulls = sorted(d.final.nulls(), key=lambda n: n.ordinal)
    mapping = {n: Null(10_000_000 + i * 7) for i, n in enumerate(nulls)}
    renamed = rename_derivation_nulls(d, mapping)
    renamed.validate()
    assert is_greedy(renamed, join_kb).greedy == is_greedy(d, join_kb).greedy


def test_initial_instance_nulls_count_as_base():
    # frontier images into nulls of the initial instance need no step witness
    n1, n2 = Null(555_001), Null(555_002)
    grow = Rule("grow", frozenset({Atom("e", (X, Y))}), frozenset({Atom("e", (Y, Z))}))
    start = Instance({Atom("e", (n1, n2))})
    kb = KnowledgeBase(Instance(), (grow,))
    d = Derivation(start).extend(grow, Substitution({X: n1, Y: n2}))
    report = is_greedy(d, kb)
    assert report.greedy and report.witnesses[1] == 0


def test_is_greedy_matches_the_oracle(join_kb, chain_kb):
    # the base of the KB's constants gives the reports of the per-call base;
    # in constant_in_head, frontier images hold a rule constant the database lacks
    constant_in_head = parse_document(
        "p(a). r1: p(X) -> q(X,c,Y). r2: q(X,Z,Y) -> t(Z,Y). r3: q(X,Z,Y) -> t(X,Y).")
    cases = [(join_kb, 5), (chain_kb, 6), (constant_in_head.knowledge_base(), 4)]
    cases += [(random_kb(random.Random(seed)), 3) for seed in range(60)]
    checked = nongreedy = 0
    for kb, depth in cases:
        for d in enumerate_derivations(kb.database, kb.rules, depth):
            got, want = is_greedy(d, kb), is_greedy_oracle(d, kb)
            assert (got.greedy, got.witnesses, got.violations) == (
                want.greedy, want.witnesses, want.violations)
            checked += 1
            nongreedy += not want.greedy
    assert checked > 1000 and nongreedy > 100


# ---------------------------------------------------------------------------
# permutation and normalization
# ---------------------------------------------------------------------------

def test_permute_reproduces_swapped_run(join_kb, nongreedy_join_derivation):
    d = nongreedy_join_derivation
    swapped = permute_adjacent(d, 2)
    swapped.validate()
    assert swapped.rule_ids() == ("r1", "r2", "r1", "r4")
    e1 = d.steps[0].trigger.extension
    e3 = d.steps[2].trigger.extension
    assert swapped.instance_at(2) == join_kb.database | {
        Atom("q", (A, e1[Y], e1[Z])), Atom("s", (B, e3[Y], e3[Z])),
    }
    assert swapped.instance_at(3) == d.instance_at(3)
    assert swapped.final == d.final  # exact equality, same nulls


def test_permute_database_level_steps_either_order(join_kb):
    d = Derivation(join_kb.database)
    d = d.extend(join_kb.rule_by_id("r1"), Substitution({X: A}))
    d = d.extend(join_kb.rule_by_id("r2"), Substitution({X: B}))
    swapped = permute_adjacent(d, 1)
    swapped.validate()
    assert swapped.rule_ids() == ("r2", "r1")
    assert swapped.final == d.final


def test_permute_rejected_when_trigger_reads_new_atom(join_kb, greedy_join_derivation):
    # the join step reads atoms created by the r3 step; it cannot move before it
    d = Derivation(join_kb.database)
    d = d.extend(join_kb.rule_by_id("r3"), Substitution({X: A, Y: B}))
    e1 = d.steps[0].trigger.extension
    d = d.extend(join_kb.rule_by_id("r4"), Substitution(
        {X: A, Y: e1[Z], Z: e1[W], W: B, U: e1[U], V: e1[V]}
    ))
    with pytest.raises(NotPermutableError):
        permute_adjacent(d, 1)
    # but the r1 step in the greedy run does commute with the join after it
    swapped = permute_adjacent(greedy_join_derivation, 2)
    swapped.validate()
    assert swapped.final == greedy_join_derivation.final


def test_permute_rejected_when_later_step_rederives():
    make_q = Rule("mk1", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X,))}))
    make_q2 = Rule("mk2", frozenset({Atom("r", (X,))}), frozenset({Atom("q", (X,))}))
    kb = KnowledgeBase(Instance({Atom("p", (A,)), Atom("r", (A,))}), (make_q, make_q2))
    d = Derivation(kb.database)
    d = d.extend(make_q, Substitution({X: A}))
    d = d.extend(make_q2, Substitution({X: A}))  # head image q(a) already present
    with pytest.raises(NotPermutableError):
        permute_adjacent(d, 1)


def test_permute_preserves_greediness_on_random_runs():
    from chasegraph.errors import ResourceLimitError

    rng = random.Random(21)
    checked = 0
    while checked < 60:
        kb = random_kb(rng)
        try:
            derivations = list(enumerate_derivations(
                kb.database, kb.rules, 3, max_derivations=400
            ))
        except ResourceLimitError:
            continue
        for d in derivations:
            for i in range(1, len(d)):
                try:
                    swapped = permute_adjacent(d, i)
                except NotPermutableError:
                    continue
                swapped.validate()
                assert swapped.final == d.final
                if is_greedy(d, kb).greedy:
                    assert is_greedy(swapped, kb).greedy
                checked += 1


def test_normalize_already_layered_is_stable(join_kb, nongreedy_join_derivation):
    grd = rule_dependency_graph(join_kb.rules)
    normalized = normalize_by_grd(nongreedy_join_derivation, grd)
    assert normalized.steps == nongreedy_join_derivation.steps


def test_normalize_moves_source_layer_rule_forward(join_kb):
    r1, _, r3, r4 = join_kb.rules
    d = Derivation(join_kb.database)
    d = d.extend(r3, Substitution({X: A, Y: B}))
    e1 = d.steps[0].trigger.extension
    d = d.extend(r4, Substitution(
        {X: A, Y: e1[Z], Z: e1[W], W: B, U: e1[U], V: e1[V]}
    ))
    d = d.extend(r1, Substitution({X: A}))
    grd = rule_dependency_graph(join_kb.rules)
    normalized = normalize_by_grd(d, grd)
    normalized.validate()
    assert normalized.rule_ids() == ("r3", "r1", "r4")
    assert normalized.final == d.final


def test_normalize_leaves_non_permutable_pairs(join_kb, greedy_join_derivation):
    grd = rule_dependency_graph(join_kb.rules)
    normalized = normalize_by_grd(greedy_join_derivation, grd)
    assert normalized.steps == greedy_join_derivation.steps


# ---------------------------------------------------------------------------
# greedy re-derivation
# ---------------------------------------------------------------------------

def test_rederive_join_instance(join_kb, nongreedy_join_derivation):
    target = nongreedy_join_derivation.final
    witness = find_greedy_rederivation(join_kb, target, 4)
    assert witness is not None
    assert len(witness) == 3  # one combined r3 step replaces r1;r2
    assert is_greedy(witness, join_kb).greedy
    assert isomorphic_mod_nulls(witness.final, target) is not None


def test_rederive_database_itself(join_kb):
    witness = find_greedy_rederivation(join_kb, join_kb.database, 3)
    assert witness is not None and len(witness) == 0


def test_rederive_on_guarded_single_rule():
    r = Rule("g", frozenset({Atom("e", (X, Y))}), frozenset({Atom("e", (Y, Z))}))
    kb = KnowledgeBase(Instance({Atom("e", (A, B))}), (r,))
    for d in enumerate_derivations(kb.database, kb.rules, 3):
        assert is_greedy(d, kb).greedy
        witness = find_greedy_rederivation(kb, d.final, len(d))
        assert witness is not None
        assert isomorphic_mod_nulls(witness.final, d.final) is not None


def test_all_greedy_implies_rederivable(chain_kb):
    seen = []
    for d in enumerate_derivations(chain_kb.database, chain_kb.rules, 3):
        assert is_greedy(d, chain_kb).greedy
        seen.append(d)
    for d in seen:
        witness = find_greedy_rederivation(chain_kb, d.final, len(d))
        assert witness is not None


def test_rederive_reports_canonical_form_budget(join_kb, monkeypatch):
    # the target's key alone needs two search nodes (two q-components)
    target = next(d.final for d in enumerate_derivations(join_kb.database, join_kb.rules, 2)
                  if len(d) == 2 and not any(a.pred == "s" for a in d.final))
    assert find_greedy_rederivation(join_kb, target, 2) is not None
    monkeypatch.setattr(homs, "MAX_CANON_NODES", 1)
    with pytest.raises(ResourceLimitError, match="MAX_CANON_NODES of 1 "):
        find_greedy_rederivation(join_kb, target, 2)


def _oracle_pass(derivations: list[Derivation]):
    """``group_derivations`` over ``derivations`` with uncached oracle keys,
    or (index, message, budget, limit) of the first key that trips."""
    groups: dict = {}
    for i, d in enumerate(derivations):
        try:
            ground, comps = canonical_forms_oracle(d.final)
        except ResourceLimitError as e:
            return i, str(e), e.budget, e.limit
        key = tuple(ground), tuple(sorted(form for form, _, _ in comps))
        groups.setdefault(key, (d.final, []))[1].append(d)
    return groups


# The depth-first search applies r1 before r2, but b-atoms sort before
# z-atoms, so a final can list the component its last step added before
# the ones it reuses, and a budget can trip on a reused form.
_REUSED_LAST = "p(a).\nr1: p(X) -> z(X,Y).\nr2: p(X) -> b(Y,W), b(W,Y).\n"


@pytest.mark.parametrize("name", ["join", "reused-last"])
def test_grouping_budget_trips_where_uncached_keys_trip(name, join_kb, monkeypatch):
    # a pass reuses component forms but charges each reuse its nodes, so
    # every budget gives the oracle's groups or its error, at the same derivation
    kb = join_kb if name == "join" else parse_document(_REUSED_LAST).knowledge_base()
    ds = list(enumerate_derivations(kb.database, kb.rules, 3, dedup="traces"))
    yielded: list[Derivation] = []

    def replay(*args, **kwargs):
        for d in ds:
            yielded.append(d)
            yield d

    monkeypatch.setattr(analysis, "enumerate_derivations", replay)
    total = sum(cost for d in ds for _, _, cost in canonical_forms_oracle(d.final)[1])
    tripped = set()
    for budget in range(1, total + 1):
        monkeypatch.setattr(homs, "MAX_CANON_NODES", budget)
        expected = _oracle_pass(ds)
        yielded.clear()
        try:
            got = group_derivations(kb, 3)
        except ResourceLimitError as e:
            got = len(yielded) - 1, str(e), e.budget, e.limit
        assert got == expected
        tripped.add(got[0] if isinstance(got, tuple) else None)
    assert None in tripped and len(tripped) > 2  # some budgets pass, several derivations trip


# ---------------------------------------------------------------------------
# the walk: class bits and keys from the parent (DECISIONS.md section 13)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dedup", ["none", "traces"])
def test_each_derivation_follows_its_preorder_parent(join_kb, chain_kb, dedup):
    # the parent of d is the last derivation of length len(d) - 1 before it
    for kb, depth in ((join_kb, 6), (chain_kb, 7)):
        last: list[Derivation] = []  # the last derivation of each length so far
        for d in enumerate_derivations(kb.database, kb.rules, depth, dedup=dedup):
            del last[len(d):]
            assert len(last) == len(d)
            if last:
                parent = last[-1]
                assert len(parent) == len(d) - 1
                assert all(map(operator.is_, parent.steps, d.steps))
            last.append(d)


def _seed_1702_kbs() -> list[KnowledgeBase]:
    """The acceptance corpus: the first 500 KBs of seed 1702 with at most
    1,200 derivations to depth 3."""
    rng, kbs = random.Random(1702), []
    while len(kbs) < 500:
        kb = random_kb(rng)
        try:
            for _ in enumerate_derivations(kb.database, kb.rules, 3, max_derivations=1200):
                pass
        except ResourceLimitError:
            continue
        kbs.append(kb)
    return kbs


def test_walk_bits_and_keys_match_the_whole_derivation_checks(join_kb, chain_kb):
    # both bits come from the parent's and the last step or node; the key
    # from the parent's split and the last step's atoms
    checked = nongreedy = 0
    for kb, depth in [(join_kb, 6), (chain_kb, 7)] + [(kb, 3) for kb in _seed_1702_kbs()]:
        memo: dict = {}
        stream = enumerate_derivations(kb.database, kb.rules, depth, dedup="traces")
        for d, node in analysis._walk(kb, stream):
            greedy = is_greedy(d, kb).greedy
            assert node.greedy == greedy
            assert node.reducible == (reduce_graph(build_derivation_graph(d, kb), "full")
                                      is not None)
            assert node.key(memo) == canonical_key(d.final)
            checked += 1
            nongreedy += not greedy
    assert checked == 1463 + 868 + 7183 and nongreedy > 0
