import random
import sys
from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from chasegraph import reduction
from chasegraph.chase import Derivation, Trigger, enumerate_derivations
from chasegraph.derivgraph import (
    DerivationGraph,
    NodeFacts,
    build_derivation_graph,
    check_decomposition_properties,
    check_generative_paths,
    node_frontier,
    x_generative_node,
)
from chasegraph.docparse import parse_document
from chasegraph.errors import ResourceLimitError, SideConditionViolatedError
from chasegraph.reduction import (
    ArStep,
    CrStep,
    ReductionTrace,
    TrStep,
    apply_ar,
    apply_cr,
    apply_step,
    apply_tr,
    check_prefix_invariants,
    is_cycle_free,
    reduce_graph,
)
from chasegraph.model import (
    Atom,
    Constant,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Substitution,
    Variable,
    term_key,
)
from chasegraph.randkb import random_kb
from chasegraph.treedecomp import (
    TreeDecomposition,
    extract_tree_decomposition,
    validate_tree_decomposition,
)
from conftest import X, Y, chain_nulls
from oracles import (
    apply_step_oracle,
    check_decomposition_properties_oracle,
    check_generative_paths_oracle,
    check_prefix_invariants_oracle,
    extract_tree_decomposition_oracle,
    in_degree_oracle,
    moves_oracle,
    node_frontier_oracle,
    node_terms_oracle,
    nonconstant_terms_oracle,
    parents_oracle,
    reduce_cr_only_oracle,
    reduce_full_oracle,
    side_condition_oracle,
    validate_tree_decomposition_oracle,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture
def golden(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    z0, z1 = chain_nulls(chain_derivation)
    return g, z0, z1


def test_tr_removes_shared_term(golden):
    g, z0, z1 = golden
    reduced = apply_tr(g, 2, 1, 3, z0)  # drop z0 from the arc (X1, X3)
    assert reduced.label(1, 3) == frozenset()
    assert reduced.label(2, 3) == {z0, z1}
    assert reduced.at == g.at  # decorations untouched


def test_tr_symmetric_choice(golden):
    g, z0, z1 = golden
    other = apply_tr(g, 1, 2, 3, z0)  # legal with roles swapped: removes from (X2, X3)
    assert other.label(2, 3) == {z1}
    assert other.label(1, 3) == {z0}


def test_tr_side_conditions(golden):
    g, z0, z1 = golden
    with pytest.raises(SideConditionViolatedError):
        apply_tr(g, 1, 1, 3, z0)  # parents must differ
    with pytest.raises(SideConditionViolatedError):
        apply_tr(g, 2, 1, 3, z1)  # z1 not shared by both labels
    with pytest.raises(SideConditionViolatedError):
        apply_tr(g, 0, 1, 2, z0)  # (0, 2) is not an arc


def test_ar_removes_empty_labeled_arc(golden):
    g, z0, _ = golden
    reduced = apply_ar(g, 0, 1)
    assert (0, 1) not in reduced.arcs
    with pytest.raises(SideConditionViolatedError):
        apply_ar(g, 1, 2)  # label {z0} is not empty
    with pytest.raises(SideConditionViolatedError):
        apply_ar(g, 0, 4)  # no such arc


def test_cr_redirects_converging_arcs(golden):
    g, z0, z1 = golden
    after_tr = apply_tr(g, 2, 1, 3, z0)
    after_ar = apply_ar(after_tr, 1, 3)
    after_cr = apply_cr(after_ar, 2, 3, 4, 2)
    assert after_cr.label(2, 4) == {z0, z1}
    assert (3, 4) not in after_cr.arcs
    assert is_cycle_free(after_cr)


def test_cr_directly_on_golden_graph(golden):
    g, z0, z1 = golden
    reduced = apply_cr(g, 1, 2, 3, 2)  # {z0} | {z0,z1} covered by terms(X2)
    assert reduced.label(2, 3) == {z0, z1}
    assert (1, 3) not in reduced.arcs


def test_cr_side_conditions(golden):
    g, z0, z1 = golden
    with pytest.raises(SideConditionViolatedError):
        apply_cr(g, 2, 3, 4, 4)  # witness must be earlier than the target
    with pytest.raises(SideConditionViolatedError):
        apply_cr(g, 2, 3, 4, 0)  # terms(X0) lack z0, z1
    with pytest.raises(SideConditionViolatedError):
        apply_cr(g, 2, 2, 4, 2)  # arcs must be distinct


def test_cycle_free_judgments(golden, chain_kb):
    g, *_ = golden
    assert not is_cycle_free(g)
    from chasegraph.chase import Derivation

    single = build_derivation_graph(Derivation(chain_kb.database), chain_kb)
    assert is_cycle_free(single)


def test_reduce_cr_only_trace(golden):
    g, z0, z1 = golden
    trace = reduce_graph(g, "cr-only")
    assert trace is not None
    assert trace.steps == (CrStep(1, 2, 3, 2), CrStep(2, 3, 4, 2))
    assert is_cycle_free(trace.final)
    trace.replay()


def test_reduce_full_succeeds_and_replays(golden):
    g, *_ = golden
    trace = reduce_graph(g, "full")
    assert trace is not None and is_cycle_free(trace.final)
    trace.replay()


def test_replayed_step_sequence_is_a_valid_full_trace(golden):
    g, z0, z1 = golden
    seq = [TrStep(2, 1, 3, z0), ArStep(1, 3), CrStep(2, 3, 4, 2)]
    cur = g
    for step in seq:
        cur = apply_step(cur, step)
    assert is_cycle_free(cur)
    assert cur.label(2, 4) == {z0, z1}


def test_nongreedy_graph_is_irreducible(join_kb, nongreedy_join_derivation):
    g = build_derivation_graph(nongreedy_join_derivation, join_kb)
    assert reduce_graph(g, "cr-only") is None
    assert reduce_graph(g, "full") is None


def test_greedy_graph_reduces_both_ways(join_kb, greedy_join_derivation):
    g = build_derivation_graph(greedy_join_derivation, join_kb)
    for strategy in ("cr-only", "full"):
        trace = reduce_graph(g, strategy)
        assert trace is not None and is_cycle_free(trace.final)
        assert check_prefix_invariants(trace).ok


def test_greedy_iff_reducible_exhaustive_on_join_kb(join_kb):
    from chasegraph.analysis import is_greedy

    nongreedy_seen = 0
    for d in enumerate_derivations(join_kb.database, join_kb.rules, 3):
        g = build_derivation_graph(d, join_kb)
        greedy = is_greedy(d, join_kb).greedy
        nongreedy_seen += not greedy
        assert greedy == (reduce_graph(g, "cr-only") is not None)
        assert greedy == (reduce_graph(g, "full") is not None)
    assert nongreedy_seen > 0  # the crossing join occurs from length 3 on


def test_reduce_full_state_cap(golden, join_kb, nongreedy_join_derivation):
    # the nongreedy join graph: no earlier node covers the labels into X4,
    # so the path stops at the root; the golden graph: the path visits the
    # four graphs of its trace before the last
    nongreedy = build_derivation_graph(nongreedy_join_derivation, join_kb)
    for g, n, complete in ((nongreedy, 1, False), (golden[0], 4, True)):
        assert (reduce_graph(g, "full", max_states=n) is not None) == complete
        with pytest.raises(ResourceLimitError,
                           match=f"^reduction search exceeded {n - 1} states$") as exc:
            reduce_graph(g, "full", max_states=n - 1)
        assert (exc.value.budget, exc.value.limit) == ("reduction-states", n - 1)


def test_irreducible_graphs_are_decided_without_exhaustive_search():
    # on every irreducible graph of a maximal chain d5 derivation, the full
    # path stops at the root, where an exhaustive search visits more states
    kb = parse_document((SAMPLES / "chain.rules").read_text()).knowledge_base()
    irreducible = 0
    for d in enumerate_derivations(kb.database, kb.rules, 5):
        if len(d) < 5:
            continue
        g = build_derivation_graph(d, kb)
        old, states = reduce_full_oracle(g)
        if old is not None:
            continue
        assert states > 1
        assert reduce_graph(g, "full", max_states=1) is None
        irreducible += 1
    assert irreducible > 0


def test_cr_only_runs_under_the_same_state_budget(golden):
    # the cr-only trace takes two steps from a graph that is not cycle-free,
    # so it visits two such states
    g, *_ = golden
    assert len(reduce_graph(g, "cr-only", max_states=2).steps) == 2
    with pytest.raises(ResourceLimitError, match="^reduction search exceeded 1 states$"):
        reduce_graph(g, "cr-only", max_states=1)


def test_reductions_only_touch_arcs(golden):
    g, z0, _ = golden
    for reduced in (apply_tr(g, 2, 1, 3, z0), apply_ar(g, 0, 1), apply_cr(g, 1, 2, 3, 2)):
        assert reduced.at == g.at
        assert reduced.provenance == g.provenance
        assert len(reduced) == len(g)
        assert all(i < j for (i, j) in reduced.arcs)


def test_prefix_invariants_on_replayed_trace(golden):
    g, z0, _ = golden
    trace = ReductionTrace(g, (TrStep(2, 1, 3, z0), ArStep(1, 3), CrStep(2, 3, 4, 2)))
    report = check_prefix_invariants(trace)
    assert report.ok, report.failures


def test_trace_constructor_applies_each_step_with_its_side_condition(golden):
    g, z0, _ = golden
    seq = (TrStep(2, 1, 3, z0), ArStep(1, 3), CrStep(2, 3, 4, 2))
    trace = ReductionTrace(g, seq)
    graphs = [g]
    for step in seq:
        graphs.append(apply_step(graphs[-1], step))
    assert trace.initial is g and trace.graphs[0] is g and trace.steps == seq
    assert [h.arcs for h in trace.graphs] == [h.arcs for h in graphs]
    assert all(h.facts is g.facts for h in trace.graphs)
    with pytest.raises(SideConditionViolatedError, match=r"^ar\[1,3\] does not apply"):
        ReductionTrace(g, (ArStep(1, 3),))  # (X1, X3) is labeled {z0}
    with pytest.raises(SideConditionViolatedError, match=r"^tr\[2,1,3,"):
        ReductionTrace(g, seq[:1] * 2)  # z0 is gone from (X1, X3) after the first


def test_prefix_invariants_on_empty_trace(golden):
    g, *_ = golden
    report = check_prefix_invariants(ReductionTrace(g, ()))
    # the unreduced graph satisfies (a); (c) is only checked for complete
    # traces and this one is not complete
    assert report.frontier_matches


def test_prefix_invariants_on_cr_only_trace(golden):
    g, *_ = golden
    trace = reduce_graph(g, "cr-only")
    report = check_prefix_invariants(trace)
    assert report.ok, report.failures


def test_replay_detects_tampering(golden):
    g, *_ = golden
    trace = reduce_graph(g, "cr-only")
    broken = ReductionTrace._of(trace.steps, (g,) + trace.graphs[:-1])
    with pytest.raises(ValueError, match=r"^replay diverges after step 1 \(cr\[1,2,3,2\]\)$"):
        broken.replay()


def test_reduce_graph_rejects_an_unknown_strategy(golden):
    g, *_ = golden
    with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
        reduce_graph(g, "greedy")


def _hand_facts(nulls_at, frontiers):
    """(node facts, nulls x[0..3]): node i holds the nulls indexed by
    ``nulls_at[i]`` and, from node 1 on, has the frontier indexed by
    ``frontiers[i]``."""
    x = [Null(800_000 + i) for i in range(4)]
    at = tuple(frozenset(Atom("p", (x[i],)) for i in held) for held in nulls_at)
    provenance = [None]
    for k in range(1, len(at)):
        vs = tuple(Variable(f"F{i}") for i in frontiers[k])
        r = Rule(f"r{k}", frozenset({Atom("b", vs)}), frozenset({Atom("h", vs)}))
        sub = Substitution({Variable(f"F{i}"): x[i] for i in frontiers[k]})
        provenance.append((r, Trigger(r.rid, sub, sub)))
    return NodeFacts.of(at, frozenset(), tuple(provenance)), x


def test_prefix_invariants_on_a_hand_built_trace_with_failing_nodes():
    # every label lies inside its source's terms, as the constructor
    # demands; X1's frontier {x3} is neither its incoming label {x1} nor
    # covered by an earlier node, so (a) and (c) fail there at every
    # prefix; X2's frontier {x0} is not its incoming label either, until
    # the ar removes X2's one arc and (a) no longer applies to it
    facts, x = _hand_facts(
        [{0, 1}, {1}, {0, 1}, {0, 2}, {0, 1}],
        [(), (3,), (0,), (2,), (0, 1)],
    )
    g = DerivationGraph(facts, {
        (3, 4): frozenset({x[0]}),
        (0, 4): frozenset({x[0]}),
        (1, 4): frozenset({x[1]}),
        (0, 1): frozenset({x[1]}),
        (1, 2): frozenset(),
    })
    trace = ReductionTrace(g, (ArStep(1, 2), CrStep(0, 1, 4, 0), CrStep(0, 3, 4, 0)))
    assert trace.complete
    report = check_prefix_invariants(trace)
    assert report == check_prefix_invariants_oracle(trace)
    unmatched = [f"frontier of X{n} != union of incoming labels" for n in (1, 2)]
    uncovered = "no earlier node covers the frontier of X1"
    assert report.failures == tuple(
        [f"prefix 0: {msg}" for msg in unmatched + [uncovered]]
        + [f"prefix {p}: {msg}" for p in range(1, 4) for msg in (unmatched[0], uncovered)])
    assert (report.frontier_matches, report.frontier_witness) == (False, False)


def test_reduce_graph_traces_equal_their_checked_replay():
    # reduce_graph builds its traces without applying a step twice; each
    # must replay, and the public constructor, which applies every step
    # with its side condition, must give the same graphs (DECISIONS.md
    # section 14)
    traces = 0
    for name, depth in (("chain", 6), ("join", 5)):
        kb = parse_document((SAMPLES / f"{name}.rules").read_text()).knowledge_base()
        for d in enumerate_derivations(kb.database, kb.rules, depth):
            g = build_derivation_graph(d, kb)
            for strategy in ("cr-only", "full"):
                t = reduce_graph(g, strategy)
                if t is None:
                    continue
                t.replay()
                checked = ReductionTrace(t.initial, t.steps)
                assert [h.arcs for h in checked.graphs] == [h.arcs for h in t.graphs]
                traces += 1
    assert traces == 3746  # of 3,646 derivations, both strategies


def test_full_reduction_deeper_than_the_recursion_limit():
    # X3 reads two copies of an n-ary atom, one made by X1 and one by X2, so
    # both arcs into X3 carry all n nulls; the first reduction found drops
    # them from (X2, X3) one term at a time, a path of n + 1 steps
    n = sys.getrecursionlimit() + 1
    ys = tuple(Variable(f"Y{i}") for i in range(n))
    x = Variable("X")
    mk = Rule("mk", frozenset({Atom("p", (x,))}), frozenset({Atom("a", ys)}))
    cp = Rule("cp", frozenset({Atom("a", ys)}), frozenset({Atom("b", ys)}))
    rd = Rule("rd", frozenset({Atom("a", ys), Atom("b", ys)}), frozenset({Atom("c", ys)}))
    kb = KnowledgeBase(Instance({Atom("p", (Constant("a"),))}), (mk, cp, rd))
    d = Derivation(kb.database).extend(mk, Substitution({x: Constant("a")}))
    nulls = d.steps[0].trigger.extension
    d = d.extend(cp, Substitution({y: nulls[y] for y in ys}))
    d = d.extend(rd, Substitution({y: nulls[y] for y in ys}))
    trace = reduce_graph(build_derivation_graph(d, kb), "full")
    assert trace is not None and trace.complete
    assert len(trace.steps) == n + 1 > sys.getrecursionlimit()
    assert trace.steps[-1] == ArStep(2, 3)


@lru_cache(maxsize=None)
def _parity_derivations():
    """(kb, derivation) for every derivation of join d5, of chain d6 and of
    30 seeded random KBs at depth 3."""
    cases = []
    for name, depth in (("join", 5), ("chain", 6)):
        kb = parse_document((SAMPLES / f"{name}.rules").read_text()).knowledge_base()
        cases += [(kb, d) for d in enumerate_derivations(kb.database, kb.rules, depth)]
    rng, kbs = random.Random(4013), 0
    while kbs < 30:
        kb = random_kb(rng)
        try:
            ds = list(enumerate_derivations(kb.database, kb.rules, 3, max_derivations=500))
        except ResourceLimitError:
            continue
        cases += [(kb, d) for d in ds]
        kbs += 1
    return tuple(cases)


def _same_trace(new, old):
    if old is None:
        return new is None
    return (
        new is not None
        and new.steps == old.steps
        and [g.arcs for g in new.graphs] == [g.arcs for g in old.graphs]
    )


def _reducibility_matches_the_oracle(graphs) -> set[bool]:
    """Check the full search's verdict against exhaustive search on each
    graph; return the answers seen."""
    answers = set()
    for h in graphs:
        reducible = reduce_full_oracle(h)[0] is not None
        assert (reduce_graph(h, "full") is not None) == reducible
        answers.add(reducible)
    return answers


def _reductions_match_the_oracles(g):
    """(cr-only trace, full trace, states the exhaustive oracle search
    visits), after checking both searches and the full search's verdict on
    every graph of both traces against the oracles."""
    cr_only = reduce_graph(g, "cr-only")
    assert _same_trace(cr_only, reduce_cr_only_oracle(g))
    old, states = reduce_full_oracle(g)
    full = reduce_graph(g, "full")
    assert _same_trace(full, old)
    _reducibility_matches_the_oracle(
        [g] + [h for t in (cr_only, full) if t is not None for h in t.graphs[1:]])
    return cr_only, full, states


def _decomposition_candidates(td: TreeDecomposition) -> dict[str, TreeDecomposition]:
    """The extracted decomposition and variants the validation must judge
    as the oracle does: bags reordered, an extra edge, two leaves' bags
    swapped (a tree whose terms may be disconnected), a leaf's edge moved
    to a bag that does not exist, and a root that names no bag."""
    n = len(td.bags)
    out = {
        "extracted": td,
        "shuffled": TreeDecomposition(td.bags[::-1], td.edges, td.root),
        "cyclic": TreeDecomposition(td.bags, td.edges | {(0, n - 1)}, td.root),
        "root out of range": TreeDecomposition(td.bags, td.edges, n),
    }
    degree = Counter(i for edge in td.edges for i in edge)
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    if len(leaves) >= 2:
        a, b = leaves[:2]
        bags = list(td.bags)
        bags[a], bags[b] = bags[b], bags[a]
        out["leaves swapped"] = TreeDecomposition(tuple(bags), td.edges, td.root)
        edge = next(e for e in td.edges if b in e)
        out["edge to a missing bag"] = TreeDecomposition(
            td.bags, td.edges - {edge} | {(td.root, n)}, td.root)
    return out


def _checks_match_the_oracles(g, traces, final, kb) -> Counter:
    """Check the graph checks on every graph of every trace, the prefix
    invariants on every prefix of every trace, and the extraction and
    validation on each trace's final graph against the oracles; count the
    validation verdicts by candidate."""
    traces = [t for t in traces if t is not None]
    verdicts: Counter = Counter()
    for t in traces:
        for p in range(len(t.graphs)):
            prefix = ReductionTrace._of(t.steps[:p], t.graphs[:p + 1])
            assert check_prefix_invariants(prefix) == check_prefix_invariants_oracle(prefix)
    for h in [g] + [h for t in traces for h in t.graphs[1:]]:
        assert [h.parents(n) for n in h.nodes] == \
            [tuple(parents_oracle(h, n)) for n in h.nodes]
        assert h.convergence_points() == \
            tuple(n for n in h.nodes if in_degree_oracle(h, n) > 1)
        assert [node_frontier(h, n) for n in h.nodes] == \
            [node_frontier_oracle(h, n) for n in h.nodes]
        assert check_decomposition_properties(h, final, kb) == \
            check_decomposition_properties_oracle(h, final, kb)
        assert check_generative_paths(h) == check_generative_paths_oracle(h)
    for t in traces:
        td = extract_tree_decomposition(t.final)
        assert td == extract_tree_decomposition_oracle(t.final)
        for name, cand in _decomposition_candidates(td).items():
            valid = validate_tree_decomposition(cand, final)
            assert valid == validate_tree_decomposition_oracle(cand, final)
            verdicts[name, valid] += 1
    return verdicts


def test_reductions_and_graph_checks_match_the_oracles():
    verdicts: Counter = Counter()
    for kb, d in _parity_derivations():
        g = build_derivation_graph(d, kb)
        cr_only, full, _ = _reductions_match_the_oracles(g)
        verdicts += _checks_match_the_oracles(g, (cr_only, full), d.final, kb)
        for x in d.final.nulls():
            assert x_generative_node(g, x) == \
                next(i for i in g.nodes if x in nonconstant_terms_oracle(g, i))
        for n in g.nodes:
            assert g.node_terms(n) == node_terms_oracle(g, n)
    # the swapped leaves split some term's bags, and a bag on no edge or a
    # root outside the bags never validates
    assert verdicts["leaves swapped", False] > 0
    assert verdicts["extracted", True] > 0 and verdicts["extracted", False] == 0
    assert verdicts["edge to a missing bag", True] == 0
    assert verdicts["root out of range", True] == 0


def _random_graph(rng: random.Random) -> DerivationGraph:
    """A small graph with random decorations, frontiers, arcs and labels over
    four nulls.  Each label is drawn from its source's terms, as the
    constructor requires, but the frontiers need not match the labels, so
    the checks meet failures."""
    nulls = [Null(900_000 + i) for i in range(4)]
    fr_vars = [Variable(f"F{i}") for i in range(4)]
    n = rng.randint(3, 5)
    holds = [rng.sample(nulls, rng.randint(0, 3)) for _ in range(n)]
    at = tuple(frozenset(Atom("p", (t,)) for t in held) for held in holds)
    provenance = [None]
    for k in range(1, n):
        picked = rng.sample(range(4), rng.randint(1, 2))
        vs = tuple(fr_vars[i] for i in picked)
        r = Rule(f"r{k}", frozenset({Atom("b", vs)}), frozenset({Atom("h", vs)}))
        sub = Substitution({v: rng.choice(nulls) for v in vs})
        provenance.append((r, Trigger(r.rid, sub, sub)))
    arcs = {
        (i, j): frozenset(rng.sample(holds[i], min(rng.randint(0, 2), len(holds[i]))))
        for j in range(n) for i in range(j) if rng.random() < 0.6
    }
    return DerivationGraph(NodeFacts.of(at, frozenset(), tuple(provenance)), arcs)


def test_reductions_and_checks_match_the_oracles_on_random_graphs():
    rng = random.Random(4014)
    kb = KnowledgeBase(Instance(), (Rule("w", frozenset({Atom("q", (X,))}),
                                         frozenset({Atom("q", (X, Y))})),))
    backtracked, forests, answers, verdicts = 0, 0, set(), Counter()
    for _ in range(300):
        g = _random_graph(rng)
        cr_only, full, states = _reductions_match_the_oracles(g)
        successors = _reducibility_matches_the_oracle(
            [apply_step_oracle(g, step) for step in moves_oracle(g)])
        assert successors <= {full is not None}  # no move changes reducibility
        answers |= successors
        verdicts += _checks_match_the_oracles(
            g, (cr_only, full), Instance(frozenset().union(*g.at)), kb)
        backtracked += full is not None and states > len(full.steps)
        trees = max((sum(1 for n in t.final.nodes if not in_degree_oracle(t.final, n))
                     for t in (cr_only, full) if t is not None), default=0)
        forests += trees >= 3
    assert backtracked == 0  # the oracle's first trace is the first-move path
    assert answers == {True, False}  # successors of roots are met live and dead
    assert forests > 0  # reduced graphs of three or more trees are extracted
    assert verdicts["leaves swapped", False] > 0 and verdicts["extracted", False] > 0


def test_the_walk_moves_only_from_reducible_random_graphs():
    # `_path` spends one state per graph it visits that has a convergence
    # point: every graph of a complete trace but the last, and only the
    # root of an irreducible graph, where the pick gives no step.  The
    # state total of all 300 calls pins that no state is spent beyond them.
    rng = random.Random(4014)
    budgets = []

    class Counted(reduction._StateBudget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_StateBudget", Counted)
        for _ in range(300):
            g = _random_graph(rng)
            trace = reduce_graph(g, "full")
            assert budgets[-1].used == (len(trace.steps) if trace else 1)
            assert budgets[-1].used <= len(g.arcs) + sum(map(len, g.arcs.values()))
    assert len(budgets) == 300
    assert sum(b.used for b in budgets) == 487


def _candidate_steps(g: DerivationGraph) -> list:
    """Every ar, tr and cr step over the indices range(len(g) + 1), with the
    terms of the labels plus one null that occurs nowhere in the graph."""
    idx = range(len(g) + 1)
    absent = Null(10**9)
    assert all(absent not in g.node_terms(n) for n in g.nodes)
    terms = sorted(frozenset().union(*g.arcs.values()), key=term_key) + [absent]
    return ([ArStep(i, j) for i, j in product(idx, repeat=2)]
            + [TrStep(i, j, k, t) for i, j, k in product(idx, repeat=3) for t in terms]
            + [CrStep(i, j, k, l) for i, j, k, l in product(idx, repeat=4)])


def _steps_match_the_oracles(g: DerivationGraph) -> set[type]:
    """Check apply_step on every candidate step against the side-condition
    and rewrite oracles; return the step types it accepted."""
    accepted = set()
    for step in _candidate_steps(g):
        legal = side_condition_oracle(g, step)
        try:
            reduced = apply_step(g, step)
        except SideConditionViolatedError as exc:
            assert not legal, step
            assert step.describe() in str(exc)
        else:
            assert legal, step
            assert reduced.arcs == apply_step_oracle(g, step).arcs
            assert [reduced.parents(n) for n in g.nodes] == \
                [tuple(parents_oracle(reduced, n)) for n in g.nodes]
            assert reduced.convergence_points() == \
                tuple(n for n in g.nodes if in_degree_oracle(reduced, n) > 1)
            accepted.add(type(step))
    return accepted


def test_apply_step_accepts_exactly_the_oracle_steps(golden):
    g, *_ = golden
    accepted = _steps_match_the_oracles(g)
    kb = parse_document((SAMPLES / "join.rules").read_text()).knowledge_base()
    graphs = 0
    for d in enumerate_derivations(kb.database, kb.rules, 4, dedup="traces"):
        trace = reduce_graph(build_derivation_graph(d, kb), "full")
        for h in trace.graphs if trace else ():
            accepted |= _steps_match_the_oracles(h)
            graphs += 1
    assert graphs > 50
    assert accepted == {ArStep, TrStep, CrStep}


def test_apply_step_accepts_exactly_the_oracle_steps_on_random_graphs():
    rng = random.Random(4015)
    accepted = set()
    for _ in range(60):
        accepted |= _steps_match_the_oracles(_random_graph(rng))
    assert accepted == {ArStep, TrStep, CrStep}


def test_apply_cr_ignores_the_order_of_the_pair(golden):
    g, *_ = golden
    legal = 0
    for i, j, k, l in product(range(len(g) + 1), repeat=4):
        try:
            forward = apply_cr(g, i, j, k, l)
        except SideConditionViolatedError:
            with pytest.raises(SideConditionViolatedError):
                apply_cr(g, j, i, k, l)
            continue
        assert apply_cr(g, j, i, k, l).arcs == forward.arcs
        legal += 1
    assert legal > 0
