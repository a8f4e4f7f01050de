"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them live).  Criterion 5's
weak-class expectation is known-unattainable under fresh-null derivation
semantics and is left red on purpose; the decisions ledger carries the
analysis and test_classify pins the actual behavior.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from chasegraph.analysis import (
    depends_on,
    is_greedy,
    permute_adjacent,
    rule_dependency_graph,
)
from chasegraph.chase import chase_levels
from chasegraph.classify import HOLDS, REFUTED, classify
from chasegraph.derivgraph import (
    build_derivation_graph,
    check_decomposition_properties,
    check_generative_paths,
)
from chasegraph.model import Atom, BooleanQuery, Variable
from chasegraph.reduction import (
    ArStep,
    CrStep,
    TrStep,
    apply_step,
    check_prefix_invariants,
    is_cycle_free,
    reduce_graph,
)
from chasegraph.selfcheck import check_corpus
from chasegraph.treedecomp import (
    extract_tree_decomposition,
    validate_tree_decomposition,
    width_bound,
)

from conftest import B, X, Y, chain_nulls
from oracles import brute_force_depends_on

CORPUS_SEED = 1702
CORPUS_KBS = 500


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared corpus for criteria 6-9 (one selfcheck pass, counters only)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    """The corpus report, its failure counts by category, and its run time."""
    start = time.time()
    report = check_corpus(CORPUS_SEED, CORPUS_KBS, max_len=3, budget=1200)
    return report, Counter(category for _, _, category, _ in report.failures), time.time() - start


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_golden_graph(chain_kb, chain_derivation):
    start = time.time()
    g = build_derivation_graph(chain_derivation, chain_kb)
    z0, z1 = chain_nulls(chain_derivation)
    ok = (
        len(g) == 5
        and g.at[0] == chain_kb.database.atoms
        and g.at[1] == {Atom("q", (B, z0))}
        and g.at[2] == {Atom("r", (B, z0)), Atom("r", (z0, z1))}
        and g.at[3] == {Atom("s", (z0, z1))}
        and g.at[4] == {Atom("t", (z0, z1))}
        and g.arcs == {
            (0, 1): frozenset(),
            (1, 2): frozenset({z0}),
            (1, 3): frozenset({z0}),
            (2, 3): frozenset({z0, z1}),
            (2, 4): frozenset({z0}),
            (3, 4): frozenset({z1}),
        }
    )
    elapsed = time.time() - start
    _report(1, "golden five-node graph", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_golden_reduction(chain_kb, chain_derivation):
    start = time.time()
    g = build_derivation_graph(chain_derivation, chain_kb)
    z0, z1 = chain_nulls(chain_derivation)
    # replayed step sequence: drop z0 from (X1,X3), drop the arc, redirect
    cur = g
    for step in (TrStep(2, 1, 3, z0), ArStep(1, 3), CrStep(2, 3, 4, 2)):
        cur = apply_step(cur, step)
    replay_ok = is_cycle_free(cur) and cur.label(2, 4) == {z0, z1}
    cr_trace = reduce_graph(g, "cr-only")
    cr_ok = (
        cr_trace is not None
        and cr_trace.steps == (CrStep(1, 2, 3, 2), CrStep(2, 3, 4, 2))
        and is_cycle_free(cr_trace.final)
    )
    elapsed = time.time() - start
    _report(2, "golden reduction sequences", replay_ok and cr_ok and elapsed < 1.0,
            f"{elapsed:.3f}s")


def test_criterion_3_greediness_verdicts(join_kb, nongreedy_join_derivation,
                                         greedy_join_derivation):
    start = time.time()
    bad = is_greedy(nongreedy_join_derivation, join_kb)
    good = is_greedy(greedy_join_derivation, join_kb)
    swapped = permute_adjacent(nongreedy_join_derivation, 2)
    swapped.validate()
    ok = (
        not bad.greedy
        and bad.violations and bad.violations[0][0] == 4
        and good.greedy
        and swapped.final == nongreedy_join_derivation.final
        and swapped.rule_ids() == ("r1", "r2", "r1", "r4")
    )
    elapsed = time.time() - start
    _report(3, "greediness verdicts and permutation", ok and elapsed < 1.0,
            f"{elapsed:.3f}s")


def test_criterion_4_grd_with_oracle(join_kb, chain_kb):
    start = time.time()
    grd = rule_dependency_graph(join_kb.rules)
    grd_ok = (
        grd.sources() == {"r1", "r2", "r3"}
        and grd.edges == {("r1", "r4"), ("r2", "r4"), ("r3", "r4")}
    )
    disagreements = 0
    for kb in (join_kb, chain_kb):
        for r1 in kb.rules:
            for r2 in kb.rules:
                if depends_on(r2, r1) != brute_force_depends_on(r2, r1):
                    disagreements += 1
    elapsed = time.time() - start
    _report(4, "dependency graph vs brute-force oracle",
            grd_ok and disagreements == 0 and elapsed < 30.0,
            f"{elapsed:.1f}s, {disagreements} disagreements")


def test_criterion_5_bounded_class_verdicts(join_kb):
    start = time.time()
    gbts = classify(join_kb, "gbts", 4)
    gbts_ok = gbts.result == REFUTED
    if gbts_ok:
        cert = gbts.certificate
        cert.derivation.validate()
        gbts_ok = not is_greedy(cert.derivation, join_kb).greedy

    wgbts = classify(join_kb, "wgbts", 4)
    wgbts_ok = wgbts.result == HOLDS  # known-unattainable, see decisions ledger
    elapsed = time.time() - start
    _report(5, "bounded verdicts at depth 4",
            gbts_ok and wgbts_ok and elapsed < 300.0,
            f"{elapsed:.1f}s, gbts={gbts.result}, wgbts={wgbts.result}; "
            "the wgbts expectation contradicts fresh-null derivation semantics "
            "(see decisions ledger); verdict equality with wcdgs holds")


def test_criterion_6_equivalence_corpus(corpus):
    report, failures, elapsed = corpus
    totals = (report.kbs, report.skipped, report.derivations, report.nongreedy,
              report.complete_traces)
    ok = (
        totals == (CORPUS_KBS, 2, 11370, 56, 22628)
        and failures["equivalence"] == 0
        and elapsed < 600.0
    )
    _report(6, "greedy <=> reducible on random corpus", ok,
            f"{report.kbs} KBs, {report.derivations} derivations "
            f"({report.nongreedy} non-greedy), "
            f"{failures['equivalence']} violations, {elapsed:.1f}s")


def test_criterion_7_decomposition_properties(corpus, chain_kb, chain_derivation,
                                              join_kb, nongreedy_join_derivation):
    g_chain = build_derivation_graph(chain_derivation, chain_kb)
    g_join = build_derivation_graph(nongreedy_join_derivation, join_kb)
    golden_ok = (
        check_decomposition_properties(g_chain, chain_derivation.final, chain_kb).ok
        and check_decomposition_properties(
            g_join, nongreedy_join_derivation.final, join_kb).ok
        and width_bound(chain_kb) == 5
        and width_bound(join_kb) == 8
    )
    # the reduced golden graphs keep the properties too
    trace = reduce_graph(g_chain, "cr-only")
    golden_ok = golden_ok and all(
        check_decomposition_properties(gr, chain_derivation.final, chain_kb).ok
        for gr in trace.graphs
    )
    violations = corpus[1]["decomposition"]
    _report(7, "decomposition properties 1-4", golden_ok and violations == 0,
            f"bounds 5/8, corpus violations {violations}")


def test_criterion_8_tree_decompositions(corpus, chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    trace = reduce_graph(g, "cr-only")
    td = extract_tree_decomposition(trace.final)
    golden_ok = (
        td.width == 3
        and validate_tree_decomposition(td, chain_derivation.final)
        and max(len(b) for b in td.bags) <= width_bound(chain_kb)
    )
    report, failures, _ = corpus
    _report(8, "tree decompositions validate", golden_ok and failures["td"] == 0,
            f"golden width {td.width}, corpus violations {failures['td']}, "
            f"{report.complete_traces} complete traces")


def test_criterion_9_prefix_and_path_invariants(corpus, chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    z0, _ = chain_nulls(chain_derivation)
    from chasegraph.reduction import ReductionTrace

    golden_trace = ReductionTrace(g, (TrStep(2, 1, 3, z0), ArStep(1, 3), CrStep(2, 3, 4, 2)))
    golden_ok = (
        check_prefix_invariants(golden_trace).ok
        and all(not check_generative_paths(gr) for gr in golden_trace.graphs)
    )
    failures = corpus[1]
    _report(9, "prefix and generative-path invariants",
            golden_ok and failures["prefix"] == 0 and failures["path"] == 0,
            f"corpus prefix/path violations {failures['prefix']}/{failures['path']}")


def test_criterion_10_entailment(join_kb, chain_kb):
    from chasegraph.classify import entails

    start = time.time()
    q_chain = BooleanQuery(frozenset({Atom("t", (X, Y))}))
    chain_res = entails(chain_kb, q_chain, 4)
    q_join = BooleanQuery(frozenset({Atom("q", (X, Y, Variable("Zq")))}))
    join_res = entails(join_kb, q_join, 1)
    levels = chase_levels(join_kb.database, join_kb.rules, 4)
    monotone = all(lo <= hi for lo, hi in zip(levels, levels[1:]))
    elapsed = time.time() - start
    ok = (
        chain_res.entailed and chain_res.at_depth <= 4
        and join_res.entailed and join_res.at_depth == 1
        and monotone
        and elapsed < 10.0
    )
    _report(10, "bounded entailment and chase monotonicity", ok,
            f"{elapsed:.1f}s, chain at depth {chain_res.at_depth}")
