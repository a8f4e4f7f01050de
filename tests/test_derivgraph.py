import subprocess
import sys

import pytest

from chasegraph.chase import Derivation, enumerate_derivations
from chasegraph.derivgraph import (
    DerivationGraph,
    build_derivation_graph,
    check_decomposition_properties,
    check_generative_paths,
    node_frontier,
    x_generative_node,
)
from chasegraph.errors import UnknownTermError
from chasegraph.model import Atom, Instance, KnowledgeBase, Null, Rule, Substitution

from conftest import A, B, X, Y, Z, chain_nulls, rename_derivation_nulls, subprocess_env
from oracles import check_decomposition_properties_oracle


def test_chain_graph_matches_golden_structure(chain_kb, chain_derivation):
    d = chain_derivation
    g = build_derivation_graph(d, chain_kb)
    z0, z1 = chain_nulls(d)

    assert len(g) == 5
    assert g.at[0] == chain_kb.database.atoms
    assert g.at[1] == {Atom("q", (B, z0))}
    assert g.at[2] == {Atom("r", (B, z0)), Atom("r", (z0, z1))}
    assert g.at[3] == {Atom("s", (z0, z1))}
    assert g.at[4] == {Atom("t", (z0, z1))}

    assert g.arcs == {
        (0, 1): frozenset(),
        (1, 2): frozenset({z0}),
        (1, 3): frozenset({z0}),
        (2, 3): frozenset({z0, z1}),
        (2, 4): frozenset({z0}),
        (3, 4): frozenset({z1}),
    }
    assert g.constants == {A, B}
    assert g.node_terms(3) == {z0, z1, A, B}


def test_length_zero_graph(chain_kb):
    g = build_derivation_graph(Derivation(chain_kb.database), chain_kb)
    assert len(g) == 1 and not g.arcs


def test_initial_arc_label_empty_when_frontier_maps_to_constants(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    assert g.label(0, 1) == frozenset()


def test_node_frontiers(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    z0, z1 = chain_nulls(chain_derivation)
    assert node_frontier(g, 0) == frozenset()
    assert node_frontier(g, 1) == frozenset()  # frontier image {b} is constant
    assert node_frontier(g, 3) == {z0, z1}
    assert node_frontier(g, 4) == {z0, z1}


def test_frontier_equals_union_of_incoming_labels(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    for n in g.nodes:
        parents = g.parents(n)
        if parents:
            union = frozenset().union(*(g.label(i, n) for i in parents))
            assert node_frontier(g, n) == union


def test_labels_within_source_terms_and_forward_arcs(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    for (i, j), lbl in g.arcs.items():
        assert i < j
        assert lbl <= g.node_terms(i)


def test_constructor_rejects_arcs_that_do_not_point_forward(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    assert DerivationGraph(g.facts, g.arcs).arcs == g.arcs
    for bad in ((3, 1), (2, 2), (4, 5), (-1, 2)):
        with pytest.raises(ValueError, match="violates forward orientation"):
            DerivationGraph(g.facts, {**g.arcs, bad: frozenset()})
    # terms(X1) holds z0 but not z1, which (X2, X3) carries
    with pytest.raises(ValueError, match=r"^label of \(1,3\) escapes terms\(X1\)$"):
        DerivationGraph(g.facts, {**g.arcs, (1, 3): g.arcs[(2, 3)]})


def test_generative_nodes(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    z0, z1 = chain_nulls(chain_derivation)
    assert x_generative_node(g, z0) == 1
    assert x_generative_node(g, z1) == 2
    with pytest.raises(UnknownTermError):
        x_generative_node(g, Null(123456789))


def test_generative_node_of_initial_null():
    n = Null(777_001)
    grow = Rule("grow", frozenset({Atom("e", (X, Y))}), frozenset({Atom("e", (Y, Z))}))
    start = Instance({Atom("e", (A, n))})
    kb = KnowledgeBase(Instance(), (grow,))
    d = Derivation(start).extend(grow, Substitution({X: A, Y: n}))
    g = build_derivation_graph(d, kb)
    assert x_generative_node(g, n) == 0


def test_decomposition_properties_on_golden_graph(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    report = check_decomposition_properties(g, chain_derivation.final, chain_kb)
    assert report.ok, report.failures
    assert report.bound == 5
    assert all(len(g.node_terms(i)) <= 4 for i in g.nodes)


def test_decomposition_properties_single_node(chain_kb):
    d = Derivation(chain_kb.database)
    g = build_derivation_graph(d, chain_kb)
    assert check_decomposition_properties(g, d.final, chain_kb).ok


def test_generative_path_property(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    assert check_generative_paths(g) == []


def test_graph_equivariant_under_null_renaming(chain_kb, chain_derivation):
    d = chain_derivation
    nulls = sorted(d.final.nulls(), key=lambda n: n.ordinal)
    mapping = {n: Null(20_000_000 + 3 * i) for i, n in enumerate(nulls)}
    renamed = rename_derivation_nulls(d, mapping)
    g = build_derivation_graph(d, chain_kb)
    g2 = build_derivation_graph(renamed, chain_kb)
    ren = Substitution(dict(mapping))
    assert [ren.apply(g.at[i]) for i in g.nodes] == [frozenset(g2.at[i]) for i in g2.nodes]
    assert set(g.arcs) == set(g2.arcs)
    for (i, j), lbl in g.arcs.items():
        assert g2.arcs[(i, j)] == frozenset(ren.apply_term(t) for t in lbl)


def test_empty_decoration_for_redundant_step():
    copy = Rule("copy", frozenset({Atom("e", (X, Y))}), frozenset({Atom("e", (X, Y))}))
    kb = KnowledgeBase(Instance({Atom("e", (A, B))}), (copy,))
    d = Derivation(kb.database).extend(copy, Substitution({X: A, Y: B}))
    g = build_derivation_graph(d, kb)
    assert g.at[1] == frozenset()
    assert g.arcs == {(0, 1): frozenset()}
    assert check_decomposition_properties(g, d.final, kb).ok


def test_two_frontier_atoms_into_one_node_union_labels():
    # both body atoms of the reader match atoms of the same producer step,
    # so a single arc carries the union of their frontier contributions
    mk = Rule("mk", frozenset({Atom("p", (X,))}),
              frozenset({Atom("e", (X, Y)), Atom("f", (X, Z))}))
    rd = Rule("rd", frozenset({Atom("e", (X, Y)), Atom("f", (X, Z))}),
              frozenset({Atom("g", (Y, Z))}))
    kb = KnowledgeBase(Instance({Atom("p", (A,))}), (mk, rd))
    d = Derivation(kb.database).extend(mk, Substitution({X: A}))
    e1 = d.steps[0].trigger.extension
    d = d.extend(rd, Substitution({X: A, Y: e1[Y], Z: e1[Z]}))
    g = build_derivation_graph(d, kb)
    assert set(g.arcs) == {(0, 1), (1, 2)}
    assert g.label(1, 2) == {e1[Y], e1[Z]}
    assert node_frontier(g, 2) == {e1[Y], e1[Z]}


def test_rederived_atom_belongs_to_first_creator():
    # a second step re-deriving an old atom points its arc at the creator node
    mk = Rule("mk", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X,))}))
    use = Rule("use", frozenset({Atom("q", (X,))}), frozenset({Atom("q", (X,)), Atom("w", (X, Y))}))
    kb = KnowledgeBase(Instance({Atom("p", (A,))}), (mk, use))
    d = Derivation(kb.database)
    d = d.extend(mk, Substitution({X: A}))
    d = d.extend(use, Substitution({X: A}))
    g = build_derivation_graph(d, kb)
    assert g.at[2] != frozenset()  # the w-atom is new, q(a) is not
    assert (1, 2) in g.arcs


def test_all_enumerated_graphs_satisfy_invariants(join_kb):
    for d in enumerate_derivations(join_kb.database, join_kb.rules, 3):
        g = build_derivation_graph(d, join_kb)
        report = check_decomposition_properties(g, d.final, join_kb)
        assert report.ok, report.failures
        assert check_generative_paths(g) == []


# one graph checked against a final instance with four atoms it lacks
_COVER_FAILURES = """
from chasegraph.chase import enumerate_derivations
from chasegraph.derivgraph import build_derivation_graph, check_decomposition_properties
from chasegraph.docparse import parse_document
from chasegraph.model import Atom, Constant

kb = parse_document("p(a,b). r1: p(X,Y) -> q(Y,Z).").knowledge_base()
*_, d = enumerate_derivations(kb.database, kb.rules, 1)
final = d.final | [Atom("e", (Constant(f"u{i}"),)) for i in range(1, 5)]
print(*check_decomposition_properties(build_derivation_graph(d, kb), final, kb).failures,
      sep="\\n")
"""


def test_cover_failure_messages_do_not_depend_on_the_hash_seed():
    expected = ("term cover: {u1,u2,u3,u4} mismatched\n"
                "atom cover: missing {e(u1), e(u2), e(u3), e(u4)}\n")
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _COVER_FAILURES], capture_output=True,
                              text=True, env=subprocess_env(PYTHONHASHSEED=seed))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, ""), seed


def test_cover_failure_messages_match_the_oracle(chain_kb, chain_derivation):
    d = chain_derivation
    g = build_derivation_graph(d, chain_kb)
    final = d.final | [Atom("e", (A, B)), Atom("e", (B, Null(10**6)))]
    report = check_decomposition_properties(g, final, chain_kb)
    assert report.failures == (
        f"term cover: {{{Null(10**6)}}} mismatched",
        f"atom cover: missing {{e(a,b), e(b,{Null(10**6)})}}",
    )
    assert check_decomposition_properties_oracle(g, final, chain_kb).failures == report.failures
