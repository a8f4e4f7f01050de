import pytest

from chasegraph.chase import Derivation
from chasegraph.derivgraph import build_derivation_graph
from chasegraph.errors import NotCycleFreeError
from chasegraph.model import Atom, Constant, Instance, KnowledgeBase, Rule, Substitution
from chasegraph.reduction import reduce_graph
from chasegraph.treedecomp import (
    TreeDecomposition,
    extract_tree_decomposition,
    validate_tree_decomposition,
    width_bound,
)

from conftest import A, B, X, Y, chain_nulls


def test_extraction_from_reduced_golden_graph(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    trace = reduce_graph(g, "cr-only")
    td = extract_tree_decomposition(trace.final)
    z0, z1 = chain_nulls(chain_derivation)
    assert td.bags == (
        frozenset({A, B}),
        frozenset({A, B, z0}),
        frozenset({A, B, z0, z1}),
        frozenset({A, B, z0, z1}),
        frozenset({A, B, z0, z1}),
    )
    assert td.width == 3
    assert td.is_tree()
    assert validate_tree_decomposition(td, chain_derivation.final)


def test_extraction_requires_cycle_free(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    with pytest.raises(NotCycleFreeError):
        extract_tree_decomposition(g)


def test_extraction_single_node(chain_kb):
    g = build_derivation_graph(Derivation(chain_kb.database), chain_kb)
    td = extract_tree_decomposition(g)
    assert len(td.bags) == 1
    assert td.width == len(chain_kb.database.terms()) - 1
    assert validate_tree_decomposition(td, chain_kb.database)


def test_forest_components_get_linked():
    # two unrelated facts fed through independent rules give a forest
    mk1 = Rule("m1", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X, Y))}))
    mk2 = Rule("m2", frozenset({Atom("r", (X,))}), frozenset({Atom("s", (X, Y))}))
    kb = KnowledgeBase(Instance({Atom("p", (A,)), Atom("r", (B,))}), (mk1, mk2))
    d = Derivation(kb.database)
    d = d.extend(mk1, Substitution({X: A}))
    d = d.extend(mk2, Substitution({X: B}))
    g = build_derivation_graph(d, kb)
    trace = reduce_graph(g, "full")  # drops the two empty-labeled arcs or keeps them
    td = extract_tree_decomposition(trace.final)
    assert td.is_tree()
    assert validate_tree_decomposition(td, d.final)


def test_validation_fails_without_atom_coverage(chain_kb, chain_derivation):
    z0, z1 = chain_nulls(chain_derivation)
    # every term is covered, but no bag holds {z0, z1} together, so the
    # atoms over both nulls fit nowhere
    bags = (frozenset({A, B}), frozenset({A, B, z0}), frozenset({A, B, z1}))
    pruned = TreeDecomposition(bags, frozenset({(0, 1), (1, 2)}), 0)
    assert not validate_tree_decomposition(pruned, chain_derivation.final)


def test_single_bag_covers_everything(chain_kb, chain_derivation):
    inst = chain_derivation.final
    td = TreeDecomposition((inst.terms(),), frozenset(), 0)
    assert validate_tree_decomposition(td, inst)


def test_disconnected_occurrence_fails():
    n = Constant("n")
    bags = (frozenset({A, n}), frozenset({A}), frozenset({A, n}))
    td = TreeDecomposition(bags, frozenset({(0, 1), (1, 2)}), 0)
    assert not validate_tree_decomposition(td, Instance({Atom("p", (A, n))}))


def test_width_bounds(chain_kb, join_kb):
    assert width_bound(chain_kb) == 5  # max(2, 3) + 2
    assert width_bound(join_kb) == 8  # max(2, 6) + 2
    assert (chain_kb.width_bound, join_kb.width_bound) == (5, 8)
    empty_rules = KnowledgeBase(
        Instance({Atom("p", (A, B)), Atom("p", (B, Constant("c")))}), ()
    )
    assert width_bound(empty_rules) == 6  # m terms + m constants, m = 3


def test_extracted_bags_respect_width_bound(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    trace = reduce_graph(g, "cr-only")
    td = extract_tree_decomposition(trace.final)
    assert max(len(b) for b in td.bags) <= width_bound(chain_kb)


def test_extraction_invents_no_terms(chain_kb, chain_derivation):
    g = build_derivation_graph(chain_derivation, chain_kb)
    trace = reduce_graph(g, "cr-only")
    td = extract_tree_decomposition(trace.final)
    final = trace.final
    assert frozenset().union(*td.bags) == \
        frozenset().union(*(final.node_terms(i) for i in final.nodes))
