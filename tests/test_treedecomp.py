import pytest

from chasegraph.chase import Derivation
from chasegraph.derivgraph import build_derivation_graph
from chasegraph.errors import NotCycleFreeError
from chasegraph.model import Atom, Constant, Instance, KnowledgeBase, Rule, Substitution
from chasegraph.reduction import apply_ar, reduce_graph
from chasegraph.treedecomp import (
    TreeDecomposition,
    extract_tree_decomposition,
    validate_tree_decomposition,
    width_bound,
)

from conftest import A, B, X, Y, chain_nulls
from oracles import extract_tree_decomposition_oracle, validate_tree_decomposition_oracle


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


C = Constant("c")
ABC = Instance({Atom("p", (A, B)), Atom("q", (C,))})


def test_uncovered_term_fails():
    td = TreeDecomposition((frozenset({A, B}),), frozenset(), 0)
    assert td.is_tree()
    assert not validate_tree_decomposition(td, ABC)
    assert not validate_tree_decomposition_oracle(td, ABC)


@pytest.mark.parametrize("td", [
    # two edges for three bags, but one names bag 7 and bag 2 is on none
    TreeDecomposition((frozenset({A}), frozenset({A, B}), frozenset({C})),
                      frozenset({(0, 1), (0, 7)}), 0),
    # one bag and no edges, rooted at a bag that does not exist
    TreeDecomposition((frozenset({A, B, C}),), frozenset(), 5),
    TreeDecomposition((frozenset({A, B}), frozenset({C})), frozenset({(0, 1)}), -1),
    # two bags joined by a self-loop instead of an edge
    TreeDecomposition((frozenset({A, B}), frozenset({C})), frozenset({(1, 1)}), 0),
])
def test_edges_and_root_must_name_bags(td):
    assert not td.is_tree()
    assert not validate_tree_decomposition(td, ABC)
    assert not validate_tree_decomposition_oracle(td, ABC)


def test_swapped_leaf_bags_disconnect_a_term():
    # on the path 0-1-2-3, swapping the bags of the leaves 0 and 3 keeps a
    # tree but leaves B's bags {0, 2} apart
    bags = (frozenset({A}), frozenset({A}), frozenset({A, B}), frozenset({B, C}))
    edges = frozenset({(0, 1), (1, 2), (2, 3)})
    swapped = bags[3:] + bags[1:3] + bags[:1]
    for root in range(4):
        td = TreeDecomposition(bags, edges, root)
        other = TreeDecomposition(swapped, edges, root)
        assert other.is_tree()
        assert validate_tree_decomposition(td, ABC) == \
            validate_tree_decomposition_oracle(td, ABC) is True
        assert validate_tree_decomposition(other, ABC) == \
            validate_tree_decomposition_oracle(other, ABC) is False


def test_extraction_links_three_trees():
    # X1, X2 and X3 each read a database constant only, so every arc is
    # empty; the full reduction is the graph itself (no convergence point),
    # and dropping the arcs by hand leaves one tree per node
    mk = [Rule(f"m{i}", frozenset({Atom(f"p{i}", (X,))}), frozenset({Atom(f"q{i}", (X, Y))}))
          for i in range(3)]
    kb = KnowledgeBase(Instance({Atom(f"p{i}", (c,)) for i, c in enumerate((A, B, C))}),
                       tuple(mk))
    d = Derivation(kb.database)
    for r, c in zip(mk, (A, B, C)):
        d = d.extend(r, Substitution({X: c}))
    g = build_derivation_graph(d, kb)
    assert all(not lbl for lbl in g.arcs.values())
    forest = g
    for (i, j) in sorted(g.arcs)[1:]:
        forest = apply_ar(forest, i, j)
    roots = [n for n in forest.nodes if not forest.in_degree(n)]
    assert len(roots) == 3
    td = extract_tree_decomposition(forest)
    assert td == extract_tree_decomposition_oracle(forest)
    assert td.is_tree() and td.root == 0
    assert validate_tree_decomposition(td, d.final) == \
        validate_tree_decomposition_oracle(td, d.final) is True


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
