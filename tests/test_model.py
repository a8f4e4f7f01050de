import pytest
from hypothesis import given, strategies as st

from chasegraph.errors import UnboundVariableError
from chasegraph.model import (
    Atom,
    Constant,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Substitution,
    Variable,
    fresh_null,
    frontier_atoms,
    term_key,
)

from conftest import A, B, O, U, V, W, X, Y, Z


def test_term_kinds_are_disjoint_and_ordered():
    c, v, n = Constant("x"), Variable("x"), Null(1)
    assert len({c, v, n}) == 3
    assert term_key(c) < term_key(v) < term_key(n)
    assert str(n) == "_:n1"


def test_fresh_nulls_are_unique():
    batch = [fresh_null() for _ in range(100)]
    assert len(set(batch)) == 100


def test_instance_rejects_variables():
    with pytest.raises(ValueError):
        Instance({Atom("p", (X,))})


def test_instance_set_semantics():
    inst = Instance({Atom("p", (A,)), Atom("p", (A,))})
    assert len(inst) == 1


def test_rule_rejects_empty_parts_and_nulls():
    with pytest.raises(ValueError):
        Rule("bad", frozenset(), frozenset({Atom("p", (X,))}))
    with pytest.raises(ValueError):
        Rule("bad", frozenset({Atom("p", (X,))}), frozenset())
    with pytest.raises(ValueError):
        Rule("bad", frozenset({Atom("p", (Null(7),))}), frozenset({Atom("q", (X,))}))


def test_frontier_of_join_rule(join_kb):
    # the q/s join: all four body variables shared with the head
    r4 = join_kb.rule_by_id("r4")
    assert r4.frontier == {X, Y, W, U}
    assert r4.existentials == {O}


def test_frontier_empty_when_head_purely_existential():
    r = Rule("r", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (Y,))}))
    assert r.frontier == frozenset()
    assert frontier_atoms(r) == frozenset()


def test_frontier_of_chain_closure_rule(chain_kb):
    r3 = chain_kb.rule_by_id("r3")
    assert r3.frontier == {X, Y}


def test_frontier_atoms_body_side(chain_kb):
    r3 = chain_kb.rule_by_id("r3")
    assert frontier_atoms(r3) == {Atom("r", (X, Y)), Atom("q", (Z, X))}
    r1 = chain_kb.rule_by_id("r1")
    assert frontier_atoms(r1) == {Atom("p", (X, Y))}


def test_sorted_frontier_atoms_keep_str_order(join_kb, chain_kb):
    # a derivation graph inserts its arcs in this order
    r3 = chain_kb.rule_by_id("r3")
    assert r3.sorted_frontier_atoms == (Atom("q", (Z, X)), Atom("r", (X, Y)))
    for r in join_kb.rules + chain_kb.rules:
        assert r.sorted_frontier_atoms == tuple(sorted(frontier_atoms(r), key=str))


def test_apply_substitution_examples():
    assert Substitution({X: A}).apply({Atom("p", (X,))}) == {Atom("p", (A,))}
    collapsed = Substitution({X: A, Y: A}).apply({Atom("p", (X, Y)), Atom("p", (Y, X))})
    assert collapsed == {Atom("p", (A, A))}


def test_apply_substitution_join_body(join_kb):
    # body of the join rule under the recorded match of the non-greedy run
    n = [Null(1000 + i) for i in range(4)]
    h4 = Substitution({X: A, Y: n[0], Z: n[1], W: B, U: n[2], V: n[3]})
    body = join_kb.rule_by_id("r4").body
    assert h4.apply(body) == {
        Atom("q", (A, n[0], n[1])), Atom("s", (B, n[2], n[3])),
    }


def test_apply_substitution_unbound_variable():
    with pytest.raises(UnboundVariableError):
        Substitution({X: A}).apply({Atom("p", (X, Y))})


def test_substitution_rejects_constant_remap():
    with pytest.raises(ValueError):
        Substitution({A: B})


def test_substitution_drops_constants_fixed_to_themselves():
    s = Substitution([(X, B), (A, A), (Y, A)])
    assert s.mapping == {X: B, Y: A} and list(s.mapping) == [X, Y]
    with pytest.raises(ValueError, match="constant b cannot be remapped to a"):
        Substitution({A: A, B: A, X: A})


names = st.sampled_from("abc")
terms = st.one_of(
    st.builds(Constant, names),
    st.builds(Variable, st.sampled_from("XYZ")),
    st.builds(Null, st.integers(min_value=1, max_value=5)),
)
atoms = st.builds(
    lambda p, args: Atom(p, tuple(args)),
    st.sampled_from("pqr"),
    st.lists(terms, min_size=1, max_size=3),
)


@given(st.sets(atoms, max_size=6))
def test_identity_substitution_is_identity(atom_set):
    identity = Substitution({t: t for a in atom_set for t in a.args})
    assert identity.apply(atom_set) == frozenset(atom_set)


@given(st.sets(atoms, min_size=1, max_size=4), st.sets(atoms, min_size=1, max_size=4))
def test_frontier_contained_in_both_sides(body, head):
    try:
        r = Rule("r", frozenset(body), frozenset(head))
    except ValueError:
        return  # nulls in a generated atom
    assert r.frontier <= r.body_vars
    assert r.frontier <= r.head_vars
    assert r.frontier | r.existentials == r.head_vars
    assert not r.frontier & r.existentials


def test_kb_constants_include_rule_constants():
    r = Rule("r", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X, Constant("c")))}))
    kb = KnowledgeBase(Instance({Atom("p", (A,))}), (r,))
    assert kb.constants == {A, Constant("c")}


def test_kb_constants_are_computed_once_without_changing_identity():
    r = Rule("r", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X, Constant("c")))}))
    kb = KnowledgeBase(Instance({Atom("p", (A,))}), (r,))
    twin = KnowledgeBase(Instance({Atom("p", (A,))}), (r,))
    before = hash(kb)
    assert kb.constants is kb.constants
    assert kb == twin and hash(kb) == hash(twin) == before
    assert kb != KnowledgeBase(Instance({Atom("p", (B,))}), (r,))


def test_instance_terms_are_computed_once_without_changing_identity():
    n = fresh_null()
    inst, twin = Instance({Atom("p", (A, n))}), Instance({Atom("p", (A, n))})
    assert inst.terms() is inst.terms() == {A, n}
    assert inst == twin and hash(inst) == hash(twin)
    assert Instance._of(inst.atoms).terms() == inst.terms()
