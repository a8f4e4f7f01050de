import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from chasegraph.chase import DerivationStep, Trigger, derivation_key, enumerate_derivations
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
    atom_key,
    atom_list_str,
    atom_set_str,
    frontier_atoms,
    term_key,
    term_set_str,
)

from conftest import A, B, O, U, V, W, X, Y, Z


def test_term_kinds_are_disjoint_and_ordered():
    c, v, n = Constant("x"), Variable("x"), Null(1)
    assert len({c, v, n}) == 3
    assert term_key(c) < term_key(v) < term_key(n)
    assert str(n) == "_:n1"
    assert c != v and {c: 1}.get(v) is None and Atom("p", (c,)) != Atom("p", (v,))
    assert Constant("1") != Null(1) != Variable("1")


def test_terms_and_atoms_are_laid_out_as_tuples():
    # a term equals the plain tuple of its fields, so no container may hold
    # both key tuples and terms; the engine's key functions return plain
    # tuples. json.dumps would print a term as a list: the pinned CLI and
    # verdict digests (test_cli, test_classify) show that none reaches it
    assert (Constant("a"), Variable("X"), Null(3)) == ((0, "a"), (1, "X"), (2, 3))
    assert Atom("p", (A,)) == ("p", ((0, "a"),))
    assert type(term_key(Null(3))) is tuple and term_key(Null(3)) == (2, 3)
    assert atom_key(Atom("p", (A, Null(3)))) == ("p", 2, ((0, "a"), (2, 3)))
    assert all(type(k) is tuple for k in atom_key(Atom("p", (A, Null(3))))[2])
    assert len(X) == 2 and list(Null(3)) == [2, 3] and Atom("p", (A,)).arity == 1


def test_atom_key_orders_by_arity_before_arguments():
    short, long = Atom("p", (B,)), Atom("p", (A, Constant("c")))
    assert sorted([long, short], key=atom_key) == [short, long]
    assert sorted([short, long]) == [long, short]  # tuple order is not atom_key order
    assert atom_set_str([long, short]) == "{p(b), p(a,c)}"
    assert atom_list_str([long, short]) == "p(b), p(a,c)"


def test_constructors_repr_and_str():
    assert Null(ordinal=3) == Null(3) and Null(ordinal=3).ordinal == 3
    assert Constant(name="a") == A and A.name == "a" and Variable(name="X").name == "X"
    assert Atom(pred="p", args=(A, X)) == Atom("p", (A, X))
    a = Atom("p", (A, X, Null(3)))
    assert a.pred == "p" and a.args == (A, X, Null(3))
    assert [repr(t) for t in a.args] == ["Constant(name='a')", "Variable(name='X')",
                                         "Null(ordinal=3)"]
    assert repr(a) == ("Atom(pred='p', args=(Constant(name='a'), Variable(name='X'), "
                       "Null(ordinal=3)))")
    assert str(a) == "p(a,X,_:n3)" and [str(t) for t in a.args] == ["a", "X", "_:n3"]
    assert term_set_str([Null(10), Null(9), X, A]) == "{a,X,_:n9,_:n10}"


def test_terms_and_atoms_survive_copy_and_pickle():
    a = Atom("p", (A, X, Null(3)))
    for t in (*a.args, a):
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and type(twin) is type(t) and repr(twin) == repr(t)


def test_steps_and_triggers_are_named_tuples(join_kb):
    d = next(d for d in enumerate_derivations(join_kb.database, join_kb.rules, 1) if len(d))
    step = d.steps[0]
    assert type(step) is DerivationStep and type(step.trigger) is Trigger
    assert step == (step.rule, step.trigger, step.new_atoms)
    assert step.trigger == (step.rule.rid, step.trigger.hom, step.trigger.extension)


def test_derivation_keys_hold_only_plain_tuples_str_and_int(join_kb):
    # repr(derivation_key(d)) is the benchmark's fingerprint and certificate
    # digest: a term class in it would change every pinned digest
    def plain(x) -> bool:
        return type(x) in (str, int) or (type(x) is tuple and all(map(plain, x)))

    keys = [derivation_key(d)
            for d in enumerate_derivations(join_kb.database, join_kb.rules, 4)]
    assert len(keys) == 336 and all(map(plain, keys))
    assert all("name=" not in repr(k) and "ordinal=" not in repr(k) for k in keys)


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


@given(st.lists(terms, max_size=12))
def test_term_tuple_order_is_term_key_order(ts):
    assert sorted(ts) == sorted(ts, key=term_key)


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
    n = Null(1)
    inst, twin = Instance({Atom("p", (A, n))}), Instance({Atom("p", (A, n))})
    assert inst.terms() is inst.terms() == {A, n}
    assert inst == twin and hash(inst) == hash(twin)
    assert Instance._of(inst.atoms).terms() == inst.terms()
