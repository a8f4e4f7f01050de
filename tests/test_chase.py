import itertools
import random
from functools import lru_cache
from pathlib import Path

import pytest

from chasegraph import chase
from chasegraph.chase import (
    Derivation,
    DerivationStep,
    Trigger,
    apply_rule,
    chase_k,
    chase_levels,
    derivation_key,
    enumerate_derivations,
    one_step,
    triggers,
)
from chasegraph.docparse import parse_document
from chasegraph.errors import NotTriggeredError, ResourceLimitError
from chasegraph.homs import hom_exists, isomorphic_mod_nulls
from chasegraph.model import Atom, Constant, Instance, Null, Rule, Substitution, Variable, nulls_of
from chasegraph.randkb import random_kb

from conftest import A, B, X, Y, Z, trace_key
from oracles import enumerate_oracle

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_triggers_on_database(join_kb):
    db = join_kb.database
    assert triggers(db, join_kb.rule_by_id("r1")) == [Substitution({X: A})]
    assert triggers(db, join_kb.rule_by_id("r4")) == []
    assert triggers(db, join_kb.rule_by_id("r3")) == [Substitution({X: A, Y: B})]


def test_apply_rule_creates_new_nulls(join_kb):
    db = join_kb.database
    result, trig = apply_rule(db, join_kb.rule_by_id("r1"), Substitution({X: A}))
    new = result - db
    assert len(new) == 1
    (atom,) = new
    assert atom.pred == "q" and atom.args[0] == A
    assert len(nulls_of(new)) == 2
    assert trig.hom == Substitution({X: A})


def test_new_nulls_follow_sorted_existential_order():
    # derivation ids depend on it: triggers are ordered by their images' ordinals
    w = Variable("W")
    r = Rule("r", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X, Z, w, Y))}))
    _, trig = apply_rule(Instance({Atom("p", (A,))}), r, Substitution({X: A}))
    ext = trig.extension
    assert ext[w].ordinal < ext[Y].ordinal < ext[Z].ordinal
    assert ext.restrict({X}) == trig.hom


def test_an_enumeration_numbers_its_nulls_in_dfs_order(join_kb):
    # one run draws each ordinal once, from 1 over a ground database, in the
    # order it applies triggers, which is the order it yields derivations
    for _ in range(2):
        drawn = [d.steps[-1].trigger.extension[z]
                 for d in enumerate_derivations(join_kb.database, join_kb.rules, 3) if d.steps
                 for z in d.steps[-1].rule.sorted_existentials]
        assert drawn == [Null(k) for k in range(1, len(drawn) + 1)]


def test_a_run_numbers_its_nulls_on_from_its_instance(join_kb):
    start = Instance({Atom("p", (A,)), Atom("r", (Null(7),))})
    d = list(enumerate_derivations(start, join_kb.rules, 1))[1]
    for final in (d.final, one_step(start, join_kb.rules)):
        assert min(final.nulls() - start.nulls()) == Null(8)


def test_apply_rule_and_extend_number_on_from_their_instance(join_kb):
    r1, fire = join_kb.rule_by_id("r1"), Substitution({X: A})
    for d in enumerate_derivations(join_kb.database, join_kb.rules, 3):
        top = max((n.ordinal for n in d.final.nulls()), default=0)
        result, trig = apply_rule(d.final, r1, fire)
        assert sorted(result.nulls() - d.final.nulls()) == [Null(top + 1), Null(top + 2)]
        longer = d.extend(r1, fire)
        longer.validate()  # no new null occurs earlier
        assert longer.final == result and longer.steps[-1].trigger == trig


def test_two_chase_runs_give_equal_instances(join_kb, chain_kb):
    for kb in (join_kb, chain_kb):
        assert chase_k(kb.database, kb.rules, 3) == chase_k(kb.database, kb.rules, 3)
        levels = chase_levels(kb.database, kb.rules, 3)
        for before, after in zip(levels, levels[1:]):
            top = max((n.ordinal for n in before.nulls()), default=0)
            assert min(after.nulls() - before.nulls()).ordinal == top + 1


def test_indices_outside_the_derivation_are_rejected(nongreedy_join_derivation):
    d = nongreedy_join_derivation
    assert d.instance_at(0) is d.initial and d.instance_at(len(d)) == d.final
    assert d.new_atoms(1) == d.steps[0].new_atoms and d.new_atoms(4) == d.steps[3].new_atoms
    for i in (0, -1, 5, 99):
        with pytest.raises(IndexError, match="derivation of length 4"):
            d.new_atoms(i)
    for i in (-1, 5, 99):
        with pytest.raises(IndexError, match="derivation of length 4"):
            d.instance_at(i)


def test_apply_rule_not_triggered(join_kb):
    r1 = join_kb.rule_by_id("r1")
    for image in (B, Variable("V")):
        with pytest.raises(NotTriggeredError):
            apply_rule(join_kb.database, r1, Substitution({X: image}))


def test_extend_rejects_a_non_trigger(join_kb):
    r1 = join_kb.rule_by_id("r1")
    with pytest.raises(NotTriggeredError):
        Derivation(join_kb.database).extend(r1, Substitution({X: B}))


@pytest.mark.parametrize("dedup", ["none", "traces"])
def test_a_found_match_outside_the_instance_is_rejected(join_kb, dedup, monkeypatch):
    # the search also returns a copy of its first match sent to a constant
    # the instance lacks; the check at discovery must refuse it
    real = chase._search
    nowhere = Constant("nowhere")

    def search(atoms, index, seed, limit):
        found = real(atoms, index, seed, limit)
        return found + [Substitution({v: nowhere for v in h.mapping}) for h in found[:1]]

    monkeypatch.setattr(chase, "_search", search)
    with pytest.raises(NotTriggeredError):
        for _ in enumerate_derivations(join_kb.database, join_kb.rules, 2, dedup=dedup):
            pass


@pytest.mark.parametrize("name,depth,checks,applications", [
    ("join", 6, 3239, 24976), ("chain", 7, 1449, 8736),
])
def test_each_found_trigger_is_checked_once(name, depth, checks, applications, monkeypatch):
    # one check per trigger the enumeration finds, however often it is applied
    kb = _sample_kb(name)
    calls = {"_check": 0, "_apply": 0}
    for fn in calls:
        def counted(*args, fn=fn, real=getattr(chase, fn)):
            calls[fn] += 1
            return real(*args)
        monkeypatch.setattr(chase, fn, counted)
    count = sum(1 for _ in enumerate_derivations(kb.database, kb.rules, depth))
    assert calls == {"_check": checks, "_apply": applications}
    assert count == applications + 1


def test_apply_rule_set_union_when_head_present():
    r = Rule("copy", frozenset({Atom("e", (X, Y))}), frozenset({Atom("f", (X, Y))}))
    inst = Instance({Atom("e", (A, B)), Atom("f", (A, B))})
    result, _ = apply_rule(inst, r, Substitution({X: A, Y: B}))
    assert result == inst


def test_apply_rule_chain(chain_kb):
    result, _ = apply_rule(
        chain_kb.database, chain_kb.rule_by_id("r1"), Substitution({X: A, Y: B})
    )
    new = result - chain_kb.database
    (atom,) = new
    assert atom.pred == "q" and atom.args[0] == B
    assert len(nulls_of(new)) == 1


def test_one_step_census(join_kb):
    # triggers: r1 on p(a), r2 on r(b), r3 on (p(a), r(b)); r4 has none
    stepped = one_step(join_kb.database, join_kb.rules)
    new = stepped - join_kb.database
    assert len(new) == 4
    assert len(nulls_of(new)) == 8
    preds = sorted(a.pred for a in new)
    assert preds == ["q", "q", "s", "s"]


def test_one_step_on_empty_instance(join_kb):
    assert one_step(Instance(), join_kb.rules) == Instance()


def test_chase_zero_is_identity(join_kb):
    assert chase_k(join_kb.database, join_kb.rules, 0) == join_kb.database


def test_chase_one_chain(chain_kb):
    level1 = chase_k(chain_kb.database, chain_kb.rules, 1)
    new = level1 - chain_kb.database
    assert len(new) == 1
    (atom,) = new
    assert atom.pred == "q"


def test_chase_monotone(join_kb):
    levels = chase_levels(join_kb.database, join_kb.rules, 4)
    for lo, hi in zip(levels, levels[1:]):
        assert lo <= hi and len(hi) > len(lo)


def test_chase_resource_limit(join_kb):
    with pytest.raises(ResourceLimitError, match="^saturation exceeded 20 atoms$") as exc:
        chase_k(join_kb.database, join_kb.rules, 4, max_atoms=20)
    assert (exc.value.budget, exc.value.limit) == ("atoms", 20)


def test_chase_two_covers_four_step_derivation(join_kb, nongreedy_join_derivation):
    level2 = chase_k(join_kb.database, join_kb.rules, 2)
    assert hom_exists(nongreedy_join_derivation.final.atoms, level2)


def test_enumerate_length_zero(join_kb):
    only = list(enumerate_derivations(join_kb.database, join_kb.rules, 0))
    assert len(only) == 1
    assert only[0].final == join_kb.database


def test_enumerate_length_one_mod_nulls(join_kb):
    ds = list(enumerate_derivations(join_kb.database, join_kb.rules, 1, dedup="mod-nulls"))
    assert len(ds) == 4  # the empty derivation plus one per triggered rule
    assert sorted(d.rule_ids() for d in ds) == [(), ("r1",), ("r2",), ("r3",)]


def test_enumerate_contains_recorded_class(join_kb, nongreedy_join_derivation):
    keys = {
        derivation_key(d)
        for d in enumerate_derivations(join_kb.database, join_kb.rules, 4)
        if len(d) == 4
    }
    assert derivation_key(nongreedy_join_derivation) in keys


def test_enumerated_derivations_validate(chain_kb):
    count = 0
    for d in enumerate_derivations(chain_kb.database, chain_kb.rules, 3):
        d.validate()
        count += 1
    assert count == 10  # 1 empty + 1 + 2 + 6 by hand over the chain rules


def test_enumerate_budget(join_kb):
    with pytest.raises(ResourceLimitError):
        list(enumerate_derivations(join_kb.database, join_kb.rules, 4, max_derivations=10))


def test_soundness_derived_instances_embed_in_chase(chain_kb):
    level3 = chase_k(chain_kb.database, chain_kb.rules, 3)
    for d in enumerate_derivations(chain_kb.database, chain_kb.rules, 3):
        assert hom_exists(d.final.atoms, level3)


def test_dedup_identifies_renamed_runs(join_kb):
    r1 = join_kb.rule_by_id("r1")
    d_a = Derivation(join_kb.database).extend(r1, Substitution({X: A}))
    d_b = Derivation(join_kb.database).extend(r1, Substitution({X: A}))
    assert derivation_key(d_a) == derivation_key(d_b)
    assert isomorphic_mod_nulls(d_a.final, d_b.final) is not None


# ---------------------------------------------------------------------------
# the incremental enumerator against the full-recompute oracle
# ---------------------------------------------------------------------------

def _stream(enum, db, rules, depth, **kwargs) -> tuple[list[tuple], bool]:
    """(derivation keys in yield order, whether the derivation budget tripped)."""
    keys = []
    try:
        for d in enum(db, rules, depth, **kwargs):
            keys.append(derivation_key(d))
    except ResourceLimitError:
        return keys, True
    return keys, False


@lru_cache(maxsize=None)
def _sample_kb(name: str):
    return parse_document((SAMPLES / f"{name}.rules").read_text()).knowledge_base()


@lru_cache(maxsize=None)
def _random_kbs(count: int = 30, budget: int = 500):
    """The first ``count`` seeded KBs with 2 to ``budget`` derivations at depth 3."""
    rng, kbs = random.Random(4011), []
    while len(kbs) < count:
        kb = random_kb(rng)
        keys, tripped = _stream(enumerate_oracle, kb.database, kb.rules, 3,
                                max_derivations=budget)
        if not tripped and len(keys) >= 2:
            kbs.append((kb, keys))
    return kbs


SAMPLE_CASES = [("join", d) for d in range(6)] + [("chain", d) for d in range(7)]


def _assert_one_per_trace(db, rules, depth, **kwargs) -> int:
    """The traces stream has pairwise distinct trace keys, and they are
    exactly the trace keys of the full stream; returns its length."""
    full = {trace_key(d) for d in enumerate_derivations(db, rules, depth, **kwargs)}
    reps = [trace_key(d) for d in enumerate_derivations(db, rules, depth, dedup="traces",
                                                        **kwargs)]
    assert len(set(reps)) == len(reps)
    assert set(reps) == full
    return len(reps)


@pytest.mark.parametrize("name,depth", SAMPLE_CASES)
def test_enumerator_matches_oracle_on_samples(name, depth):
    kb = _sample_kb(name)
    new = _stream(enumerate_derivations, kb.database, kb.rules, depth)
    assert new == _stream(enumerate_oracle, kb.database, kb.rules, depth)
    assert not new[1]


@pytest.mark.parametrize("name,depth", [c for c in SAMPLE_CASES if c[1] >= 1])
def test_mod_nulls_dedup_prunes_nothing(name, depth):
    kb = _sample_kb(name)
    old = _stream(enumerate_oracle, kb.database, kb.rules, depth, dedup="mod-nulls")
    assert old == _stream(enumerate_oracle, kb.database, kb.rules, depth, dedup="none")
    for dedup in ("none", "mod-nulls"):
        assert _stream(enumerate_derivations, kb.database, kb.rules, depth, dedup=dedup) == old


def test_enumerator_matches_oracle_on_random_kbs():
    # keys come from the oracle without dedup; its mod-nulls mode prunes nothing either
    for kb, keys in _random_kbs():
        db, rules = kb.database, kb.rules
        assert _stream(enumerate_oracle, db, rules, 3, dedup="mod-nulls") == (keys, False)
        for dedup in ("none", "mod-nulls"):
            assert _stream(enumerate_derivations, db, rules, 3, dedup=dedup) == (keys, False)


@pytest.mark.parametrize("budget", [1, 2, 10, 59, 100, 336])
def test_budget_trips_where_the_oracle_does(budget):
    kb = _sample_kb("join")
    new = _stream(enumerate_derivations, kb.database, kb.rules, 4, max_derivations=budget)
    assert new == _stream(enumerate_oracle, kb.database, kb.rules, 4, max_derivations=budget)
    assert len(new[0]) == min(budget, 336) and new[1] == (budget < 336)


def test_budget_trips_where_the_oracle_does_on_random_kbs():
    rng = random.Random(4012)
    for _ in range(40):
        kb = random_kb(rng)
        assert (_stream(enumerate_derivations, kb.database, kb.rules, 3, max_derivations=25)
                == _stream(enumerate_oracle, kb.database, kb.rules, 3, max_derivations=25))


def test_redundant_steps_match_oracle():
    # copy is redundant everywhere; grow makes fresh nulls that copy then echoes
    copy = Rule("copy", frozenset({Atom("e", (X, Y))}), frozenset({Atom("e", (X, Y))}))
    grow = Rule("grow", frozenset({Atom("e", (X, Y))}), frozenset({Atom("e", (Y, Z))}))
    swap = Rule("swap", frozenset({Atom("e", (X, Y)), Atom("e", (Y, Z))}),
                frozenset({Atom("e", (Z, X))}))
    db = Instance({Atom("e", (A, B))})
    rules = (copy, grow, swap)
    assert _stream(enumerate_derivations, db, rules, 4) == _stream(enumerate_oracle, db, rules, 4)
    _assert_one_per_trace(db, rules, 4)


def test_enumerated_chain_derivations_validate_to_depth_5():
    kb = _sample_kb("chain")
    count = 0
    for d in enumerate_derivations(kb.database, kb.rules, 5):
        d.validate()
        count += 1
    assert count == 170


@pytest.mark.parametrize("name,depth", [("join", 4), ("chain", 5)])
def test_steps_store_only_the_atoms_they_add(name, depth):
    kb = _sample_kb(name)
    for d in enumerate_derivations(kb.database, kb.rules, depth):
        assert len(d.initial) + sum(len(s.new_atoms) for s in d.steps) == len(d.final)
        assert d.final == d.instance_at(len(d)) and d.final is d.final
        d.validate()


def test_validate_rejects_altered_new_atoms():
    kb = _sample_kb("chain")
    d = next(d for d in enumerate_derivations(kb.database, kb.rules, 3) if len(d) == 3)
    step = d.steps[1]
    extra = next(iter(d.initial.atoms))
    for atoms in (step.new_atoms - {min(step.new_atoms, key=str)}, step.new_atoms | {extra},
                  frozenset()):
        bad = DerivationStep(step.rule, step.trigger, atoms)
        with pytest.raises(ValueError, match="step 2: new atoms are not the head image"):
            Derivation(d.initial, (d.steps[0], bad, d.steps[2])).validate()


def test_validate_rejects_a_new_null_that_occurs_earlier():
    kb = _sample_kb("chain")
    d = next(d for d in enumerate_derivations(kb.database, kb.rules, 2)
             if d.rule_ids() == ("r1", "r2"))
    d.validate()
    step = d.steps[1]
    old = next(iter(nulls_of(d.new_atoms(1))))  # made by step 1, read by step 2's body
    z = next(iter(step.rule.existentials))
    ext = Substitution({**step.trigger.extension.mapping, z: old})
    bad = DerivationStep(step.rule, Trigger(step.rule.rid, step.trigger.hom, ext),
                         ext.apply(step.rule.head) - d.instance_at(1).atoms)
    with pytest.raises(ValueError, match="step 2: fresh null already occurs earlier"):
        Derivation(d.initial, (d.steps[0], bad)).validate()


def test_validate_rejects_a_trigger_outside_the_instance(join_kb):
    d = Derivation(join_kb.database).extend(join_kb.rule_by_id("r1"), Substitution({X: A}))
    step = d.steps[0]
    ext = Substitution({**step.trigger.extension.mapping, X: B})
    bad = DerivationStep(step.rule, Trigger("r1", Substitution({X: B}), ext), step.new_atoms)
    with pytest.raises(ValueError, match="does not map the body"):
        Derivation(d.initial, (bad,)).validate()


@pytest.mark.parametrize("rid, hom, ext, message", [
    ("r2", {X: A}, {X: A, Y: Null(-1), Z: Null(-2)}, "step 1: trigger names rule r2"),
    ("r1", {X: A, Y: A}, {X: A, Y: A, Z: Null(-2)}, "step 1: trigger domain is not vars"),
    ("r1", {X: A}, {X: B, Y: Null(-1), Z: Null(-2)}, "step 1: extension disagrees"),
    ("r1", {X: A}, {X: A, Y: Null(-1), Z: Null(-1)}, "step 1: existential images are not"),
    ("r1", {X: A}, {X: A, Y: Null(-1), Z: B}, "step 1: existential images are not"),
], ids=["rule-name", "domain", "extension", "shared-null", "constant"])
def test_validate_rejects_a_broken_trigger(join_kb, rid, hom, ext, message):
    r1 = join_kb.rule_by_id("r1")
    ext = Substitution(ext)
    bad = DerivationStep(r1, Trigger(rid, Substitution(hom), ext),
                         ext.apply(r1.head) - join_kb.database.atoms)
    with pytest.raises(ValueError, match=message):
        Derivation(join_kb.database, (bad,)).validate()


@pytest.mark.parametrize("call, message", [
    (lambda kb: chase_levels(kb.database, kb.rules, -1), "k must be >= 0"),
    (lambda kb: chase_k(kb.database, kb.rules, -1), "k must be >= 0"),
    (lambda kb: next(enumerate_derivations(kb.database, kb.rules, -1)),
     "max_len must be >= 0"),
], ids=["chase_levels", "chase_k", "enumerate_derivations"])
def test_negative_bounds_are_rejected(join_kb, call, message):
    with pytest.raises(ValueError, match=message):
        call(join_kb)


def test_enumeration_depth_is_not_bounded_by_the_recursion_limit():
    # the leftmost path re-applies X -> a at every step (constants sort before nulls)
    r = Rule("r", frozenset({Atom("p", (X,))}), frozenset({Atom("p", (Y,))}))
    db = Instance({Atom("p", (Constant("a"),))})
    first = list(itertools.islice(enumerate_derivations(db, (r,), 1500), 1501))
    assert [len(d) for d in first] == list(range(1501))
    assert all(s.trigger.hom == Substitution({X: Constant("a")}) for s in first[-1].steps)
    # each step holds only the one atom it added, not the instance after it
    assert sum(len(s.new_atoms) for s in first[-1].steps) == 1500
    assert len(first[-1].final) == 1501


def test_rule_properties_are_cached_without_changing_identity():
    r = Rule("r", frozenset({Atom("p", (X, Y))}), frozenset({Atom("q", (Y, Z))}))
    twin = Rule("r", frozenset({Atom("p", (X, Y))}), frozenset({Atom("q", (Y, Z))}))
    assert r.body_vars is r.body_vars and r.existentials is r.existentials
    assert r.sorted_existentials is r.sorted_existentials == (Z,)
    assert (r.body_vars, r.head_vars, r.frontier, r.existentials) == ({X, Y}, {Y, Z}, {Y}, {Z})
    assert r == twin and hash(r) == hash(twin) and {r, twin} == {twin}
    assert Variable("X") in r.body_vars


# ---------------------------------------------------------------------------
# one derivation per trace (sleep sets) against the full stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,depth,count", [
    ("join", 4, 99), ("join", 5, 360), ("join", 6, 1463), ("chain", 6, 243), ("chain", 7, 868),
])
def test_traces_counts_on_samples(name, depth, count):
    kb = _sample_kb(name)
    stream = enumerate_derivations(kb.database, kb.rules, depth, dedup="traces")
    assert sum(1 for _ in stream) == count


# The "-False" in the case ids says that redundant steps are not skipped;
# the enumerator no longer has a mode that skips them.
@pytest.mark.parametrize("name,depth", [c for c in SAMPLE_CASES if c[1] >= 1],
                         ids=[f"{n}-{d}-False" for n, d in SAMPLE_CASES if d >= 1])
def test_traces_stream_has_one_derivation_per_trace_on_samples(name, depth):
    kb = _sample_kb(name)
    _assert_one_per_trace(kb.database, kb.rules, depth)


@pytest.mark.parametrize("_", [None], ids=["False"])
def test_traces_stream_has_one_derivation_per_trace_on_random_kbs(_):
    for kb, keys in _random_kbs():
        assert _assert_one_per_trace(kb.database, kb.rules, 3) <= len(keys)


def test_traces_stream_keeps_both_orders_of_two_heads_sharing_an_atom():
    # both rules derive q(a): whichever runs first adds it, so the orders differ
    only_q = Rule("only_q", frozenset({Atom("p", (X,))}), frozenset({Atom("q", (X,))}))
    q_and_s = Rule("q_and_s", frozenset({Atom("p", (X,))}),
                   frozenset({Atom("q", (X,)), Atom("s", (X,))}))
    db = Instance({Atom("p", (A,))})
    pairs = {d.rule_ids(): [s.new_atoms for s in d.steps]
             for d in enumerate_derivations(db, (only_q, q_and_s), 2, dedup="traces")
             if len(d) == 2 and d.rule_ids()[0] != d.rule_ids()[1]}
    q, s = Atom("q", (A,)), Atom("s", (A,))
    assert pairs == {("only_q", "q_and_s"): [{q}, {s}], ("q_and_s", "only_q"): [{q, s}, set()]}
    # with disjoint heads the two orders are one trace, and only the first is kept
    only_s = Rule("only_s", frozenset({Atom("p", (X,))}), frozenset({Atom("s", (X,))}))
    orders = [d.rule_ids() for d in enumerate_derivations(db, (only_q, only_s), 2,
                                                          dedup="traces")
              if len(d) == 2 and d.rule_ids()[0] != d.rule_ids()[1]]
    assert orders == [("only_q", "only_s")]


def test_traces_budget_counts_yielded_representatives():
    kb = _sample_kb("join")
    assert len(list(enumerate_derivations(kb.database, kb.rules, 4, dedup="traces",
                                          max_derivations=99))) == 99
    got = []
    with pytest.raises(ResourceLimitError, match="more than 98 derivations") as exc:
        for d in enumerate_derivations(kb.database, kb.rules, 4, dedup="traces",
                                       max_derivations=98):
            got.append(d)
    assert len(got) == 98
    assert (exc.value.budget, exc.value.limit) == ("derivations", 98)


def test_unknown_dedup_mode_is_rejected(join_kb):
    with pytest.raises(ValueError, match="unknown dedup mode"):
        next(enumerate_derivations(join_kb.database, join_kb.rules, 1, dedup="trace"))
