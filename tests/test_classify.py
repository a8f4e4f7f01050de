import hashlib
import importlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from chasegraph import analysis, chase, homs
from chasegraph.analysis import is_greedy
from chasegraph.chase import derivation_key, enumerate_derivations
from chasegraph.classify import (
    CLASSES,
    HOLDS,
    REFUTED,
    UNKNOWN,
    Refutation,
    classify,
    entails,
    subsumption_check,
)
from chasegraph.derivgraph import build_derivation_graph
from chasegraph.docparse import parse_document
from chasegraph.errors import ResourceLimitError
from chasegraph.homs import isomorphic_mod_nulls
from chasegraph.model import Atom, BooleanQuery, Constant, Instance, KnowledgeBase, Rule
from chasegraph.randkb import random_kb
from chasegraph.reduction import reduce_graph
from chasegraph.render import verdict_json
from chasegraph.selfcheck import check_derivation

from conftest import A, X, Y, Z, subprocess_env, trace_key
from oracles import weak_classify_oracle

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_gbts_refuted_with_reverifiable_certificate(join_kb):
    verdict = classify(join_kb, "gbts", 4)
    assert verdict.result == REFUTED
    cert = verdict.certificate
    assert isinstance(cert, Refutation)
    cert.derivation.validate()
    report = is_greedy(cert.derivation, join_kb)
    assert not report.greedy
    assert report.violations == cert.greediness.violations


def test_gbts_refuted_already_at_depth_three(join_kb):
    # a two-producer join shows up from length 3 on
    assert classify(join_kb, "gbts", 3).result == REFUTED


def test_cdgs_refutation_certificate_reverifies(join_kb):
    verdict = classify(join_kb, "cdgs", 4)
    assert verdict.result == REFUTED
    g = build_derivation_graph(verdict.certificate.derivation, join_kb)
    assert reduce_graph(g, "full") is None


def test_weak_classes_hold_at_depth_three(join_kb):
    assert classify(join_kb, "wgbts", 3).result == HOLDS
    assert classify(join_kb, "wcdgs", 3).result == HOLDS


def test_wgbts_witnesses_reverify_at_depth_three(join_kb):
    verdict = classify(join_kb, "wgbts", 3)
    assert verdict.result == HOLDS
    for witness in verdict.certificate:
        witness.witness.validate()
        assert is_greedy(witness.witness, join_kb).greedy
        assert isomorphic_mod_nulls(witness.witness.final, witness.target) is not None


def test_wgbts_refuted_at_depth_four_by_shared_producer_instance(join_kb):
    # Two joins against the same s-atom but different q-atoms: under strict
    # fresh-null derivations no greedy derivation of that instance exists at
    # any length, so the bounded weak verdicts flip at depth 4.  The
    # derivation-graph pipeline must flip with them (the verdict equality is
    # the point of the cross-check).  See the decisions ledger.
    wgbts = classify(join_kb, "wgbts", 4)
    wcdgs = classify(join_kb, "wcdgs", 4)
    assert wgbts.result == REFUTED
    assert wcdgs.result == REFUTED
    cert = wgbts.certificate
    counts = sorted(a.pred for a in cert.target - join_kb.database)
    assert counts == ["q", "q", "s", "t", "t"]
    # the refutation is honest: the recorded shortest derivation really
    # derives the target and is non-greedy
    cert.derivation.validate()
    assert isomorphic_mod_nulls(cert.derivation.final, cert.target) is not None
    assert not is_greedy(cert.derivation, join_kb).greedy


def test_chain_universal_verdicts_agree(chain_kb):
    gbts = classify(chain_kb, "gbts", 4)
    cdgs = classify(chain_kb, "cdgs", 4)
    assert gbts.result == cdgs.result == HOLDS


def test_subsumption_depth_three(join_kb):
    report = subsumption_check(join_kb, 3)
    assert report.ok
    assert report.verdicts["gbts"].result == REFUTED
    assert report.verdicts["cdgs"].result == REFUTED
    assert report.verdicts["wgbts"].result == HOLDS
    assert report.verdicts["wcdgs"].result == HOLDS


def test_subsumption_trivial_for_empty_rule_set():
    kb = KnowledgeBase(Instance({Atom("p", (A,))}), ())
    report = subsumption_check(kb, 2)
    assert report.ok
    assert all(v.result == HOLDS for v in report.verdicts.values())


def test_subsumption_never_violated_on_random_kbs():
    rng = random.Random(99)
    checked = 0
    while checked < 12:
        kb = random_kb(rng)
        try:
            report = subsumption_check(kb, 2)
        except Exception:
            continue
        if any(v.result == UNKNOWN for v in report.verdicts.values()):
            continue
        assert report.ok, report.implications
        checked += 1


def test_classify_rejects_bad_arguments(join_kb):
    with pytest.raises(ValueError):
        classify(join_kb, "nonsense", 2)
    with pytest.raises(ValueError):
        classify(join_kb, "gbts", 0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        entails(join_kb, BooleanQuery(join_kb.database.atoms), -1)


def test_entailment_examples(join_kb, chain_kb):
    q_join = BooleanQuery(frozenset({Atom("q", (X, Y, Z))}))
    res = entails(join_kb, q_join, 1)
    assert res.entailed and res.at_depth == 1

    q_chain = BooleanQuery(frozenset({Atom("t", (X, Y))}))
    res = entails(chain_kb, q_chain, 4)
    assert res.entailed and res.at_depth <= 4

    unused = BooleanQuery(frozenset({Atom("u", (X,))}))
    assert not entails(join_kb, unused, 3).entailed


def test_entailment_depth_is_minimal_and_monotone(chain_kb):
    q = BooleanQuery(frozenset({Atom("t", (X, Y))}))
    first = entails(chain_kb, q, 4).at_depth
    for deeper in range(first, 5):
        res = entails(chain_kb, q, deeper)
        assert res.entailed and res.at_depth == first


def test_entailment_of_database_atom_at_depth_zero(join_kb):
    q = BooleanQuery(frozenset({Atom("p", (X,))}))
    res = entails(join_kb, q, 0)
    assert res.entailed and res.at_depth == 0


# ---------------------------------------------------------------------------
# the one-pass weak classes against the iterative-deepening oracle
# ---------------------------------------------------------------------------

def _sample_kb(name: str) -> KnowledgeBase:
    return parse_document((SAMPLES / f"{name}.rules").read_text()).knowledge_base()


def _assert_matches_oracle(new, old):
    assert new.result == old.result
    if isinstance(old.certificate, Refutation):
        assert new.certificate.reason == old.certificate.reason
        assert derivation_key(new.certificate.derivation) == derivation_key(
            old.certificate.derivation)
        assert isomorphic_mod_nulls(new.certificate.target, old.certificate.target) is not None
    elif old.certificate is None:
        assert new.certificate is None
    else:
        assert len(new.certificate) == len(old.certificate)
        for w_new, w_old in zip(new.certificate, old.certificate):
            assert w_new.shortest_len == w_old.shortest_len
            assert derivation_key(w_new.witness) == derivation_key(w_old.witness)
            assert isomorphic_mod_nulls(w_new.target, w_old.target) is not None
            if w_old.trace is not None:
                assert [type(x) for x in w_new.trace.steps] == [
                    type(x) for x in w_old.trace.steps]


# The "-depth" in the case ids says that witnesses are searched to the depth.
@pytest.mark.parametrize("cls", ["wgbts", "wcdgs"], ids=lambda cls: f"{cls}-depth")
@pytest.mark.parametrize("name,depth", [("join", d) for d in range(1, 5)]
                         + [("chain", d) for d in range(1, 6)])
def test_weak_classes_match_oracle_on_samples(name, depth, cls):
    kb = _sample_kb(name)
    _assert_matches_oracle(classify(kb, cls, depth), weak_classify_oracle(kb, cls, depth))


def test_weak_classes_match_oracle_on_random_kbs():
    # 30 KBs with 2 to 500 derivations at depth 3 (the oracle's pairwise
    # isomorphism checks stay cheap); at most 24 of them gbts-holding, so
    # the rarer non-greedy KBs, which carry the weak refutations, fill the rest
    rng = random.Random(2307)
    checked = greedy = 0
    while checked < 30:
        kb = random_kb(rng)
        try:
            n = sum(1 for _ in enumerate_derivations(kb.database, kb.rules, 3,
                                                     max_derivations=500))
        except ResourceLimitError:
            continue
        if n < 2:
            continue
        if classify(kb, "gbts", 3).holds:
            if greedy == 24:
                continue
            greedy += 1
        for cls in ("wgbts", "wcdgs"):
            _assert_matches_oracle(classify(kb, cls, 3), weak_classify_oracle(kb, cls, 3))
        checked += 1


# Its shortest derivation (a1, b1, j) of one instance joins nulls of two
# steps, but the longer c, e, f, j derives the same instance greedily.
LONGER_WITNESS = """p(a).
e: u(X,Y) -> x(Y).
a1: p(X) -> u(X,Y), x(Y).
b1: p(X) -> v(X,Z), y(Z).
c: p(X) -> u(X,Y), v(X,Z).
f: v(X,Z) -> y(Z).
j: u(X,Y), v(X,Z) -> w(Y,Z).
"""


def test_weak_classes_search_past_the_shortest_length():
    # DECISIONS.md section 10: a greedy derivation of any length up to the
    # depth keeps an instance in the class
    kb = parse_document(LONGER_WITNESS).knowledge_base()
    d = next(d for d in enumerate_derivations(kb.database, kb.rules, 3)
             if d.rule_ids() == ("a1", "b1", "j"))
    assert not is_greedy(d, kb).greedy
    assert analysis.find_greedy_rederivation(kb, d.final, 3) is None
    assert analysis.find_greedy_rederivation(kb, d.final, 4).rule_ids() == ("c", "e", "f", "j")
    for cls in ("wgbts", "wcdgs"):
        verdict = classify(kb, cls, 4)
        assert verdict.result == REFUTED
        assert verdict.certificate.derivation.rule_ids() == ("a1", "c", "j")


FOUR_PARENTS = """
s(c).
r0: s(X) -> g(Y,Z).
ra: g(X,Y) -> a(X).
rb: g(X,Y) -> b(Y).
rl: g(X,Y) -> e(X,Y,Z).
rm: g(X,Y) -> d(X,Y,W).
rk: a(X), b(Y), e(X,Y,Z), d(X,Y,W) -> f(X,Y,Z,W).
"""


def test_cr_keeps_the_label_it_joins():
    # in the graph of r0 ra rb rl rm rk, X6 has parents X2..X5 and no node
    # holds all four nulls of its frontier; cr[2,3,6,4] used to overwrite the
    # label of (X4,X6) and drop X4's null, which made the graph reducible
    # (DECISIONS.md section 7)
    kb = parse_document(FOUR_PARENTS).knowledge_base()
    verdicts = {cls: classify(kb, cls, 6).result for cls in CLASSES}
    assert verdicts == dict.fromkeys(CLASSES, REFUTED)
    d = chase.Derivation(kb.database)
    for rid in ("r0", "ra", "rb", "rl", "rm", "rk"):
        r = kb.rule_by_id(rid)
        d = d.extend(r, chase.triggers(d.final, r)[0])
    assert check_derivation(d, kb) == (False, 0, [])


@pytest.mark.parametrize("name,depth", [("longer-witness", 4), ("join", 3), ("join", 4),
                                        ("chain", 3), ("chain", 4), ("chain", 5)])
def test_weak_refutations_have_no_greedy_derivation_within_the_depth(name, depth):
    kb = (parse_document(LONGER_WITNESS).knowledge_base() if name == "longer-witness"
          else _sample_kb(name))
    for cls in ("wgbts", "wcdgs"):
        verdict = classify(kb, cls, depth)
        if verdict.result == REFUTED:
            assert analysis.find_greedy_rederivation(kb, verdict.certificate.target, depth) is None


def test_a_wcdgs_witness_without_a_full_reduction_raises(join_kb, monkeypatch):
    # the reducible bit and the full reduction are two computations; should
    # they part, no witness is returned without its trace
    monkeypatch.setattr(importlib.import_module("chasegraph.classify"), "reduce_graph",
                        lambda g, strategy: None)
    with pytest.raises(RuntimeError, match="wcdgs witness"):
        classify(join_kb, "wcdgs", 3)


def test_canonical_form_budget_gives_unknown(join_kb, monkeypatch):
    # two r1 steps give an instance with two q-components: two search nodes
    monkeypatch.setattr(homs, "MAX_CANON_NODES", 1)
    verdict = classify(join_kb, "wgbts", 3)
    assert verdict.result == UNKNOWN
    assert "MAX_CANON_NODES of 1 " in verdict.detail
    assert (verdict.budget, verdict.limit) == ("canonical-nodes", 1)
    out = verdict_json(verdict)
    assert out["schema"] == 1 and out["detail"] == verdict.detail
    assert out["budget"] == {"name": "canonical-nodes", "limit": 1}
    assert "budget" not in verdict_json(classify(join_kb, "gbts", 3))


# ---------------------------------------------------------------------------
# one derivation per trace gives the answers of the full stream
# ---------------------------------------------------------------------------

def _full_stream(*args, **kwargs):
    return chase.enumerate_derivations(*args, **{**kwargs, "dedup": "none"})


def _certificate_keys(verdict):
    cert = verdict.certificate
    if isinstance(cert, Refutation):
        return derivation_key(cert.derivation)
    return cert and [(w.shortest_len, derivation_key(w.witness)) for w in cert]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_traces_stream_gives_the_full_stream_answers(seed):
    kb = random_kb(random.Random(seed))
    try:
        full = list(enumerate_derivations(kb.database, kb.rules, 3, max_derivations=300))
    except ResourceLimitError:
        assume(False)
    traces = list(enumerate_derivations(kb.database, kb.rules, 3, dedup="traces"))
    assert {trace_key(d) for d in traces} == {trace_key(d) for d in full}
    fast = [classify(kb, cls, 3) for cls in CLASSES]
    with pytest.MonkeyPatch.context() as mp:  # every verdict from the full stream
        mp.setattr(importlib.import_module("chasegraph.classify"), "enumerate_derivations",
                   _full_stream)
        mp.setattr(analysis, "enumerate_derivations", _full_stream)
        slow = [classify(kb, cls, 3) for cls in CLASSES]
    for new, old in zip(fast, slow):
        assert (new.result, _certificate_keys(new)) == (old.result, _certificate_keys(old))


def _renamed(kb, preds=(), consts=(), order=None):
    """``kb`` with predicates and constants renamed by the given maps and
    the rule list in ``order``."""
    preds, consts = dict(preds), dict(consts)

    def atoms(xs):
        return frozenset(Atom(preds.get(a.pred, a.pred), tuple(consts.get(t, t) for t in a.args))
                         for a in xs)

    rules = [Rule(r.rid, atoms(r.body), atoms(r.head)) for r in kb.rules]
    return KnowledgeBase(Instance(atoms(kb.database)),
                         tuple(rules[i] for i in order or range(len(rules))))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations("pqrs"), st.permutations("abc"), st.data())
def test_verdicts_survive_reordering_and_renaming(seed, preds, consts, data):
    # metamorphic: the classes and the traces are properties of the
    # derivation set, so the verdicts and the trace count ignore rule order
    # and names; renaming predicates leaves every derivation order alone, so
    # the certificates stay as well
    kb = random_kb(random.Random(seed))
    order = data.draw(st.permutations(range(len(kb.rules))))
    variants = [kb, _renamed(kb, order=order),
                _renamed(kb, consts={Constant(a): Constant(b) for a, b in zip("abc", consts)}),
                _renamed(kb, preds=zip("pqrs", preds))]
    verdicts = [[classify(v, cls, 3) for cls in CLASSES] for v in variants]
    assume(all(x.result != UNKNOWN for vs in verdicts for x in vs))
    results = [([x.result for x in vs],
                sum(1 for _ in enumerate_derivations(v.database, v.rules, 3, dedup="traces")))
               for v, vs in zip(variants, verdicts)]
    assert results == [results[0]] * len(variants)
    assert ([_certificate_keys(x) for x in verdicts[3]]
            == [_certificate_keys(x) for x in verdicts[0]])


_DIGEST_SCRIPT = """
import sys
from pathlib import Path
from chasegraph.chase import derivation_key
from chasegraph.classify import Refutation, classify
from chasegraph.docparse import parse_document

kb = parse_document(Path(sys.argv[1]).read_text()).knowledge_base()
for cls in ("wgbts", "wcdgs"):
    cert = classify(kb, cls, 3).certificate
    if isinstance(cert, Refutation):
        print(cls, derivation_key(cert.derivation))
    else:
        print(cls, [(w.shortest_len, derivation_key(w.witness)) for w in cert])
"""


def test_weak_certificates_independent_of_hash_seed():
    def run(seed: str) -> str:
        env = subprocess_env(PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, str(SAMPLES / "join.rules")],
            capture_output=True, text=True, env=env, check=True,
        )
        return proc.stdout

    first = run("0")
    assert first.count("\n") == 2
    assert first == run("1")


# ---------------------------------------------------------------------------
# verdict_json pinned on the samples
# ---------------------------------------------------------------------------

# sha256 (first 16 hex digits) of json.dumps(verdict_json(classify(kb, cls, depth)))
# with the nulls renamed _:n1, _:n2, ... by order of first appearance
_VERDICT_DIGESTS = {
    ("join", 1, "gbts"): "4e64f61bddb2b514",
    ("join", 1, "wgbts"): "709576a863d71597",
    ("join", 1, "cdgs"): "71036f4c40e42637",
    ("join", 1, "wcdgs"): "aaad3ec5c577aab5",
    ("join", 2, "gbts"): "f7dbb329dc05dce1",
    ("join", 2, "wgbts"): "45e93dd8e26d1603",
    ("join", 2, "cdgs"): "5f23dd406ea66f6d",
    ("join", 2, "wcdgs"): "bf9d1f9f9208f2fe",
    ("join", 3, "gbts"): "1645ecc293f40471",
    ("join", 3, "wgbts"): "12e53acb060ac674",
    ("join", 3, "cdgs"): "bbc821934173372b",
    ("join", 3, "wcdgs"): "8205f0f50d4382c2",
    ("join", 4, "gbts"): "3f6d63b2e79fef6a",
    ("join", 4, "wgbts"): "83d960333dbe942b",
    ("join", 4, "cdgs"): "b3564cac3b5584c2",
    ("join", 4, "wcdgs"): "033837197fef8825",
    ("chain", 1, "gbts"): "4e64f61bddb2b514",
    ("chain", 1, "wgbts"): "bc7d847cccc3f639",
    ("chain", 1, "cdgs"): "71036f4c40e42637",
    ("chain", 1, "wcdgs"): "2e49eb90b81af2a6",
    ("chain", 2, "gbts"): "f7dbb329dc05dce1",
    ("chain", 2, "wgbts"): "91962de60cc17b57",
    ("chain", 2, "cdgs"): "5f23dd406ea66f6d",
    ("chain", 2, "wcdgs"): "f037b40ab2d2d75f",
    ("chain", 3, "gbts"): "ef99440e2fbefa52",
    ("chain", 3, "wgbts"): "4a16c8a40b0dc9cb",
    ("chain", 3, "cdgs"): "0b6453ccc1c48adf",
    ("chain", 3, "wcdgs"): "72e820a2269c9c07",
    ("chain", 4, "gbts"): "6e53f7b9645c5ac0",
    ("chain", 4, "wgbts"): "2edb1d611a4f0824",
    ("chain", 4, "cdgs"): "24b75307006dde1b",
    ("chain", 4, "wcdgs"): "445efb8c56e57f54",
    ("chain", 5, "gbts"): "9cd57eb08eeaa329",
    ("chain", 5, "wgbts"): "c4df03e7d4de0f54",
    ("chain", 5, "cdgs"): "2f6b806cdae7ad41",
    ("chain", 5, "wcdgs"): "b5cd78aeaba34107",
}


def _renumbered_nulls(text: str) -> str:
    names: dict[str, str] = {}
    return re.sub(r"_:n\d+", lambda m: names.setdefault(m.group(0), f"_:n{len(names) + 1}"), text)


@pytest.mark.parametrize("name,depth", [("join", d) for d in range(1, 5)]
                         + [("chain", d) for d in range(1, 6)])
def test_verdict_json_is_pinned_on_the_samples(name, depth):
    kb = _sample_kb(name)
    for cls in CLASSES:
        out = verdict_json(classify(kb, cls, depth))
        if (name, depth, cls) == ("join", 4, "wgbts"):
            assert "target" in out["certificate"]
        text = _renumbered_nulls(json.dumps(out))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == _VERDICT_DIGESTS[
            name, depth, cls], (name, depth, cls)


def test_two_identical_calls_give_the_same_verdict_json():
    kb = _sample_kb("join")
    first, second = (json.dumps(verdict_json(classify(kb, "wgbts", 3))) for _ in range(2))
    assert first == second
