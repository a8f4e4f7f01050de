"""Shared fixtures: the two worked knowledge bases and their named derivations.

``join_kb`` has two independent null-creating rules, a combined rule, and a
join rule over q/s triples; ``chain_kb`` grows an r-chain from a single
q-atom and joins it back.  The derivations built here (with their exact
homomorphisms) are the golden objects most tests check against.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import chasegraph
from chasegraph.chase import Derivation
from chasegraph.model import (
    Atom,
    Constant,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Substitution,
    Variable,
    nulls_of,
    term_key,
)

A, B = Constant("a"), Constant("b")
X, Y, Z, W, U, V, O = (Variable(n) for n in "XYZWUVO")


def _rule(rid, body, head):
    return Rule(rid, frozenset(body), frozenset(head))


@pytest.fixture(scope="session")
def join_kb() -> KnowledgeBase:
    r1 = _rule("r1", [Atom("p", (X,))], [Atom("q", (X, Y, Z))])
    r2 = _rule("r2", [Atom("r", (X,))], [Atom("s", (X, Y, Z))])
    r3 = _rule("r3", [Atom("p", (X,)), Atom("r", (Y,))],
               [Atom("q", (X, Z, W)), Atom("s", (Y, U, V))])
    r4 = _rule("r4", [Atom("q", (X, Y, Z)), Atom("s", (W, U, V))],
               [Atom("t", (X, Y, W, U, O))])
    db = Instance({Atom("p", (A,)), Atom("r", (B,))})
    return KnowledgeBase(db, (r1, r2, r3, r4))


@pytest.fixture(scope="session")
def chain_kb() -> KnowledgeBase:
    r1 = _rule("r1", [Atom("p", (X, Y))], [Atom("q", (Y, Z))])
    r2 = _rule("r2", [Atom("q", (X, Y))], [Atom("r", (X, Y)), Atom("r", (Y, Z))])
    r3 = _rule("r3", [Atom("r", (X, Y)), Atom("q", (Z, X))], [Atom("s", (X, Y))])
    r4 = _rule("r4", [Atom("r", (X, Y)), Atom("s", (Z, W))], [Atom("t", (Y, W))])
    db = Instance({Atom("p", (A, B))})
    return KnowledgeBase(db, (r1, r2, r3, r4))


@pytest.fixture
def nongreedy_join_derivation(join_kb) -> Derivation:
    """r1, r1, r2, then a join whose frontier spans two earlier steps."""
    r1, r2, _, r4 = join_kb.rules
    d = Derivation(join_kb.database)
    d = d.extend(r1, Substitution({X: A}))
    e1 = d.steps[0].trigger.extension
    d = d.extend(r1, Substitution({X: A}))
    d = d.extend(r2, Substitution({X: B}))
    e3 = d.steps[2].trigger.extension
    return d.extend(r4, Substitution(
        {X: A, Y: e1[Y], Z: e1[Z], W: B, U: e3[Y], V: e3[Z]}
    ))


@pytest.fixture
def greedy_join_derivation(join_kb) -> Derivation:
    """r3, r1, then a join reading both atoms of the single r3 step."""
    r1, _, r3, r4 = join_kb.rules
    d = Derivation(join_kb.database)
    d = d.extend(r3, Substitution({X: A, Y: B}))
    e1 = d.steps[0].trigger.extension
    d = d.extend(r1, Substitution({X: A}))
    return d.extend(r4, Substitution(
        {X: A, Y: e1[Z], Z: e1[W], W: B, U: e1[U], V: e1[V]}
    ))


@pytest.fixture
def chain_derivation(chain_kb) -> Derivation:
    """The four-step chain derivation whose graph is the golden five-node graph."""
    r1, r2, r3, r4 = chain_kb.rules
    d = Derivation(chain_kb.database)
    d = d.extend(r1, Substitution({X: A, Y: B}))
    z0 = d.steps[0].trigger.extension[Z]
    d = d.extend(r2, Substitution({X: B, Y: z0}))
    z1 = d.steps[1].trigger.extension[Z]
    d = d.extend(r3, Substitution({X: z0, Y: z1, Z: B}))
    return d.extend(r4, Substitution({X: B, Y: z0, Z: z0, W: z1}))


def chain_nulls(d: Derivation) -> tuple[Null, Null]:
    """(z0, z1) of the chain derivation: the step-1 null and the step-2 fresh one."""
    z0 = next(iter(nulls_of(d.new_atoms(1))))
    z1 = next(iter(nulls_of(d.new_atoms(2)) - {z0}))
    return z0, z1


def trace_key(d: Derivation) -> frozenset:
    """The trace of a derivation: the set of its events, where an event is a
    rule, its body match and the atoms it added, each null named by the event
    that created it (initial nulls by themselves), and repeats of one event
    are numbered in order.  Equal for two derivations iff one turns into the
    other by swapping adjacent independent steps and renaming nulls."""
    names: dict = {}
    count: dict = {}

    def name(t):
        return names.get(t, term_key(t))

    events = []
    for step in d.steps:
        ext = step.trigger.extension
        ev = (step.rule.rid, tuple((term_key(v), name(t)) for v, t in step.trigger.hom.items()))
        nth = count[ev] = count.get(ev, -1) + 1
        for z in step.rule.existentials:
            names[ext[z]] = (ev, nth, term_key(z))
        added = frozenset((a.pred, tuple(map(name, a.args))) for a in step.new_atoms)
        events.append((ev, nth, added))
    return frozenset(events)


def rename_derivation_nulls(d: Derivation, mapping: dict[Null, Null]) -> Derivation:
    """Apply a null bijection to every part of a derivation (test helper)."""
    from chasegraph.chase import DerivationStep, Trigger

    ren = Substitution(dict(mapping))

    def rename_inst(inst: Instance) -> Instance:
        return Instance(ren.apply(inst.atoms))

    def rename_sub(s: Substitution) -> Substitution:
        return Substitution({k: ren.apply_term(v) for k, v in s.mapping.items()})

    steps = tuple(
        DerivationStep(
            st.rule,
            Trigger(st.trigger.rule_id, rename_sub(st.trigger.hom),
                    rename_sub(st.trigger.extension)),
            ren.apply(st.new_atoms),
        )
        for st in d.steps
    )
    return Derivation(rename_inst(d.initial), steps)


def subprocess_env(**overrides: str) -> dict[str, str]:
    """The environment for a child interpreter that imports the package under
    test: this one's, with the package's parent directory (a checkout's
    ``src``) first on PYTHONPATH, and the given overrides."""
    path = [str(Path(chasegraph.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **overrides}
