import pytest

from chasegraph.docparse import parse_document, print_document
from chasegraph.errors import (
    ArityMismatchError,
    EmptyBodyError,
    EmptyHeadError,
    ParseError,
)
from chasegraph.model import Atom, Constant, Variable

A, B = Constant("a"), Constant("b")
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

JOIN_DOC = """\
% two facts, four rules, one query
p(a). r(b).
r1: p(X) -> q(X,Y,Z).
r2: r(X) -> s(X,Y,Z).
r3: p(X), r(Y) -> q(X,Z,W), s(Y,U,V).
r4: q(X,Y,Z), s(W,U,V) -> t(X,Y,W,U,O).
?q1: q(X,Y,Z).
"""


def test_parse_rule_with_existentials():
    doc = parse_document("r1: p(X) -> q(X,Y,Z).")
    (rule,) = doc.rules
    assert rule.rid == "r1"
    assert rule.body == {Atom("p", (X,))}
    assert rule.frontier == {X}
    assert rule.existentials == {Y, Z}


def test_parse_facts():
    doc = parse_document("p(a). r(b).")
    assert doc.facts == [Atom("p", (A,)), Atom("r", (B,))]
    kb = doc.knowledge_base()
    assert kb.database.atoms == {Atom("p", (A,)), Atom("r", (B,))}


def test_parse_full_document_and_query():
    doc = parse_document(JOIN_DOC)
    assert len(doc.rules) == 4
    assert set(doc.queries) == {"q1"}
    assert doc.arities == {"p": 1, "r": 1, "q": 3, "s": 3, "t": 5}


def test_empty_head_rejected():
    with pytest.raises(EmptyHeadError):
        parse_document("r: p(X) -> .")


def test_empty_body_rejected():
    with pytest.raises(EmptyBodyError):
        parse_document("r: -> q(X).")


def test_arity_mismatch_rejected():
    with pytest.raises(ArityMismatchError):
        parse_document("p(a). r1: p(X,Y) -> q(X).")


def test_nonground_fact_rejected():
    with pytest.raises(ParseError):
        parse_document("p(X).")


def test_syntax_error_carries_position():
    try:
        parse_document("p(a)\nq(b).")
        assert False, "should have raised"
    except ParseError as exc:
        assert exc.line == 2  # the missing dot is noticed at the next token


def test_comments_ignored():
    doc = parse_document("% comment only\np(a). % trailing\n")
    assert doc.facts == [Atom("p", (A,))]


def test_duplicate_rule_name_rejected():
    with pytest.raises(ParseError):
        parse_document("r: p(X) -> q(X). r: q(X) -> p(X).")


def test_round_trip_is_identity():
    doc = parse_document(JOIN_DOC)
    text = print_document(doc)
    doc2 = parse_document(text)
    assert doc2.facts == doc.facts
    assert doc2.rules == doc.rules
    assert doc2.queries == doc.queries
    assert print_document(doc2) == text


def test_round_trip_preserves_constants_in_rules():
    source = "e(a,b).\nloop: e(X,a) -> e(a,X).\n"
    doc = parse_document(source)
    assert parse_document(print_document(doc)).rules == doc.rules
