"""Text frontend for rule files.

Format, one statement per '.', with '%' line comments:

    p(a).  r(b).                      % facts: ground atoms
    r1: p(X) -> q(X,Y,Z).             % rule: NAME: body -> head
    ?q1: q(X,Y,Z).                    % named Boolean query

One regular expression, ``_TOKEN``, splits the text.  An identifier is a
letter or '_' followed by letters, digits and '_'; one starting with a
lowercase letter is a constant or predicate, any other a variable.
Variables occurring only in a rule head are existential.  Predicate arities
must be consistent across the whole document.  Errors carry 1-based
``line:column`` positions, counted in characters (a tab is one column).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ArityMismatchError, EmptyBodyError, EmptyHeadError, ParseError
from .model import (
    Atom,
    BooleanQuery,
    Constant,
    Instance,
    KnowledgeBase,
    Rule,
    Term,
    Variable,
    atom_list_str,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


# SKIP and NEWLINE make no token, ERROR is any other character, and an IDENT
# must start with a letter or '_' (\w also matches digits)
_TOKEN = re.compile(r"""
    (?P<NEWLINE>\n) | (?P<SKIP>[ \t\r]+|%[^\n]*) | (?P<IDENT>\w+) | (?P<ARROW>->)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<COLON>:) | (?P<DOT>\.) | (?P<QMARK>\?)
  | (?P<ERROR>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, column = m.lastgroup, m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "ERROR" or (kind == "IDENT" and not (m[0][0].isalpha() or m[0][0] == "_")):
            raise ParseError(f"unexpected character {m[0][0]!r}", line, column)
        elif kind != "SKIP":
            tokens.append(Token(kind, m[0], line, column))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


@dataclass
class RuleDocument:
    """Parsed rule file: facts, named rules, and named queries, in file order."""

    facts: list[Atom] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    queries: dict[str, BooleanQuery] = field(default_factory=dict)
    arities: dict[str, int] = field(default_factory=dict)

    def knowledge_base(self) -> KnowledgeBase:
        return KnowledgeBase(Instance(self.facts), tuple(self.rules))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.doc = RuleDocument()

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def parse(self) -> RuleDocument:
        while self.peek().kind != "EOF":
            if self.peek().kind == "QMARK":
                self.query()
            elif self.peek().kind == "IDENT" and self.peek(1).kind == "COLON":
                self.rule()
            else:
                self.fact()
        return self.doc

    def term(self) -> Term:
        tok = self.take("IDENT")
        if tok.text[0].islower():
            return Constant(tok.text)
        return Variable(tok.text)

    def atom(self) -> Atom:
        name = self.take("IDENT")
        if not name.text[0].islower():
            raise ParseError(
                f"predicate {name.text!r} must start lowercase", name.line, name.column
            )
        self.take("LPAREN")
        args = [self.term()]
        while self.peek().kind == "COMMA":
            self.take("COMMA")
            args.append(self.term())
        self.take("RPAREN")
        known = self.doc.arities.get(name.text)
        if known is not None and known != len(args):
            raise ArityMismatchError(
                f"predicate {name.text} used with arity {len(args)}, previously {known}",
                name.line, name.column,
            )
        self.doc.arities[name.text] = len(args)
        return Atom(name.text, tuple(args))

    def atom_list(self) -> list[Atom]:
        if self.peek().kind != "IDENT":
            return []
        atoms = [self.atom()]
        while self.peek().kind == "COMMA":
            self.take("COMMA")
            atoms.append(self.atom())
        return atoms

    def fact(self) -> None:
        tok = self.peek()
        a = self.atom()
        self.take("DOT")
        if any(isinstance(t, Variable) for t in a.args):
            raise ParseError(f"fact {a} must be ground", tok.line, tok.column)
        self.doc.facts.append(a)

    def rule(self) -> None:
        name = self.take("IDENT")
        self.take("COLON")
        body = self.atom_list()
        arrow = self.take("ARROW")
        head = self.atom_list()
        dot = self.take("DOT")
        if not body:
            raise EmptyBodyError(f"rule {name.text} has no body atoms", arrow.line, arrow.column)
        if not head:
            raise EmptyHeadError(f"rule {name.text} has no head atoms", dot.line, dot.column)
        if any(r.rid == name.text for r in self.doc.rules):
            raise ParseError(f"duplicate rule name {name.text!r}", name.line, name.column)
        self.doc.rules.append(Rule(name.text, frozenset(body), frozenset(head)))

    def query(self) -> None:
        self.take("QMARK")
        name = self.take("IDENT")
        self.take("COLON")
        atoms = self.atom_list()
        self.take("DOT")
        if not atoms:
            raise ParseError(f"query {name.text} is empty", name.line, name.column)
        if name.text in self.doc.queries:
            raise ParseError(f"duplicate query name {name.text!r}", name.line, name.column)
        self.doc.queries[name.text] = BooleanQuery(frozenset(atoms))


def parse_document(text: str) -> RuleDocument:
    return _Parser(_tokenize(text)).parse()


def print_document(doc: RuleDocument) -> str:
    """Render a document so that parsing the output reproduces it."""
    lines = [f"{a}." for a in doc.facts]
    lines += [str(r) for r in doc.rules]
    lines += [f"?{name}: {atom_list_str(q.atoms)}." for name, q in doc.queries.items()]
    return "\n".join(lines) + ("\n" if lines else "")
