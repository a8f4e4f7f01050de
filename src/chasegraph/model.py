"""Core vocabulary: terms, atoms, instances, substitutions, rules, queries, KBs.

Terms come in three disjoint kinds, each a ``tuple`` subclass laid out as
``(kind, name|ordinal)``: a constant is ``(0, name)``, a variable
``(1, name)`` and a null ``(2, ordinal)``; ``chase`` numbers the nulls of
each run (DECISIONS.md section 12).  An atom is the tuple ``(pred, args)``.
So hashing, equality and order run in C, and a term's tuple order is the
engine's term order: constants, variables, nulls, then by name or ordinal.
A term equals the plain tuple of its fields, so no container may hold both.
``term_key`` and ``atom_key`` return plain tuples:
``repr(chase.derivation_key(d))`` pins derivation ids and certificates and
must name no term class, and ``atom_key`` sorts by arity before arguments,
which an atom's own tuple order does not.

Every value here is immutable and hashable, so instances and rules can be
shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Union

from .errors import UnboundVariableError


class _Term(tuple):
    """A term, laid out as ``(kind, name|ordinal)``; each kind names its
    second field ``_field``."""

    __slots__ = ()

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={self[1]!r})"


class Constant(_Term):
    __slots__ = ()
    _field = "name"
    name = property(itemgetter(1))

    def __new__(cls, name: str) -> "Constant":
        return tuple.__new__(cls, (0, name))

    def __str__(self) -> str:
        return self[1]


class Variable(_Term):
    __slots__ = ()
    _field = "name"
    name = property(itemgetter(1))

    def __new__(cls, name: str) -> "Variable":
        return tuple.__new__(cls, (1, name))

    def __str__(self) -> str:
        return self[1]


class Null(_Term):
    __slots__ = ()
    _field = "ordinal"
    ordinal = property(itemgetter(1))

    def __new__(cls, ordinal: int) -> "Null":
        return tuple.__new__(cls, (2, ordinal))

    def __str__(self) -> str:
        return f"_:n{self[1]}"


Term = Union[Constant, Variable, Null]

def term_key(t: Term) -> tuple:
    """Total order: constants < variables < nulls, then name/ordinal.

    A term's own tuple order is this order; the key is the same pair as a
    plain tuple, so that its ``repr`` names no term class."""
    return tuple(t)


def term_set_str(terms: Iterable[Term]) -> str:
    """``{a,b,_:n1}``: the terms in term_key order."""
    return "{" + ",".join(map(str, sorted(terms))) + "}"


class Atom(tuple):
    """An atom, laid out as ``(pred, args)`` with ``args`` a tuple of terms."""

    __slots__ = ()
    pred = property(itemgetter(0))
    args = property(itemgetter(1))

    def __new__(cls, pred: str, args: tuple[Term, ...]) -> "Atom":
        return tuple.__new__(cls, (pred, args))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Atom(pred={self[0]!r}, args={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}({','.join(map(str, self[1]))})"

    @property
    def arity(self) -> int:
        return len(self[1])

    def terms(self) -> frozenset[Term]:
        return frozenset(self[1])


def atom_key(a: Atom) -> tuple:
    """Order by predicate, then arity, then arguments in term_key order, as
    plain tuples.  An atom's own tuple order puts no arity first: it would
    sort ``p(a,c)`` before ``p(b)``."""
    return (a[0], len(a[1]), tuple(map(tuple, a[1])))


def atom_list_str(atoms: Iterable[Atom]) -> str:
    """``p(a), q(a,b)``: the atoms in atom_key order."""
    return ", ".join(map(str, sorted(atoms, key=atom_key)))


def atom_set_str(atoms: Iterable[Atom]) -> str:
    """``{p(a), q(a,b)}``: the atoms in atom_key order."""
    return "{" + atom_list_str(atoms) + "}"


def terms_of(atoms: Iterable[Atom]) -> frozenset[Term]:
    return frozenset(t for a in atoms for t in a.args)


def constants_of(atoms: Iterable[Atom]) -> frozenset[Constant]:
    return frozenset(t for a in atoms for t in a.args if isinstance(t, Constant))


def variables_of(atoms: Iterable[Atom]) -> frozenset[Variable]:
    return frozenset(t for a in atoms for t in a.args if isinstance(t, Variable))


def nulls_of(atoms: Iterable[Atom]) -> frozenset[Null]:
    return frozenset(t for a in atoms for t in a.args if isinstance(t, Null))


class Instance:
    """A finite set of atoms over constants and nulls.

    Variables are rejected at construction; everything downstream may rely
    on instances being variable-free.  The term set is computed once, on
    first use.
    """

    __slots__ = ("atoms", "_terms")

    def __init__(self, atoms: Iterable[Atom] = ()):
        atom_set = frozenset(atoms)
        for a in atom_set:
            for t in a.args:
                if isinstance(t, Variable):
                    raise ValueError(f"instance atom {a} contains variable {t}")
        object.__setattr__(self, "atoms", atom_set)

    @classmethod
    def _of(cls, atoms: frozenset[Atom]) -> "Instance":
        """Wrap an atom set known to be variable-free, without re-checking it."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "atoms", atoms)
        return inst

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __le__(self, other: "Instance") -> bool:
        return self.atoms <= other.atoms

    def __or__(self, other: "Instance | Iterable[Atom]") -> "Instance":
        extra = other.atoms if isinstance(other, Instance) else frozenset(other)
        return Instance(self.atoms | extra)

    def __sub__(self, other: "Instance") -> frozenset[Atom]:
        return self.atoms - other.atoms

    def __repr__(self) -> str:
        return atom_set_str(self.atoms)

    def terms(self) -> frozenset[Term]:
        try:
            return self._terms
        except AttributeError:
            object.__setattr__(self, "_terms", terms_of(self.atoms))
            return self._terms

    def constants(self) -> frozenset[Constant]:
        return constants_of(self.atoms)

    def nulls(self) -> frozenset[Null]:
        return nulls_of(self.atoms)

    def is_ground(self) -> bool:
        return not self.nulls()

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=atom_key)


class Substitution:
    """A partial map on terms, implicitly the identity on every constant.

    Only variables and nulls may appear in the stored domain; binding a
    constant to anything but itself is rejected.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: dict[Term, Term] | Iterable[tuple[Term, Term]] = ()):
        m = dict(mapping)
        for k in [k for k in m if isinstance(k, Constant)]:
            v = m.pop(k)
            if k != v:
                raise ValueError(f"constant {k} cannot be remapped to {v}")
        object.__setattr__(self, "mapping", m)

    @classmethod
    def _of(cls, mapping: dict[Term, Term]) -> "Substitution":
        """Take ownership of a mapping known to bind no constant, without
        re-checking it."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "mapping", mapping)
        return sub

    def __getitem__(self, t: Term) -> Term:
        if isinstance(t, Constant):
            return t
        return self.mapping[t]

    def get(self, t: Term, default: Term | None = None) -> Term | None:
        if isinstance(t, Constant):
            return t
        return self.mapping.get(t, default)

    def __contains__(self, t: Term) -> bool:
        return isinstance(t, Constant) or t in self.mapping

    def __len__(self) -> int:
        return len(self.mapping)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(frozenset(self.mapping.items()))

    def __repr__(self) -> str:
        return "{" + ", ".join(f"{k}->{v}" for k, v in self.items()) + "}"

    def items(self) -> list[tuple[Term, Term]]:
        return sorted(self.mapping.items())  # keys are distinct: images never compared

    def key(self) -> tuple:
        """Canonical sort key: the mapping viewed as a sorted pair list."""
        return tuple(sorted(self.mapping.items()))

    def restrict(self, domain: Iterable[Term]) -> "Substitution":
        dom = set(domain)
        return Substitution._of({k: v for k, v in self.mapping.items() if k in dom})

    def apply_term(self, t: Term) -> Term:
        if isinstance(t, Constant):
            return t
        if isinstance(t, Variable):
            try:
                return self.mapping[t]
            except KeyError:
                raise UnboundVariableError(f"variable {t} has no image") from None
        return self.mapping.get(t, t)  # unmapped nulls pass through

    def apply_atom(self, a: Atom) -> Atom:
        return Atom(a.pred, tuple(self.apply_term(t) for t in a.args))

    def apply(self, atoms: Iterable[Atom]) -> frozenset[Atom]:
        return frozenset(self.apply_atom(a) for a in atoms)


@dataclass(frozen=True)
class Rule:
    """An existential rule body -> head.

    The frontier is the set of variables shared by body and head; head
    variables outside the frontier are existential and get a fresh null at
    each application.  The derived variable sets are computed once per rule.
    """

    rid: str
    body: frozenset[Atom]
    head: frozenset[Atom]

    def __post_init__(self):
        if not self.body:
            raise ValueError(f"rule {self.rid}: empty body")
        if not self.head:
            raise ValueError(f"rule {self.rid}: empty head")
        if nulls_of(self.body) or nulls_of(self.head):
            raise ValueError(f"rule {self.rid}: rules may not contain nulls")

    @cached_property
    def body_vars(self) -> frozenset[Variable]:
        return variables_of(self.body)

    @cached_property
    def head_vars(self) -> frozenset[Variable]:
        return variables_of(self.head)

    @cached_property
    def frontier(self) -> frozenset[Variable]:
        return self.body_vars & self.head_vars

    @cached_property
    def existentials(self) -> frozenset[Variable]:
        return self.head_vars - self.body_vars

    @cached_property
    def sorted_existentials(self) -> tuple[Variable, ...]:
        """The existential variables in the order they receive fresh nulls."""
        return tuple(sorted(self.existentials))

    @cached_property
    def sorted_frontier_atoms(self) -> tuple[Atom, ...]:
        """Body atoms containing at least one frontier variable, in ``str``
        order: the atoms a step's incoming arcs in a derivation graph come
        from, in the order the arcs are inserted."""
        fr = self.frontier
        return tuple(sorted((a for a in self.body if any(t in fr for t in a.args)), key=str))

    def constants(self) -> frozenset[Constant]:
        return constants_of(self.body) | constants_of(self.head)

    def __str__(self) -> str:
        return f"{self.rid}: {atom_list_str(self.body)} -> {atom_list_str(self.head)}."


def frontier_atoms(r: Rule) -> frozenset[Atom]:
    """Body atoms of the rule containing at least one frontier variable
    (``Rule.sorted_frontier_atoms`` as a set)."""
    return frozenset(r.sorted_frontier_atoms)


@dataclass(frozen=True)
class KnowledgeBase:
    """A ground database together with an ordered rule list."""

    database: Instance
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if not self.database.is_ground():
            raise ValueError("database must be ground (no nulls)")
        seen: dict[str, Rule] = {}
        for r in self.rules:
            if r.rid in seen:
                raise ValueError(f"duplicate rule id {r.rid}")
            seen[r.rid] = r

    @cached_property
    def constants(self) -> frozenset[Constant]:
        """Constants of the database and the rules, computed once per KB."""
        cs = set(self.database.constants())
        for r in self.rules:
            cs |= r.constants()
        return frozenset(cs)

    @cached_property
    def width_bound(self) -> int:
        """Uniform bound on node term counts: the larger of the database's
        term count and any rule head's term count, plus the number of KB
        constants; computed once per KB."""
        head_sizes = [len({t for a in r.head for t in a.args}) for r in self.rules]
        return max([len(self.database.terms())] + head_sizes) + len(self.constants)

    def rule_by_id(self, rid: str) -> Rule:
        for r in self.rules:
            if r.rid == rid:
                return r
        raise KeyError(rid)


@dataclass(frozen=True)
class BooleanQuery:
    """A conjunction of atoms over constants and (implicitly existential) variables."""

    atoms: frozenset[Atom]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("query must be non-empty")
        if nulls_of(self.atoms):
            raise ValueError("query may not contain nulls")
