"""Derivation graphs: one node per derivation step, arcs tracking frontier atoms.

Node X0 is decorated with the database; node Xi with the atoms step i
introduced.  An arc (Xi, Xj) exists when some body atom of step j's rule
containing a frontier variable is matched against an atom that step i
introduced; its label is the frontier part of that match, minus constants.
Frontier-atom matching is restricted to body atoms: head atoms do not exist
yet when step j fires, so only body atoms can reach earlier nodes.  When
several frontier atoms of one step hit the same earlier node, the single
arc carries the union of their labels.

Graphs are immutable; the reduction engine produces rewritten copies that
share one ``NodeFacts``: the decorations and every per-node fact derived
from them, computed once per built graph.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Container, Iterable, Mapping

from .chase import Derivation, DerivationStep, Trigger
from .errors import UnknownTermError
from .model import (
    Atom,
    Constant,
    Instance,
    KnowledgeBase,
    Null,
    Rule,
    Term,
    atom_set_str,
    term_set_str,
    terms_of,
)

Arc = tuple[int, int]


@dataclass(frozen=True, eq=False)
class NodeFacts:
    """Everything about a graph's nodes that reduction never changes.

    Reduction rewrites arcs and labels only, so one ``NodeFacts`` is built
    per derivation graph and shared by every reduced copy.  ``terms[i]`` is
    terms(Xi) (the node's terms plus every constant), ``frontier[i]`` the
    frontier image of the node's creating step minus the constants, and
    ``occurrences`` maps each non-constant term to the increasing tuple of
    nodes containing it.  The unions over all nodes, and each node's nulls
    and the nulls it creates, are computed once, on first use.
    """

    at: tuple[frozenset[Atom], ...]
    constants: frozenset[Constant]
    provenance: tuple[tuple[Rule, Trigger] | None, ...]
    terms: tuple[frozenset[Term], ...]
    frontier: tuple[frozenset[Term], ...]
    occurrences: Mapping[Term, tuple[int, ...]]

    @classmethod
    def of(
        cls,
        at: tuple[frozenset[Atom], ...],
        constants: frozenset[Constant],
        provenance: tuple[tuple[Rule, Trigger] | None, ...],
    ) -> "NodeFacts":
        own = [terms_of(atoms) for atoms in at]
        frontier = tuple(
            frozenset() if prov is None
            else frozenset(prov[1].extension.mapping[v] for v in prov[0].frontier) - constants
            for prov in provenance
        )
        occurrences: dict[Term, list[int]] = {}
        for i, ts in enumerate(own):
            for t in ts - constants:
                occurrences.setdefault(t, []).append(i)
        return cls(
            at, constants, provenance,
            tuple(ts | constants for ts in own), frontier,
            MappingProxyType({t: tuple(nodes) for t, nodes in occurrences.items()}),
        )

    @cached_property
    def covered(self) -> frozenset[Term]:
        """The terms of all nodes."""
        return frozenset.union(*self.terms)

    @cached_property
    def decorated(self) -> frozenset[Atom]:
        """The atoms of all nodes."""
        return frozenset().union(*self.at)

    @cached_property
    def width(self) -> int:
        """The largest node term count."""
        return max(map(len, self.terms))

    @cached_property
    def nulls(self) -> tuple[frozenset[Null], ...]:
        """Each node's nulls."""
        held: list[set[Null]] = [set() for _ in self.at]
        for t, nodes in self.occurrences.items():
            if isinstance(t, Null):
                for i in nodes:
                    held[i].add(t)
        return tuple(map(frozenset, held))

    @cached_property
    def creates(self) -> tuple[frozenset[Null], ...]:
        """The nulls each node creates: those whose first node it is."""
        made: list[set[Null]] = [set() for _ in self.at]
        for t, nodes in self.occurrences.items():
            if isinstance(t, Null):
                made[nodes[0]].add(t)
        return tuple(map(frozenset, made))


class DerivationGraph:
    """Decorated DAG over derivation steps; arcs always point forward, and
    each arc's label lies inside its source's terms.

    Node facts are shared with every reduced copy; the parent index and
    the convergence points are computed once per graph from its own arcs,
    or carried over from the graph it was rewritten from, and the nulls
    each node does not reach on first use.
    """

    __slots__ = ("facts", "arcs", "_parents", "_points", "_unreached")

    def __init__(self, facts: NodeFacts, arcs: dict[Arc, frozenset[Term]]):
        n = len(facts.at)
        for (i, j), lbl in sorted(arcs.items()):
            if not 0 <= i < j < n:
                raise ValueError(f"arc ({i},{j}) violates forward orientation")
            if not lbl <= facts.terms[i]:
                raise ValueError(f"label of ({i},{j}) escapes terms(X{i})")
        parents: dict[int, list[int]] = {}
        for (i, j) in sorted(arcs):
            parents.setdefault(j, []).append(i)
        self.facts = facts
        self.arcs = dict(arcs)
        self._parents = {j: tuple(ps) for j, ps in parents.items()}
        self._points = tuple(sorted(j for j, ps in parents.items() if len(ps) > 1))
        self._unreached = None

    def _rewired(self, arcs: dict[Arc, frozenset[Term]], k: int) -> "DerivationGraph":
        """Take ownership of ``arcs``, which differ from this graph's arcs
        only in the arcs into node k: the index is this graph's, with node
        k's entry recomputed.  Only ``reduction._successor`` calls it, with
        the arcs of a move, which keeps every label inside its source's
        terms (DECISIONS.md section 14)."""
        g = object.__new__(DerivationGraph)
        g.facts = self.facts
        g.arcs = arcs
        g._parents = dict(self._parents)
        ps = tuple(sorted(i for (i, j) in arcs if j == k))
        if ps:
            g._parents[k] = ps
        else:
            g._parents.pop(k, None)
        points = [p for p in self._points if p != k]
        if len(ps) > 1:
            insort(points, k)
        g._points = tuple(points)
        g._unreached = None
        return g

    @property
    def at(self) -> tuple[frozenset[Atom], ...]:
        return self.facts.at

    @property
    def constants(self) -> frozenset[Constant]:
        return self.facts.constants

    @property
    def provenance(self) -> tuple[tuple[Rule, Trigger] | None, ...]:
        return self.facts.provenance

    def __len__(self) -> int:
        return len(self.facts.at)

    @property
    def nodes(self) -> range:
        return range(len(self.facts.at))

    def label(self, i: int, j: int) -> frozenset[Term]:
        return self.arcs[(i, j)]

    def node_terms(self, i: int) -> frozenset[Term]:
        """terms(Xi) = terms of the node's atoms plus every constant."""
        return self.facts.terms[i]

    def parents(self, k: int) -> tuple[int, ...]:
        return self._parents.get(k, ())

    def in_degree(self, k: int) -> int:
        return len(self._parents.get(k, ()))

    def convergence_points(self) -> tuple[int, ...]:
        """Nodes with two or more incoming arcs, in index order."""
        return self._points

    def unreached(self) -> tuple[frozenset[Null], ...]:
        """For each node, the nulls it holds but does not reach.

        Node k reaches a null if k creates it, or if a parent of k holds
        the null and reaches it: then a directed path runs from the null's
        generative node to k through nodes holding the null.  Parents come
        before their children, so one pass in index order decides every
        node (DECISIONS.md section 9).
        """
        if self._unreached is None:
            reached: list[frozenset[Null]] = []
            unreached: list[frozenset[Null]] = []
            for k, (held, made) in enumerate(zip(self.facts.nulls, self.facts.creates)):
                missing = held - made
                for p in self._parents.get(k, ()) if missing else ():
                    missing -= reached[p]
                reached.append(held - missing if missing else held)
                unreached.append(missing)
            self._unreached = tuple(unreached)
        return self._unreached

    def __repr__(self) -> str:
        arcs = ", ".join(f"X{i}->X{j}:{term_set_str(lbl)}"
                         for (i, j), lbl in sorted(self.arcs.items()))
        return f"DerivationGraph({len(self.at)} nodes; {arcs})"


def build_derivation_graph(d: Derivation, kb: KnowledgeBase) -> DerivationGraph:
    """The derivation graph of ``d`` over ``kb``.

    Works for derivations starting at the knowledge base's database; a step
    adding no atoms yields a node with an empty decoration.  The KB's
    constants include the database's, so only another initial instance adds
    constants of its own.
    """
    constants = (kb.constants if d.initial is kb.database
                 else kb.constants | d.initial.constants())
    at: list[frozenset[Atom]] = [d.initial.atoms]
    provenance: list[tuple[Rule, Trigger] | None] = [None]
    owner: dict[Atom, int] = {a: 0 for a in d.initial.atoms}
    arcs: dict[Arc, frozenset[Term]] = {}

    for j, step in enumerate(d.steps, start=1):
        at.append(step.new_atoms)
        provenance.append((step.rule, step.trigger))
        for i, lbl in _arcs_into(step, owner, constants).items():
            arcs[(i, j)] = lbl
        for a in step.new_atoms:
            owner[a] = j
    facts = NodeFacts.of(tuple(at), constants, tuple(provenance))
    return DerivationGraph(facts, arcs)


def _arcs_into(step: DerivationStep, owner: Mapping[Atom, int],
               constants: frozenset[Constant]) -> dict[int, frozenset[Term]]:
    """The labels of the arcs into the node of ``step``, by source node:
    each frontier atom of its rule is matched against the atom that node
    added (``owner``), and adds its frontier terms minus the constants."""
    m, fr = step.trigger.hom.mapping, step.rule.frontier
    into: dict[int, frozenset[Term]] = {}
    for fa in step.rule.sorted_frontier_atoms:
        i = owner[Atom(fa.pred, tuple(map(m.get, fa.args, fa.args)))]
        into[i] = into.get(i, frozenset()) | (
            frozenset(m[v] for v in fa.terms() & fr) - constants)
    return into


def node_frontier(g: DerivationGraph, node: int) -> frozenset[Term]:
    """Frontier image of the node's creating step, minus constants.

    Source nodes (no incoming arcs in the *current* graph) have an empty
    frontier by definition; reductions may turn nodes into sources.
    """
    if g.in_degree(node) == 0:
        return frozenset()
    return g.facts.frontier[node]


def x_generative_node(g: DerivationGraph, x: Null) -> int:
    """The earliest node whose non-constant terms contain x."""
    nodes = g.facts.occurrences.get(x)
    if not nodes:
        raise UnknownTermError(f"{x} occurs in no node of the graph")
    return nodes[0]


def adjacency(edges: Iterable[Arc], nodes: Iterable[int]) -> dict[int, list[int]]:
    """Undirected neighbour lists of ``nodes`` (and of every edge endpoint)
    over ``edges``."""
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for (i, j) in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    return adj


def reachable(
    adj: dict[int, list[int]], start: int, within: Container[int] | None = None
) -> set[int]:
    """Nodes reachable from ``start`` through ``adj``, entering only nodes
    in ``within`` when given (``start`` itself is always included)."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen and (within is None or nxt in within):
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True)
class DecompositionReport:
    term_cover: bool
    atom_cover: bool
    connected: bool
    bounded: bool
    bound: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.term_cover and self.atom_cover and self.connected and self.bounded


def check_decomposition_properties(
    g: DerivationGraph, final: Instance, kb: KnowledgeBase
) -> DecompositionReport:
    """The four tree-decomposition-like properties of (reduced) derivation graphs.

    1. node terms cover exactly the final instance's terms (plus the KB
       constants, which every node carries by definition);
    2. every atom of the final instance decorates some node;
    3. for every null, the nodes containing it induce a connected subgraph;
    4. every node's term count respects the KB-size bound.
    """
    facts = g.facts
    failures: list[str] = []
    covered = facts.covered
    terms = final.terms()
    want = terms | g.constants
    term_cover = covered == want
    if not term_cover:
        failures.append(f"term cover: {term_set_str(covered ^ want)} mismatched")

    decorated = facts.decorated
    atom_cover = final.atoms <= decorated
    if not atom_cover:
        failures.append(f"atom cover: missing {atom_set_str(final.atoms - decorated)}")

    # a null that each of its nodes reaches is connected along directed
    # paths, so only the nulls unreached somewhere need the search
    suspects = {x for xs in g.unreached() for x in xs if x in terms}
    split = []  # only these nulls are sorted, for the failure messages
    if suspects:
        undirected = adjacency(g.arcs, g.nodes)
        for x in suspects:
            members = set(facts.occurrences[x])
            if reachable(undirected, min(members), members) != members:
                split.append(x)
    connected = not split
    failures += (f"occurrence subgraph for {x} is disconnected"
                 for x in sorted(split))

    bound = kb.width_bound
    oversized = ([i for i, ts in enumerate(facts.terms) if len(ts) > bound]
                 if facts.width > bound else [])
    bounded = not oversized
    if oversized:
        failures.append(f"nodes {oversized} exceed the term bound {bound}")

    return DecompositionReport(term_cover, atom_cover, connected, bounded, bound, tuple(failures))


def check_generative_paths(g: DerivationGraph) -> list[str]:
    """Directed-path property: from each null's generative node there is a
    directed path to every other node containing that null, running only
    through nodes that contain it and never through a later index.

    Arcs point forward, so every directed path ending at a node runs only
    through earlier nodes; the graph's ``unreached`` pass therefore decides
    every null and node at once, and only its failures are described.

    Returns a list of violation descriptions (empty = property holds), by
    null and then by node.
    """
    occurrences = g.facts.occurrences
    failing = sorted((x, k) for k, xs in enumerate(g.unreached()) for x in xs)
    return [f"no admissible directed path from X{occurrences[x][0]} to X{k} for {x}"
            for x, k in failing]
