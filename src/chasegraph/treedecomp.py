"""Tree decompositions: extraction from reduced graphs, validation, width bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .derivgraph import DerivationGraph, adjacency
from .errors import NotCycleFreeError
from .model import Instance, KnowledgeBase, Term
from .reduction import is_cycle_free


@dataclass(frozen=True)
class TreeDecomposition:
    """Term bags connected by undirected tree edges; width = max bag size - 1."""

    bags: tuple[frozenset[Term], ...]
    edges: frozenset[tuple[int, int]]
    root: int

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @cached_property
    def _parent(self) -> dict[int, int | None]:
        """Each bag reached from the root, mapped to the bag it was reached
        from (the root to None), by one search over the undirected edges."""
        adj = adjacency(self.edges, range(len(self.bags)))
        parent: dict[int, int | None] = {self.root: None}
        stack = [self.root]
        while stack:
            i = stack.pop()
            for j in adj.get(i, ()):
                if j not in parent:
                    parent[j] = i
                    stack.append(j)
        return parent

    def is_tree(self) -> bool:
        """The edges join the bags, and only the bags, into one tree."""
        n = len(self.bags)
        bags = range(n)
        return (
            self.root in bags
            and all(i in bags and j in bags and i != j for (i, j) in self.edges)
            and len(self.edges) == n - 1
            and len(self._parent) == n
        )


def extract_tree_decomposition(g: DerivationGraph) -> TreeDecomposition:
    """Read a reduced cycle-free graph as a tree decomposition.

    Bags are the node term sets and arcs become undirected edges, each
    already written smaller index first since arcs point forward.  A fully
    reduced graph is a forest; its trees are chained together by linking the
    roots in index order, which cannot break the occurrence-connectedness of
    any term.  Every node has at most one parent and arcs point forward, so
    each tree has exactly one node without a parent, its smallest node: the
    roots are the parentless nodes.
    """
    if not is_cycle_free(g):
        raise NotCycleFreeError("graph still has converging arcs")
    bags = tuple(g.node_terms(i) for i in g.nodes)
    edges = set(g.arcs)
    roots = [i for i in g.nodes if not g.in_degree(i)]
    edges.update(zip(roots, roots[1:]))
    return TreeDecomposition(bags, frozenset(edges), roots[0])


def validate_tree_decomposition(td: TreeDecomposition, instance: Instance) -> bool:
    """The three tree-decomposition conditions against an instance.

    (i) the bags cover the instance's terms; (ii) each atom's terms fit in
    one bag; (iii) the bags containing any given term induce a connected
    subtree.  The edge set must itself form a single tree.  Rooted at
    ``td.root``, the bags holding a term are connected iff exactly one of
    them is the root or has a parent whose bag lacks the term, so (iii)
    takes one set difference per bag: every term of the union must be
    added by exactly one bag.
    """
    if not td.is_tree():
        return False
    union = frozenset().union(*td.bags)
    if not instance.terms() <= union:
        return False
    for a in instance:
        needed = a.terms()
        if not any(needed <= bag for bag in td.bags):
            return False
    bags = td.bags
    added: set[Term] = set()
    for i, p in td._parent.items():
        new = bags[i] if p is None else bags[i] - bags[p]
        if not added.isdisjoint(new):
            return False  # a second bag adds one of these terms
        added |= new
    return True


def width_bound(kb: KnowledgeBase) -> int:
    """Uniform bound on node term counts (``KnowledgeBase.width_bound``)."""
    return kb.width_bound
