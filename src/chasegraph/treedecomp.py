"""Tree decompositions: extraction from reduced graphs, validation, width bound."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .derivgraph import DerivationGraph, adjacency, reachable
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
    def _adjacency(self) -> dict[int, list[int]]:
        """Undirected neighbour lists, built once per decomposition."""
        return adjacency(self.edges, range(len(self.bags)))

    def is_tree(self) -> bool:
        n = len(self.bags)
        return len(self.edges) == n - 1 and len(reachable(self._adjacency, self.root)) == n


def extract_tree_decomposition(g: DerivationGraph) -> TreeDecomposition:
    """Read a reduced cycle-free graph as a tree decomposition.

    Bags are the node term sets and arcs become undirected edges.  A fully
    reduced graph is a forest; its trees are chained together by linking the
    roots (each tree's smallest node) in index order, which cannot break the
    occurrence-connectedness of any term.
    """
    if not is_cycle_free(g):
        raise NotCycleFreeError("graph still has converging arcs")
    bags = tuple(g.node_terms(i) for i in g.nodes)
    edges = {(min(i, j), max(i, j)) for (i, j) in g.arcs}

    undirected = adjacency(g.arcs, g.nodes)
    component: dict[int, int] = {}
    for i in g.nodes:
        if i not in component:
            for n in reachable(undirected, i):
                component[n] = i
    roots = sorted({component[i] for i in g.nodes})
    for a, b in zip(roots, roots[1:]):
        edges.add((a, b))
    return TreeDecomposition(bags, frozenset(edges), roots[0])


def validate_tree_decomposition(td: TreeDecomposition, instance: Instance) -> bool:
    """The three tree-decomposition conditions against an instance.

    (i) the bags cover the instance's terms; (ii) each atom's terms fit in
    one bag; (iii) the bags containing any given term induce a connected
    subtree.  The edge set must itself form a single tree.
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
    occurrences: dict[Term, set[int]] = {}
    for i, bag in enumerate(td.bags):
        for t in bag:
            occurrences.setdefault(t, set()).add(i)
    return all(
        reachable(td._adjacency, min(members), members) == members
        for members in occurrences.values()
    )


def width_bound(kb: KnowledgeBase) -> int:
    """Uniform bound on node term counts (``KnowledgeBase.width_bound``)."""
    return kb.width_bound
