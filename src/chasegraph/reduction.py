"""The three reduction operations on derivation graphs, and reduction search.

Arc removal deletes an empty-labeled arc.  Term removal deletes a term from
one of two converging arcs that both carry it.  Cycle removal redirects two
converging arcs onto a single earlier node whose terms cover both labels.
All three touch only arcs and labels, never nodes or decorations.

Each operation is defined once: ``_moves`` yields exactly the steps that
apply to a graph, and each step class rewrites the arcs itself.
``apply_step`` accepts a step iff ``_moves`` offers it (DECISIONS.md
section 6), and both search strategies follow one path that differs only
in the step each picks at a graph.  No move changes the union of the
labels into a node or takes a label outside its source's terms, so a
graph reduces iff each convergence point has an earlier node covering
the labels into it, and no move turns a reducible graph into an
irreducible one: the full search stops at once on a graph that does not
reduce, and otherwise takes the first move offered and never backtracks
(DECISIONS.md section 7).

A graph counts as cycle-free when no node has two incoming arcs: every
node keeps at most one parent, which makes the underlying undirected graph
a forest and lets each non-source node inherit its frontier from a single
earlier node.  Reduction search ends exactly when that shape is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import attrgetter
from typing import Callable, Iterator, Union

from .derivgraph import Arc, DerivationGraph
from .errors import ResourceLimitError, SideConditionViolatedError
from .model import Term

DEFAULT_MAX_STATES = 10**5


@dataclass(frozen=True)
class ArStep:
    i: int
    j: int

    @property
    def node(self) -> int:
        return self.j

    def describe(self) -> str:
        return f"ar[{self.i},{self.j}]"

    def rewrite(self, arcs: dict[Arc, frozenset[Term]]) -> None:
        del arcs[(self.i, self.j)]


@dataclass(frozen=True)
class TrStep:
    i: int
    j: int
    k: int
    t: Term

    @property
    def node(self) -> int:
        return self.k

    def describe(self) -> str:
        return f"tr[{self.i},{self.j},{self.k},{self.t}]"

    def rewrite(self, arcs: dict[Arc, frozenset[Term]]) -> None:
        arcs[(self.j, self.k)] = arcs[(self.j, self.k)] - {self.t}


@dataclass(frozen=True)
class CrStep:
    i: int
    j: int
    k: int
    l: int

    @property
    def node(self) -> int:
        return self.k

    def describe(self) -> str:
        return f"cr[{self.i},{self.j},{self.k},{self.l}]"

    def rewrite(self, arcs: dict[Arc, frozenset[Term]]) -> None:
        union = arcs.pop((self.i, self.k)) | arcs.pop((self.j, self.k))
        arcs[(self.l, self.k)] = arcs.get((self.l, self.k), frozenset()) | union


ReductionStep = Union[ArStep, TrStep, CrStep]


def _cr_moves(g: DerivationGraph, k: int) -> Iterator[CrStep]:
    """The cycle removals at convergence point k: parent pairs in order,
    then witnesses in index order."""
    arcs = g.arcs
    terms = g.facts.terms
    for i, j in combinations(g.parents(k), 2):
        union = arcs[(i, k)] | arcs[(j, k)]
        for l in range(k):
            if union <= terms[l]:
                yield CrStep(i, j, k, l)


def _ar_moves(g: DerivationGraph) -> Iterator[ArStep]:
    """The arc removals: every empty-labeled arc, in arc order."""
    for (i, j) in sorted(arc for arc, lbl in g.arcs.items() if not lbl):
        yield ArStep(i, j)


def _point_moves(g: DerivationGraph, k: int) -> Iterator[Union[TrStep, CrStep]]:
    """The term and cycle removals at node k (none unless k is a
    convergence point): term removals by ordered parent pair and term, then
    cycle removals."""
    arcs = g.arcs
    parents = g.parents(k)
    for i in parents:
        for j in parents:
            if i == j:
                continue
            shared = arcs[(i, k)] & arcs[(j, k)]
            for t in sorted(shared):
                yield TrStep(i, j, k, t)
    yield from _cr_moves(g, k)


def _moves(g: DerivationGraph) -> Iterator[ReductionStep]:
    """All applicable reduction steps, in a fixed deterministic order: the
    one definition of when arc, term and cycle removal apply."""
    return chain(_ar_moves(g), *(_point_moves(g, k) for k in g.convergence_points()))


def _successor(g: DerivationGraph, step: ReductionStep) -> DerivationGraph:
    arcs = dict(g.arcs)
    step.rewrite(arcs)
    return g._rewired(arcs, step.node)


def apply_step(g: DerivationGraph, step: ReductionStep) -> DerivationGraph:
    """Apply one step; its side condition is that ``_moves(g)`` offers it.

    Only the part of ``_moves`` that can yield the step is searched: the
    arc removals, or the term and cycle removals at the step's own node
    (DECISIONS.md section 9).
    """
    if step not in (_ar_moves(g) if type(step) is ArStep else _point_moves(g, step.node)):
        raise SideConditionViolatedError(f"{step.describe()} does not apply to this graph")
    return _successor(g, step)


def apply_ar(g: DerivationGraph, i: int, j: int) -> DerivationGraph:
    """Remove the arc (Xi, Xj); its label must be empty."""
    return apply_step(g, ArStep(i, j))


def apply_tr(g: DerivationGraph, i: int, j: int, k: int, t: Term) -> DerivationGraph:
    """Remove term t from the label of (Xj, Xk); (Xi, Xk) must also carry t."""
    return apply_step(g, TrStep(i, j, k, t))


def apply_cr(g: DerivationGraph, i: int, j: int, k: int, l: int) -> DerivationGraph:
    """Replace converging arcs (Xi, Xk), (Xj, Xk) by (Xl, Xk) labeled with
    their union; Xl must be earlier than Xk and its terms must cover the union."""
    return apply_step(g, CrStep(min(i, j), max(i, j), k, l))


def is_cycle_free(g: DerivationGraph) -> bool:
    """True iff no node has two incoming arcs.

    With all arcs oriented forward, that single-parent condition also rules
    out undirected cycles (any undirected cycle must contain a node where
    two of its arcs converge), so the underlying graph is a forest.
    """
    return not g.convergence_points()


@dataclass(frozen=True)
class ReductionTrace:
    """A reduction: an initial graph and the steps applied to it, each
    checked by ``apply_step``, with every intermediate graph."""

    initial: DerivationGraph
    steps: tuple[ReductionStep, ...]
    graphs: tuple[DerivationGraph, ...] = field(init=False)  # graphs[p] = result after p steps

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        graphs = [self.initial]
        for step in self.steps:
            graphs.append(apply_step(graphs[-1], step))
        object.__setattr__(self, "graphs", tuple(graphs))

    @classmethod
    def _of(cls, steps: tuple[ReductionStep, ...],
            graphs: tuple[DerivationGraph, ...]) -> "ReductionTrace":
        """The trace of ``steps`` through ``graphs``, taken as given: for
        ``_path``, whose every step is a move of the graph before it, so
        its graphs are the ones the constructor builds (DECISIONS.md
        section 14)."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "initial", graphs[0])
        object.__setattr__(trace, "steps", steps)
        object.__setattr__(trace, "graphs", graphs)
        return trace

    @property
    def final(self) -> DerivationGraph:
        return self.graphs[-1]

    @property
    def complete(self) -> bool:
        return is_cycle_free(self.final)

    def replay(self) -> None:
        """Re-apply the steps, each with its side condition, and verify the
        arcs and labels of every recorded graph."""
        g = self.initial
        for p, step in enumerate(self.steps, start=1):
            g = apply_step(g, step)
            if g.arcs != self.graphs[p].arcs:
                raise ValueError(f"replay diverges after step {p} ({step.describe()})")


class _StateBudget:
    """The states one ``reduce_graph`` call may visit on its path."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimitError(f"reduction search exceeded {self.limit} states",
                                     budget="reduction-states", limit=self.limit)


def _path(g: DerivationGraph, budget: _StateBudget,
          pick: Callable[[DerivationGraph], ReductionStep | None]) -> ReductionTrace | None:
    """Follow ``pick`` from ``g`` while the graph has a convergence point,
    spending one unit of ``budget`` at each such graph; None as soon as
    ``pick`` gives no step.  Every move strictly shrinks the arc count plus
    the total label size, so the path never meets a graph twice and takes
    at most that many steps (DECISIONS.md sections 6 and 7).  Picks are
    applied without re-checking their side conditions (section 14)."""
    steps: list[ReductionStep] = []
    graphs = [g]
    while not is_cycle_free(graphs[-1]):
        budget.spend()
        step = pick(graphs[-1])
        if step is None:
            return None
        steps.append(step)
        graphs.append(_successor(graphs[-1], step))
    return ReductionTrace._of(tuple(steps), tuple(graphs))


def _cr_pick(h: DerivationGraph) -> CrStep | None:
    """The cr-only step: at the earliest convergence point, the cycle
    removal with the smallest witness (the first parent pair among ties)."""
    # _path never asks a cycle-free graph, so there is a convergence point
    return min(_cr_moves(h, h.convergence_points()[0]), key=attrgetter("l"), default=None)


def _reducible(g: DerivationGraph) -> bool:
    """Whether each convergence point k has an earlier node whose terms
    cover the union of the labels into k: iff g reduces (DECISIONS.md section 7)."""
    arcs, terms = g.arcs, g.facts.terms
    for k in g.convergence_points():
        into = frozenset().union(*[arcs[(i, k)] for i in g.parents(k)])
        if not any(into <= terms[l] for l in range(k)):
            return False
    return True


_STRATEGIES = {"cr-only": _cr_pick, "full": lambda h: next(_moves(h))}


def reduce_graph(
    g: DerivationGraph,
    strategy: str = "cr-only",
    max_states: int = DEFAULT_MAX_STATES,
) -> ReductionTrace | None:
    """Search for a complete reduction sequence; None means none exists.

    ``cr-only`` greedily removes the earliest convergence point with the
    smallest admissible witness node.  ``full`` is the ground truth for
    reducibility: it returns None at the root of a graph where some
    convergence point has no earlier node covering the labels into it,
    and otherwise takes the first move ``_moves`` offers at each graph.
    No move turns a reducible graph into an irreducible one, so that path
    is the first trace of the exhaustive depth-first search (DECISIONS.md
    section 7).  Both strategies spend one unit of ``max_states`` per
    graph on their path that has a convergence point, and raise
    ResourceLimitError rather than misreporting when capped.  A cr-only
    run visits at most one state per arc, plus one; a full run visits one
    state on an irreducible graph, and otherwise at most one per arc and
    per label term.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "full" and not _reducible(g):
        _StateBudget(max_states).spend()  # the one state an irreducible graph costs
        return None
    return _path(g, _StateBudget(max_states), _STRATEGIES[strategy])


@dataclass(frozen=True)
class PrefixInvariantReport:
    frontier_matches: bool
    frontier_witness: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.frontier_matches and self.frontier_witness


def check_prefix_invariants(trace: ReductionTrace) -> PrefixInvariantReport:
    """Invariants that every prefix of a reduction sequence maintains.

    (a) a node with parents has frontier equal to the union of its incoming
        labels;
    (c) for complete traces only: in every prefix, each non-source node has
        an earlier node whose terms cover its frontier.

    (Invariant (b), every label inside its source's terms, is enforced by
    the graph constructor and kept by every move: DECISIONS.md section 14.)
    Every prefix of a trace is its predecessor rewritten at one node, the
    step's, under the initial graph's node facts.  Both invariants read a
    node's incoming arcs and its static facts only, so the first graph is
    checked in full and each later prefix at the step's node alone; the
    failing nodes carry over from one prefix to the next (DECISIONS.md
    section 9).  Failures are listed by prefix, then by invariant, then by
    node.
    """
    terms, frontier = trace.initial.facts.terms, trace.initial.facts.frontier
    check_witness = trace.complete
    unmatched: set[int] = set()  # (a)
    unwitnessed: set[int] = set()  # (c)

    def recheck(g: DerivationGraph, n: int) -> None:
        """Recompute node n's entries of the two failing sets."""
        unmatched.discard(n)
        unwitnessed.discard(n)
        parents = g.parents(n)
        if not parents:
            return
        if frontier[n] != frozenset().union(*[g.arcs[(i, n)] for i in parents]):
            unmatched.add(n)
        if check_witness and not any(frontier[n] <= terms[m] for m in range(n)):
            unwitnessed.add(n)

    failures: list[str] = []
    fr_ok = wit_ok = True
    for p, g in enumerate(trace.graphs):
        for n in (trace.steps[p - 1].node,) if p else g.nodes:
            recheck(g, n)
        if not (unmatched or unwitnessed):
            continue
        fr_ok &= not unmatched
        wit_ok &= not unwitnessed
        failures += (f"prefix {p}: frontier of X{n} != union of incoming labels"
                     for n in sorted(unmatched))
        failures += (f"prefix {p}: no earlier node covers the frontier of X{n}"
                     for n in sorted(unwitnessed))
    return PrefixInvariantReport(fr_ok, wit_ok, tuple(failures))
