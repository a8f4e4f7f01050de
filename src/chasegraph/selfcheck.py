"""The self-check: every engine check on one derivation (``check_derivation``)
or on the derivations of seeded random knowledge bases (``check_corpus``, run
by ``chasegraph selfcheck`` and the acceptance corpus)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .analysis import is_greedy
from .chase import Derivation, enumerate_derivations
from .derivgraph import (
    build_derivation_graph,
    check_decomposition_properties,
    check_generative_paths,
)
from .errors import ResourceLimitError
from .model import KnowledgeBase
from .randkb import random_kb
from .reduction import check_prefix_invariants, reduce_graph
from .treedecomp import extract_tree_decomposition, validate_tree_decomposition


def check_derivation(d: Derivation, kb: KnowledgeBase) -> tuple[bool, int, list[tuple[str, str]]]:
    """``(greedy, complete traces, failures)`` of ``d``, checking: ``is_greedy``
    against both reductions; decomposition properties and generative paths of
    the graph and of every reduced graph; and per complete trace the prefix
    invariants and a tree decomposition that validates and has no bag above
    ``kb.width_bound``.  Failures are (category, message) pairs, one per
    failing graph or trace (two for a tree decomposition)."""
    failures: list[tuple[str, str]] = []

    def check_graph(g, where: str) -> None:
        if not check_decomposition_properties(g, d.final, kb).ok:
            failures.append(("decomposition", f"decomposition properties fail on {where}"))
        if check_generative_paths(g):
            failures.append(("path", f"generative paths fail on {where}"))

    graph = build_derivation_graph(d, kb)
    greedy = is_greedy(d, kb).greedy
    cr_trace = reduce_graph(graph, "cr-only")
    full_trace = reduce_graph(graph, "full")
    check_graph(graph, "the graph")
    traces = [t for t in (cr_trace, full_trace) if t is not None]
    for trace in traces:
        if not check_prefix_invariants(trace).ok:
            failures.append(("prefix", "prefix invariants fail"))
        for reduced in trace.graphs[1:]:
            check_graph(reduced, "a reduced graph")
        td = extract_tree_decomposition(trace.final)
        if not validate_tree_decomposition(td, d.final):
            failures.append(("td", "tree decomposition does not validate"))
        bag = max(len(b) for b in td.bags)
        if bag > kb.width_bound:
            failures.append(("td", f"bag of {bag} terms exceeds width_bound {kb.width_bound}"))
    cr_complete, full_complete = cr_trace is not None, full_trace is not None
    if not (greedy == cr_complete == full_complete):
        failures.append(("equivalence",
                         f"greedy={greedy} cr-only={cr_complete} full={full_complete}"))
    return greedy, len(traces), failures


@dataclass
class CorpusReport:
    kbs: int = 0
    skipped: int = 0
    derivations: int = 0
    nongreedy: int = 0
    complete_traces: int = 0
    # (draw, rule ids, category, message); draws count from 0, skipped KBs included
    failures: list[tuple[int, tuple[str, ...], str, str]] = field(default_factory=list)


def check_corpus(seed: int, kbs: int, max_len: int, budget: int) -> CorpusReport:
    """Run ``check_derivation`` on each derivation of up to ``max_len`` steps
    of the first ``kbs`` KBs from ``random_kb(random.Random(seed))`` that
    have at most ``budget`` of them; the others are skipped and counted."""
    rng, report = random.Random(seed), CorpusReport()
    while report.kbs < kbs:
        draw = report.kbs + report.skipped
        kb = random_kb(rng)
        try:
            derivations = list(enumerate_derivations(kb.database, kb.rules, max_len,
                                                     max_derivations=budget))
        except ResourceLimitError:
            report.skipped += 1
            continue
        report.kbs += 1
        for d in derivations:
            greedy, complete_traces, failures = check_derivation(d, kb)
            report.derivations += 1
            report.nongreedy += not greedy
            report.complete_traces += complete_traces
            report.failures += [(draw, d.rule_ids(), *f) for f in failures]
    return report
