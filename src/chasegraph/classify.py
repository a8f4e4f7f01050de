"""Bounded, per-database verdicts for the four derivation-based rule-set classes.

All verdicts are relative to the given database and an enumeration depth:
"holds" means "holds for every derivation of length up to the depth", never
an unbounded claim.  Refutations carry re-checkable certificates; resource
exhaustion is reported as unknown, never as a verdict.

The universal classes quantify over all derivations (greediness for the
greedy bounded-treewidth class, graph reducibility for the cycle-free
derivation-graph class).  The weak variants quantify over derivable
instances and ask for one good derivation each: one enumeration groups them
by isomorphism up to null renaming (not homomorphic equivalence, an open
choice) under the ``homs.MAX_CANON_NODES`` budget, which yields unknown when
it trips.  A witness is a group's first good derivation in (length, DFS) order.

Every class reads the ``dedup="traces"`` stream, one derivation per trace:
length, final instance, greediness and reducibility are trace invariants,
and each certificate or witness is the DFS-first member of its trace, so it
is the one the stream keeps (DECISIONS.md section 5).  An unknown verdict
names the budget that tripped and its limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import GreedinessReport, first_good, group_derivations, is_greedy
from .chase import Derivation, chase_k, enumerate_derivations
from .derivgraph import build_derivation_graph
from .errors import ResourceLimitError
from .homs import hom_exists
from .model import BooleanQuery, Instance, KnowledgeBase
from .reduction import ReductionTrace, reduce_graph

HOLDS = "holds-up-to-depth"
REFUTED = "refuted"
UNKNOWN = "unknown"

CLASSES = ("gbts", "wgbts", "cdgs", "wcdgs")


@dataclass(frozen=True)
class Refutation:
    derivation: Derivation
    reason: str
    greediness: GreedinessReport | None = None
    target: Instance | None = None


@dataclass(frozen=True)
class GroupWitness:
    """One derivable instance (up to null renaming) and its good derivation."""

    target: Instance
    shortest_len: int
    witness: Derivation | None
    trace: ReductionTrace | None = None


@dataclass(frozen=True)
class ClassificationVerdict:
    cls: str
    depth: int
    result: str
    certificate: object = None
    detail: str = ""
    budget: str = ""
    limit: int | None = None

    @property
    def holds(self) -> bool:
        return self.result == HOLDS


def classify(
    kb: KnowledgeBase,
    cls: str,
    depth: int,
    rederivation_bound: str = "shortest",
) -> ClassificationVerdict:
    """Bounded membership verdict for one class, from one derivation per
    trace (``dedup="traces"``).

    gbts: every derivation up to the depth is greedy.
    cdgs: every derivation's graph reduces to a cycle-free graph.
    wgbts: every derivable instance has a greedy derivation (searched up to
      the shortest recorded length for that instance, or the full depth when
      ``rederivation_bound="depth"``).
    wcdgs: every derivable instance has some derivation with a reducible graph.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if rederivation_bound not in ("shortest", "depth"):
        raise ValueError(f"unknown rederivation bound {rederivation_bound!r}")
    try:
        if cls == "gbts":
            for d in enumerate_derivations(kb.database, kb.rules, depth, dedup="traces"):
                report = is_greedy(d, kb)
                if not report.greedy:
                    cert = Refutation(d, "non-greedy derivation", greediness=report)
                    return ClassificationVerdict(
                        cls, depth, REFUTED, cert,
                        f"violation at step {report.violations[0][0]}",
                    )
            return ClassificationVerdict(cls, depth, HOLDS)

        if cls == "cdgs":
            for d in enumerate_derivations(kb.database, kb.rules, depth, dedup="traces"):
                if reduce_graph(build_derivation_graph(d, kb), "full") is None:
                    cert = Refutation(d, "derivation graph admits no complete reduction")
                    return ClassificationVerdict(cls, depth, REFUTED, cert)
            return ClassificationVerdict(cls, depth, HOLDS)

        check = ((lambda d: is_greedy(d, kb).greedy) if cls == "wgbts"
                 else lambda d: reduce_graph(build_derivation_graph(d, kb), "full"))

        witnesses: list[GroupWitness] = []
        groups = group_derivations(kb, depth, rederivation_bound == "shortest")
        for target, members in groups.values():
            shortest = min(members, key=len)
            found = first_good(members, check)
            if found is None:
                reason = ("instance admits no greedy derivation" if cls == "wgbts"
                          else "no derivation of the instance has a reducible graph")
                cert = Refutation(shortest, reason, target=target)
                return ClassificationVerdict(cls, depth, REFUTED, cert)
            w, result = found
            witnesses.append(GroupWitness(target, len(shortest), w,
                                          result if cls == "wcdgs" else None))
        return ClassificationVerdict(cls, depth, HOLDS, tuple(witnesses))
    except ResourceLimitError as exc:
        return ClassificationVerdict(cls, depth, UNKNOWN, detail=str(exc),
                                     budget=exc.budget, limit=exc.limit)


@dataclass(frozen=True)
class SubsumptionReport:
    verdicts: dict[str, ClassificationVerdict]
    implications: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(good for _, good in self.implications)


def subsumption_check(kb: KnowledgeBase, depth: int) -> SubsumptionReport:
    """Cross-validate the four verdicts, one ``classify`` call (and so one
    enumeration) per class.

    The universal class must imply its weak variant, and the greediness
    pipeline must agree with the reduction pipeline outright; a failed
    implication is a bug in exactly one of the two pipelines.
    """
    v = {cls: classify(kb, cls, depth) for cls in CLASSES}
    implications = (
        ("gbts-holds implies wgbts-holds", (not v["gbts"].holds) or v["wgbts"].holds),
        ("cdgs-holds implies wcdgs-holds", (not v["cdgs"].holds) or v["wcdgs"].holds),
        ("gbts verdict equals cdgs verdict", v["gbts"].result == v["cdgs"].result),
        ("wgbts verdict equals wcdgs verdict", v["wgbts"].result == v["wcdgs"].result),
    )
    return SubsumptionReport(v, implications)


@dataclass(frozen=True)
class EntailmentResult:
    entailed: bool
    at_depth: int | None = None

    def __bool__(self) -> bool:
        return self.entailed


def entails(kb: KnowledgeBase, q: BooleanQuery, depth: int) -> EntailmentResult:
    """Sound bounded entailment: search the query in the k-level saturation
    for the least k up to the depth.  A negative answer is only "unknown at
    this depth"."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    current = kb.database
    for k in range(depth + 1):
        if hom_exists(q.atoms, current):
            return EntailmentResult(True, k)
        if k < depth:
            current = chase_k(current, kb.rules, 1)
    return EntailmentResult(False)
