"""Bounded, per-database verdicts for the four derivation-based rule-set classes.

All verdicts are relative to the given database and an enumeration depth:
"holds" means "holds for every derivation of length up to the depth", never
an unbounded claim.  Refutations carry re-checkable certificates; resource
exhaustion is reported as unknown, never as a verdict.

Each class is a derivation property and a quantifier.  The property is
greediness (gbts, wgbts) or a derivation graph with a complete ``full``
reduction (cdgs, wcdgs).  The weak classes quantify over derivable instances
and ask for one good derivation each: one enumeration groups the derivations
by isomorphism up to null renaming (not homomorphic equivalence, an open
choice) under the ``homs.MAX_CANON_NODES`` budget, which yields unknown when
it trips.  A universal class is a weak class over one-member groups, one per
derivation of the lazy stream, so a refutation stops the enumeration.  One
loop gives every verdict: a group with no good member refutes the class with
its shortest member, and a weak class's witness is a group's first good
derivation in (length, DFS) order, searched to the full depth
(DECISIONS.md section 10).

Every class reads the ``dedup="traces"`` stream, one derivation per trace:
length, final instance, greediness and reducibility are trace invariants,
and each certificate or witness is the DFS-first member of its trace, so it
is the one the stream keeps (DECISIONS.md section 5).  Each derivation's
greedy and reducible bits, and its group's key, come from its parent's
(``analysis._walk``, DECISIONS.md section 13): greediness is checked at the
last step, the closed form of reducibility at the last node, and the full
reduction runs only for a wcdgs witness, whose trace the verdict carries.
An unknown verdict names the budget that tripped and its limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import GreedinessReport, _grouped, _walk, is_greedy
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

_REFUTATION_REASONS = {
    "gbts": "non-greedy derivation",
    "wgbts": "instance admits no greedy derivation",
    "cdgs": "derivation graph admits no complete reduction",
    "wcdgs": "no derivation of the instance has a reducible graph",
}


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
    witness: Derivation
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
) -> ClassificationVerdict:
    """Bounded membership verdict for one class, from one derivation per
    trace (``dedup="traces"``).

    gbts: every derivation up to the depth is greedy.
    cdgs: every derivation's graph reduces to a cycle-free graph.
    wgbts: every derivable instance has a greedy derivation up to the depth.
    wcdgs: every derivable instance has a derivation up to the depth whose
      graph is reducible.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    weak = cls in ("wgbts", "wcdgs")
    good = 1 if cls in ("gbts", "wgbts") else 2  # a member's greedy or reducible bit
    try:
        stream = enumerate_derivations(kb.database, kb.rules, depth, dedup="traces")
        if weak:
            groups = _grouped(kb, stream).values()
        else:  # one group per derivation, read lazily
            groups = ((None, [(d, n.greedy, n.reducible)]) for d, n in _walk(kb, stream))
        witnesses: list[GroupWitness] = []
        for target, members in groups:
            members = sorted(members, key=lambda m: len(m[0]))  # stable: (length, DFS) order
            shortest = members[0][0]
            w = next((m[0] for m in members if m[good]), None)
            if w is None:
                report = is_greedy(shortest, kb) if cls == "gbts" else None
                cert = Refutation(shortest, _REFUTATION_REASONS[cls], report, target)
                detail = f"violation at step {report.violations[0][0]}" if report else ""
                return ClassificationVerdict(cls, depth, REFUTED, cert, detail)
            if weak:
                trace = None
                if cls == "wcdgs":
                    trace = reduce_graph(build_derivation_graph(w, kb), "full")
                    if trace is None:
                        raise RuntimeError("a wcdgs witness with a reducible bit has no "
                                           "complete full reduction")
                witnesses.append(GroupWitness(target, len(shortest), w, trace))
        return ClassificationVerdict(cls, depth, HOLDS, tuple(witnesses) if weak else None)
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
