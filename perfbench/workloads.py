"""The benchmark's four workloads: their questions and the checks on every answer.

A workload is built once per process (``build``) and then asked its fixed
set of questions once per round.  Each question is an ``Op``: ``answer`` is
the timed call into chasegraph, ``check`` compares the answer with what the
engine answered when ``expected.json`` was recorded and with the engine's
own cross-checks, and ``full_check`` re-checks certificates and derivation
ids once per run, after timing stops.

All calls go through module attributes (``chase.enumerate_derivations``),
so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import gen

analysis = importlib.import_module("chasegraph.analysis")
chase = importlib.import_module("chasegraph.chase")
classify_mod = importlib.import_module("chasegraph.classify")
derivgraph = importlib.import_module("chasegraph.derivgraph")
docparse = importlib.import_module("chasegraph.docparse")
errors = importlib.import_module("chasegraph.errors")
homs = importlib.import_module("chasegraph.homs")
reduction = importlib.import_module("chasegraph.reduction")
render = importlib.import_module("chasegraph.render")
treedecomp = importlib.import_module("chasegraph.treedecomp")

WORKLOADS = ("enumerate", "classify-weak", "reduce-long", "corpus")
CLASSES = ("gbts", "cdgs", "wgbts", "wcdgs")  # each universal class before its weak pair
HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# The selfcheck settings the corpus runs under (`chasegraph selfcheck`).
CORPUS_DEPTH = 3
CORPUS_BUDGET = 2000
# The corpus is the first CORPUS_KBS generator seeds whose KB fits the budget
# at the commit that recorded expected.json; `chasegraph selfcheck` skips
# over-budget KBs the same way.  Every run asks the same KBs: per-KB cost is
# heavy-tailed (the slowest 5% take about 60% of the time), so a seed-chosen
# subset would move answer_s by more than any usable bound.
CORPUS_KBS = 100
# reduce-long runs the pipeline on every REDUCE_STRIDE-th maximal-length
# derivation of each source.  The choice does not depend on the seed: the
# pipeline's cost per derivation is heavy-tailed too, and its p98 latency
# over a seed-chosen offset swung by 30% between offsets.
REDUCE_STRIDE = 16


class Refused(Exception):
    """An op that exceeded a budget or ended ``unknown``: it counts as
    failed, not as wrong."""


@dataclass
class Op:
    label: str
    answer: Callable[[], Any]
    check: Callable[[Any], list[str]]
    full_check: Callable[[Any], list[str]] = field(default=lambda _answer: [])
    # Ops with the same input share one per-input latency sample (the
    # kb_* metrics); by default each op has an input of its own.
    input: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    inputs: str  # one line describing the generated inputs


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def sample_text(root: Path, name: str) -> str:
    return (root / "samples" / f"{name}.rules").read_text()


def parse_kb(text: str):
    return docparse.parse_document(text).knowledge_base()


def fingerprint(derivations) -> str:
    """Hash of the ``derivation_key`` sequence: it pins derivation ids and is
    invariant under null renaming and predicate renaming."""
    h = hashlib.sha256()
    for d in derivations:
        h.update(repr(chase.derivation_key(d)).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def enumerate_questions(root: Path) -> list[tuple[str, str, int]]:
    """(label, text, depth) for each enumeration the workload asks."""
    return [
        ("join d6", sample_text(root, "join"), 6),
        ("chain d7", sample_text(root, "chain"), 7),
        ("joinfam3 d4", gen.join_family(3), 4),
        ("chainfam3 d6", gen.chain_family(3), 6),
    ]


def count_derivations(kb, depth: int) -> int:
    """Consume the default (``dedup="none"``) enumeration as a stream."""
    n = 0
    for _ in chase.enumerate_derivations(kb.database, kb.rules, depth):
        n += 1
    return n


def build_enumerate(root: Path, seed: int, expected: dict) -> Workload:
    ops = []
    for label, text, depth in enumerate_questions(root):
        kb = parse_kb(gen.rename_predicates(text, seed))
        want = expected[label]

        def full_check(_n, kb=kb, depth=depth, want=want, label=label):
            stream = chase.enumerate_derivations(kb.database, kb.rules, depth)
            return _mismatch(f"{label} fingerprint", fingerprint(stream), want["fingerprint"])

        ops.append(Op(
            label,
            lambda kb=kb, depth=depth: count_derivations(kb, depth),
            lambda n, want=want, label=label: _mismatch(f"{label} count", n, want["count"]),
            full_check,
        ))
    return Workload(ops, "samples and families, predicates renamed by seed")


# ---------------------------------------------------------------------------
# classify-weak
# ---------------------------------------------------------------------------

def classify_questions(root: Path) -> list[tuple[str, str, int]]:
    """(kb label, text, depth); every question is asked for all four classes.

    join.rules at depth 5 is left out: its weak classes take 150 s each.
    """
    join, chain = sample_text(root, "join"), sample_text(root, "chain")
    return [
        ("join", join, 3),
        ("join", join, 4),
        ("chain", chain, 3),
        ("chain", chain, 4),
        ("chain", chain, 5),
        ("chainfam3", gen.chain_family(3), 4),
    ]


def classify_answer(kb, cls: str, depth: int):
    verdict = classify_mod.classify(kb, cls, depth)
    if verdict.result == classify_mod.UNKNOWN:
        raise Refused(f"{cls} unknown: {verdict.detail}")
    return verdict, json.dumps(render.verdict_json(verdict))


def certificate_digest(verdict) -> str | None:
    """Derivation keys of a verdict's certificate: the refuting derivation,
    or each witness with its recorded shortest length."""
    cert = verdict.certificate
    if cert is None:
        return None
    if isinstance(cert, classify_mod.Refutation):
        parts = [repr(chase.derivation_key(cert.derivation))]
    else:
        parts = [
            repr((w.shortest_len, chase.derivation_key(w.witness) if w.witness else None))
            for w in cert
        ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def check_certificate(kb, cls: str, verdict) -> list[str]:
    """Re-check a verdict's certificate with the engine's own functions."""
    problems = []
    cert = verdict.certificate
    if isinstance(cert, classify_mod.Refutation):
        try:
            cert.derivation.validate()
        except ValueError as exc:
            problems.append(f"refutation derivation invalid: {exc}")
        if cls == "gbts" and analysis.is_greedy(cert.derivation, kb).greedy:
            problems.append("gbts refutation derivation is greedy")
        if cls == "cdgs":
            graph = derivgraph.build_derivation_graph(cert.derivation, kb)
            if reduction.reduce_graph(graph, "full") is not None:
                problems.append("cdgs refutation derivation reduces")
        if cls in ("wgbts", "wcdgs") and (
            cert.target is None
            or homs.isomorphic_mod_nulls(cert.derivation.final, cert.target) is None
        ):
            problems.append("weak refutation derivation does not build its target")
    elif isinstance(cert, tuple):
        for w in cert:
            if w.witness is None:
                problems.append("weak witness missing")
                continue
            try:
                w.witness.validate()
            except ValueError as exc:
                problems.append(f"witness invalid: {exc}")
            if homs.isomorphic_mod_nulls(w.witness.final, w.target) is None:
                problems.append("witness is not isomorphic to its target")
            if cls == "wgbts" and not analysis.is_greedy(w.witness, kb).greedy:
                problems.append("wgbts witness is not greedy")
            if cls == "wcdgs":
                if w.trace is None or not w.trace.complete:
                    problems.append("wcdgs witness has no complete trace")
                else:
                    try:
                        w.trace.replay()
                    except ValueError as exc:
                        problems.append(f"wcdgs trace does not replay: {exc}")
    return problems


def build_classify(root: Path, seed: int, expected: dict) -> Workload:
    ops = []
    results: dict[str, str] = {}  # label -> result, this round
    for name, text, depth in classify_questions(root):
        kb = parse_kb(gen.rename_predicates(text, seed))
        for cls in CLASSES:
            label = f"{name} d{depth} {cls}"
            want = expected[label]
            pair = {"cdgs": "gbts", "wcdgs": "wgbts"}.get(cls)
            pair_label = f"{name} d{depth} {pair}" if pair else None

            def check(answer, label=label, want=want, pair_label=pair_label):
                verdict, text = answer
                results[label] = verdict.result
                problems = _mismatch(f"{label} verdict", verdict.result, want["result"])
                if json.loads(text)["result"] != verdict.result:
                    problems.append(f"{label}: JSON disagrees with the verdict")
                if pair_label and results.get(pair_label) != verdict.result:
                    problems.append(f"{label} disagrees with {pair_label}")
                return problems

            def full_check(answer, kb=kb, cls=cls, label=label, want=want):
                verdict, _ = answer
                return check_certificate(kb, cls, verdict) + _mismatch(
                    f"{label} certificate", certificate_digest(verdict), want["certificate"])

            ops.append(Op(
                label,
                lambda kb=kb, cls=cls, depth=depth: classify_answer(kb, cls, depth),
                check, full_check, input=f"{name} d{depth}",
            ))
    return Workload(ops, "samples and families, predicates renamed by seed")


# ---------------------------------------------------------------------------
# the selfcheck pipeline (reduce-long and corpus)
# ---------------------------------------------------------------------------

@dataclass
class PipelineRow:
    greedy: bool
    problems: list[str]


def pipeline(d, kb, bound: int) -> PipelineRow:
    """The acceptance suite's per-derivation pipeline: greediness, graph,
    both reductions, decomposition and path properties of every graph,
    prefix invariants of every complete trace, and a tree decomposition
    per complete trace."""
    problems = []
    graph = derivgraph.build_derivation_graph(d, kb)
    greedy = analysis.is_greedy(d, kb).greedy
    cr_trace = reduction.reduce_graph(graph, "cr-only")
    full_trace = reduction.reduce_graph(graph, "full")
    if not derivgraph.check_decomposition_properties(graph, d.final, kb).ok:
        problems.append("decomposition properties fail on the graph")
    if derivgraph.check_generative_paths(graph):
        problems.append("generative paths fail on the graph")
    for trace in (cr_trace, full_trace):
        if trace is None:
            continue
        if not reduction.check_prefix_invariants(trace).ok:
            problems.append("prefix invariants fail")
        for reduced in trace.graphs[1:]:
            if not derivgraph.check_decomposition_properties(reduced, d.final, kb).ok:
                problems.append("decomposition properties fail on a reduced graph")
            if derivgraph.check_generative_paths(reduced):
                problems.append("generative paths fail on a reduced graph")
        td = treedecomp.extract_tree_decomposition(trace.final)
        if not treedecomp.validate_tree_decomposition(td, d.final):
            problems.append("tree decomposition does not validate")
        bag = max(len(b) for b in td.bags)
        if bag > bound:
            problems.append(f"bag of {bag} terms exceeds width_bound {bound}")
    cr_complete, full_complete = cr_trace is not None, full_trace is not None
    if not (greedy == cr_complete == full_complete):
        problems.append(f"greedy={greedy} cr-only={cr_complete} full={full_complete}")
    return PipelineRow(greedy, problems)


# ---------------------------------------------------------------------------
# reduce-long
# ---------------------------------------------------------------------------

def reduce_sources(root: Path) -> list[tuple[str, str, int]]:
    return [
        ("chain d7", sample_text(root, "chain"), 7),
        ("chain d6", sample_text(root, "chain"), 6),
        ("join d5", sample_text(root, "join"), 5),
    ]


def maximal_derivations(kb, depth: int):
    """The derivations of length exactly ``depth``, in enumeration order."""
    for d in chase.enumerate_derivations(kb.database, kb.rules, depth):
        if len(d) == depth:
            yield d


def greedy_bits(bits: str, index: int) -> bool:
    return bool(int(bits[index // 4], 16) >> (3 - index % 4) & 1)


def build_reduce(root: Path, seed: int, expected: dict) -> Workload:
    ops = []
    for src, text, depth in reduce_sources(root):
        kb = parse_kb(gen.rename_predicates(text, seed))
        bound = treedecomp.width_bound(kb)
        want = expected[src]
        total = 0
        for i, d in enumerate(maximal_derivations(kb, depth)):
            total += 1
            if i % REDUCE_STRIDE:
                continue
            want_greedy = greedy_bits(want["greedy_bits"], i)
            ops.append(Op(
                f"{src} #{i}",
                lambda d=d, kb=kb, bound=bound: pipeline(d, kb, bound),
                lambda row, want_greedy=want_greedy: row.problems + _mismatch(
                    "greedy", row.greedy, want_greedy),
                input=src,
            ))
        if total != want["maximal"]:
            raise RuntimeError(f"{src}: {total} maximal derivations, expected {want['maximal']}")
    return Workload(
        ops,
        f"every {REDUCE_STRIDE}th maximal derivation, predicates renamed by seed",
    )


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

@dataclass
class CorpusAnswer:
    derivations: list
    rows: list[PipelineRow]
    verdicts: dict


def corpus_answer(text: str) -> CorpusAnswer:
    """Parse one KB, enumerate it under the selfcheck budget, run the
    pipeline on every derivation, and classify it in all four classes."""
    kb = docparse.parse_document(text).knowledge_base()
    try:
        derivations = list(chase.enumerate_derivations(
            kb.database, kb.rules, CORPUS_DEPTH,
            dedup="mod-nulls", max_derivations=CORPUS_BUDGET,
        ))
    except errors.ResourceLimitError as exc:
        raise Refused(str(exc)) from None
    bound = treedecomp.width_bound(kb)
    rows = [pipeline(d, kb, bound) for d in derivations]
    verdicts = {cls: classify_mod.classify(kb, cls, CORPUS_DEPTH) for cls in CLASSES}
    unknown = [cls for cls, v in verdicts.items() if v.result == classify_mod.UNKNOWN]
    if unknown:
        raise Refused(f"unknown verdicts: {unknown}")
    return CorpusAnswer(derivations, rows, verdicts)


def corpus_summary(ans: CorpusAnswer) -> dict:
    """What ``expected.json`` pins for one corpus KB; ``check_corpus``
    compares all of it but the fingerprint, which ``full_check`` compares."""
    return {
        "count": len(ans.derivations),
        "nongreedy": sum(not r.greedy for r in ans.rows),
        "verdicts": [ans.verdicts[c].result for c in CLASSES],
        "fingerprint": fingerprint(ans.derivations),
    }


def check_corpus(ans: CorpusAnswer, want: dict) -> list[str]:
    problems = [p for r in ans.rows for p in r.problems]
    v = {c: ans.verdicts[c].result for c in CLASSES}
    if v["gbts"] != v["cdgs"]:
        problems.append(f"gbts {v['gbts']} != cdgs {v['cdgs']}")
    if v["wgbts"] != v["wcdgs"]:
        problems.append(f"wgbts {v['wgbts']} != wcdgs {v['wcdgs']}")
    problems += _mismatch("count", len(ans.derivations), want["count"])
    problems += _mismatch("nongreedy", sum(not r.greedy for r in ans.rows), want["nongreedy"])
    problems += _mismatch("verdicts", list(v.values()), want["verdicts"])
    return problems


def build_corpus(root: Path, seed: int, expected: dict) -> Workload:
    kb_seeds = sorted(int(k) for k in expected["kbs"])
    random.Random(seed).shuffle(kb_seeds)
    ops = []
    for kb_seed in kb_seeds:
        text = gen.rename_predicates(gen.corpus_kb(kb_seed), seed)
        want = expected["kbs"][str(kb_seed)]
        ops.append(Op(
            f"kb {kb_seed}",
            lambda text=text: corpus_answer(text),
            lambda ans, want=want: check_corpus(ans, want),
            lambda ans, want=want: _mismatch(
                "fingerprint", fingerprint(ans.derivations), want["fingerprint"]),
        ))
    skipped = len(expected["skipped"])
    return Workload(
        ops,
        f"{len(ops)} generated KBs ({skipped} over-budget seeds skipped), "
        "predicates renamed and order shuffled by seed",
    )


BUILDERS = {
    "enumerate": build_enumerate,
    "classify-weak": build_classify,
    "reduce-long": build_reduce,
    "corpus": build_corpus,
}


def build(name: str, root: Path, seed: int) -> Workload:
    return BUILDERS[name](root, seed, load_expected()[name])
