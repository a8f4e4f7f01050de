"""Command-line frontend.

Exit codes: 0 for success / holds / entailed, 1 for refuted / irreducible /
unknown-at-depth, 2 for usage and parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import render
from .analysis import is_greedy, rule_dependency_graph
from .chase import Derivation, chase_k, enumerate_derivations
from .classify import CLASSES, classify, entails
from .derivgraph import build_derivation_graph
from .docparse import RuleDocument, parse_document, print_document
from .errors import EngineError, ParseError, ResourceLimitError
from .model import KnowledgeBase, term_set_str
from .reduction import ReductionTrace, check_prefix_invariants, reduce_graph
from .selfcheck import check_corpus
from .treedecomp import extract_tree_decomposition, validate_tree_decomposition


def _load(path: str) -> RuleDocument:
    return parse_document(Path(path).read_text())


def _int_at_least(minimum: int):
    """An argparse ``type`` for integers >= minimum; anything else is a
    usage error (exit 2), not a traceback."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-len", type=_int_at_least(0), default=4,
                   help="enumeration length bound used to resolve derivation ids")


def _select_derivation(kb: KnowledgeBase, index: int, max_len: int) -> Derivation:
    for i, d in enumerate(enumerate_derivations(kb.database, kb.rules, max_len)):
        if i == index:
            return d
    raise EngineError(f"no derivation with id {index} (enumeration bound --max-len {max_len})")


def _derivation_line(i: int, d: Derivation) -> str:
    rules = " ".join(d.rule_ids()) if len(d) else "<empty>"
    return f"{i}: len={len(d)} rules=[{rules}] atoms={len(d.final)}"


def cmd_parse(args) -> int:
    doc = _load(args.file)
    sys.stdout.write(print_document(doc))
    return 0


def cmd_chase(args) -> int:
    kb = _load(args.file).knowledge_base()
    inst = chase_k(kb.database, kb.rules, args.depth)
    if args.json:
        sys.stdout.write(render.dumps({"depth": args.depth, "atoms": render.instance_json(inst)}))
    else:
        for a in inst.sorted_atoms():
            print(a)
    return 0


def cmd_derivations(args) -> int:
    kb = _load(args.file).knowledge_base()
    rows = list(enumerate_derivations(kb.database, kb.rules, args.max_len))
    if args.json:
        sys.stdout.write(render.dumps({"derivations": [render.derivation_json(d) for d in rows]}))
    else:
        for i, d in enumerate(rows):
            print(_derivation_line(i, d))
    return 0


def cmd_greedy_check(args) -> int:
    kb = _load(args.file).knowledge_base()
    if args.all:
        targets = list(enumerate_derivations(kb.database, kb.rules, args.max_len))
        indices = range(len(targets))
    else:
        targets = [_select_derivation(kb, args.derivation, args.max_len)]
        indices = [args.derivation]
    reports = [(i, d, is_greedy(d, kb)) for i, d in zip(indices, targets)]
    if args.json:
        sys.stdout.write(render.dumps({"results": [
            {"id": i, "rules": list(d.rule_ids()), **render.greediness_json(rep)}
            for i, d, rep in reports]}))
    else:
        for i, d, report in reports:
            verdict = "greedy" if report.greedy else "non-greedy"
            detail = ""
            if not report.greedy:
                step, image = report.violations[0]
                detail = f" (violation at step {step}: frontier image {sorted(map(str, image))})"
            print(f"{_derivation_line(i, d)} -> {verdict}{detail}")
    return 0 if all(rep.greedy for _, _, rep in reports) else 1


def cmd_grd(args) -> int:
    kb = _load(args.file).knowledge_base()
    grd = rule_dependency_graph(kb.rules)
    if args.dot:
        Path(args.dot).write_text(render.grd_to_dot(grd))
    if args.json:
        sys.stdout.write(render.dumps({
            "vertices": list(grd.vertices),
            "edges": sorted(list(e) for e in grd.edges),
            "sources": sorted(grd.sources()),
        }))
    else:
        print("sources:", " ".join(sorted(grd.sources())))
        for a, b in sorted(grd.edges):
            print(f"{a} -> {b}")
    return 0


def cmd_graph(args) -> int:
    kb = _load(args.file).knowledge_base()
    d = _select_derivation(kb, args.derivation, args.max_len)
    g = build_derivation_graph(d, kb)
    dot = render.graph_to_dot(g)
    if args.dot:
        Path(args.dot).write_text(dot)
    if args.json:
        sys.stdout.write(render.dumps(render.graph_json(g)))
    elif not args.dot:
        sys.stdout.write(dot)
    return 0


def _reduce_selected(args, irreducible: str) -> tuple[Derivation, ReductionTrace] | None:
    """The selected derivation and the complete ``--strategy`` reduction of
    its graph, or None (exit 1).  A tripped state budget prints ``unknown``
    on stderr and an irreducible graph prints ``irreducible: <irreducible>``;
    under ``--json`` (``treedecomp`` only) either is one JSON object on
    stdout, with the tripped budget's name and limit."""
    kb = _load(args.file).knowledge_base()
    d = _select_derivation(kb, args.derivation, args.max_len)
    try:
        trace = reduce_graph(build_derivation_graph(d, kb), args.strategy)
    except ResourceLimitError as exc:
        outcome = {"result": "unknown", "detail": str(exc),
                   "budget": {"name": exc.budget, "limit": exc.limit}}
    else:
        if trace is not None:
            return d, trace
        outcome = {"result": "irreducible", "detail": irreducible}
    if getattr(args, "json", False):
        sys.stdout.write(render.dumps(outcome))
    elif "budget" in outcome:
        print(f"unknown: {outcome['detail']}", file=sys.stderr)
    else:
        print(f"irreducible: {irreducible}")
    return None


def cmd_reduce(args) -> int:
    reduced = _reduce_selected(args, "no complete reduction sequence exists")
    if reduced is None:
        return 1
    _, trace = reduced
    invariants = check_prefix_invariants(trace)
    print(f"reduced in {len(trace.steps)} steps: "
          + (" ".join(s.describe() for s in trace.steps) or "<already cycle-free>"))
    if not invariants.ok:
        for f in invariants.failures:
            print(f"invariant violation: {f}", file=sys.stderr)
        return 1
    if args.trace:
        Path(args.trace).write_text(render.dumps(render.trace_json(trace, args.strategy)))
    if args.dot_steps:
        outdir = Path(args.dot_steps)
        outdir.mkdir(parents=True, exist_ok=True)
        for p, graph in enumerate(trace.graphs):
            (outdir / f"step_{p:03d}.dot").write_text(render.graph_to_dot(graph))
    return 0


def cmd_treedecomp(args) -> int:
    reduced = _reduce_selected(args, "cannot extract a tree decomposition")
    if reduced is None:
        return 1
    d, trace = reduced
    td = extract_tree_decomposition(trace.final)
    valid = validate_tree_decomposition(td, d.final)
    if args.dot:
        Path(args.dot).write_text(render.td_to_dot(td))
    if args.json:
        sys.stdout.write(render.dumps({**render.td_json(td), "valid": valid}))
    else:
        for i, bag in enumerate(td.bags):
            print(f"B{i}: {term_set_str(bag)}")
        print("edges:", " ".join(f"B{a}-B{b}" for a, b in sorted(td.edges)))
        print(f"width: {td.width}  valid: {valid}")
    return 0 if valid else 1


def cmd_classify(args) -> int:
    kb = _load(args.file).knowledge_base()
    verdict = classify(kb, args.cls, args.depth)
    if args.json:
        sys.stdout.write(render.dumps(render.verdict_json(verdict)))
    else:
        print(f"{args.cls} at depth {args.depth}: {verdict.result}"
              + (f" ({verdict.detail})" if verdict.detail else ""))
    return 0 if verdict.holds else 1


def cmd_entail(args) -> int:
    doc = _load(args.file)
    kb = doc.knowledge_base()
    if args.query not in doc.queries:
        print(f"no query named {args.query!r} in {args.file}", file=sys.stderr)
        return 2
    result = entails(kb, doc.queries[args.query], args.depth)
    if result:
        print(f"entailed at depth {result.at_depth}")
        return 0
    print(f"not entailed within depth {args.depth} (sound but bounded: unknown)")
    return 1


def cmd_selfcheck(args) -> int:
    report = check_corpus(args.seed, args.kbs, args.max_len, args.budget)
    for draw, rules, category, message in report.failures:
        print(f"{category}: kb {draw} rules=[{' '.join(rules)}]: {message}", file=sys.stderr)
    print(f"selfcheck: {report.kbs} knowledge bases, {report.skipped} skipped (budget), "
          f"{report.derivations} derivations, {report.nongreedy} non-greedy, "
          f"{report.complete_traces} complete traces, {len(report.failures)} violations")
    return 0 if not report.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chasegraph",
        description="Existential-rule chase, derivation graphs, reductions, and "
                    "bounded treewidth-class verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a rule file and echo it back")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("chase", help="k-level saturation of the database")
    p.add_argument("file")
    p.add_argument("--depth", type=_int_at_least(0), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("derivations", help="enumerate derivations with their ids")
    p.add_argument("file")
    _add_selection_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("greedy-check", help="greediness verdicts for derivations")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--derivation", type=_int_at_least(0))
    group.add_argument("--all", action="store_true")
    _add_selection_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_greedy_check)

    p = sub.add_parser("grd", help="graph of rule dependencies")
    p.add_argument("file")
    p.add_argument("--dot")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grd)

    p = sub.add_parser("graph", help="derivation graph of one derivation")
    p.add_argument("file")
    p.add_argument("--derivation", type=_int_at_least(0), required=True)
    _add_selection_flags(p)
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("reduce", help="search a complete reduction sequence")
    p.add_argument("file")
    p.add_argument("--derivation", type=_int_at_least(0), required=True)
    p.add_argument("--strategy", choices=["cr-only", "full"], default="cr-only")
    _add_selection_flags(p)
    p.add_argument("--trace", help="write the reduction trace as JSON")
    p.add_argument("--dot-steps", help="write one DOT snapshot per reduction step")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("treedecomp", help="tree decomposition via reduction")
    p.add_argument("file")
    p.add_argument("--derivation", type=_int_at_least(0), required=True)
    p.add_argument("--strategy", choices=["cr-only", "full"], default="cr-only")
    _add_selection_flags(p)
    p.add_argument("--dot")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_treedecomp)

    p = sub.add_parser("classify", help="bounded class membership verdict")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", choices=CLASSES, required=True)
    p.add_argument("--depth", type=_int_at_least(1), default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("entail", help="bounded Boolean query entailment")
    p.add_argument("file")
    p.add_argument("--query", required=True)
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("selfcheck",
                       help="run every self-check on the derivations of random KBs")
    p.add_argument("--kbs", type=_int_at_least(0), default=100)
    p.add_argument("--max-len", type=_int_at_least(0), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_int_at_least(1), default=2000,
                   help="per-KB derivation budget before the KB is skipped")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
