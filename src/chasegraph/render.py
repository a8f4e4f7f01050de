"""DOT and JSON emitters.  All output is deterministically ordered.

Every DOT document is written by :func:`_dot`, and every top-level JSON
document by :func:`dumps`, which puts ``"schema": SCHEMA_VERSION`` first.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .analysis import GreedinessReport, RuleDependencyGraph
from .chase import Derivation
from .classify import ClassificationVerdict, GroupWitness, Refutation
from .derivgraph import DerivationGraph
from .model import Instance, atom_set_str, term_set_str
from .reduction import ArStep, CrStep, ReductionStep, ReductionTrace, TrStep
from .treedecomp import TreeDecomposition

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def _dot(graph: str, nodes: Iterable[tuple[str, str]],
         edges: Iterable[tuple[str, str, str]]) -> str:
    """A DOT document headed ``graph`` ("digraph NAME" or "graph NAME"): one
    line per (id, attributes) node and (tail, head, attributes) edge, empty
    attributes left out."""
    arrow = " -> " if graph.startswith("digraph") else " -- "
    lines = [f"{graph} {{"]
    for *ids, attrs in (*nodes, *edges):
        ends = arrow.join(f'"{i}"' for i in ids)
        lines.append(f"  {ends} [{attrs}];" if attrs else f"  {ends};")
    return "\n".join(lines) + "\n}\n"


def graph_to_dot(g: DerivationGraph) -> str:
    return _dot("digraph derivation_graph",
                ((f"X{i}", f'label="X{i}: {atom_set_str(g.at[i])}"') for i in g.nodes),
                ((f"X{i}", f"X{j}", f'label="{term_set_str(lbl)}"')
                 for (i, j), lbl in sorted(g.arcs.items())))


def grd_to_dot(grd: RuleDependencyGraph) -> str:
    return _dot("digraph rule_dependencies", ((v, "") for v in grd.vertices),
                ((a, b, "") for a, b in sorted(grd.edges)))


def td_to_dot(td: TreeDecomposition) -> str:
    return _dot("graph tree_decomposition",
                ((f"B{i}", f'label="B{i}: {term_set_str(bag)}", shape=box')
                 for i, bag in enumerate(td.bags)),
                ((f"B{a}", f"B{b}", "") for a, b in sorted(td.edges)))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def instance_json(inst: Instance) -> list[str]:
    return [str(a) for a in inst.sorted_atoms()]


def derivation_json(d: Derivation) -> dict[str, Any]:
    steps = [{
        "rule": step.rule.rid,
        "hom": {str(k): str(v) for k, v in step.trigger.hom.items()},
        "extension": {str(k): str(v) for k, v in step.trigger.extension.items()},
        "new_atoms": sorted(str(a) for a in step.new_atoms),
    } for step in d.steps]
    return {"initial": instance_json(d.initial), "steps": steps}


def graph_json(g: DerivationGraph) -> dict[str, Any]:
    return {
        "nodes": [
            {
                "index": i,
                "atoms": sorted(str(a) for a in g.at[i]),
                "terms": sorted(str(t) for t in g.node_terms(i)),
            }
            for i in g.nodes
        ],
        "arcs": [
            {
                "from": i,
                "to": j,
                "label": [str(t) for t in sorted(lbl)],
            }
            for (i, j), lbl in sorted(g.arcs.items())
        ],
        "constants": sorted(str(c) for c in g.constants),
    }


def step_json(step: ReductionStep) -> dict[str, Any]:
    if isinstance(step, ArStep):
        return {"op": "ar", "i": step.i, "j": step.j}
    if isinstance(step, TrStep):
        return {"op": "tr", "i": step.i, "j": step.j, "k": step.k, "t": str(step.t)}
    assert isinstance(step, CrStep)
    return {"op": "cr", "i": step.i, "j": step.j, "k": step.k, "l": step.l}


def trace_json(trace: ReductionTrace, strategy: str) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "strategy": strategy,
        "complete": trace.complete,
        "steps": [step_json(s) for s in trace.steps],
        "initial": graph_json(trace.initial),
        "final": graph_json(trace.final),
    }


def td_json(td: TreeDecomposition) -> dict[str, Any]:
    return {
        "bags": [sorted(str(t) for t in bag) for bag in td.bags],
        "edges": sorted([a, b] for a, b in td.edges),
        "root": td.root,
        "width": td.width,
    }


def greediness_json(report: GreedinessReport) -> dict[str, Any]:
    return {
        "greedy": report.greedy,
        "witnesses": {str(i): j for i, j in sorted(report.witnesses.items())},
        "violations": [
            {"step": i, "frontier_image": sorted(str(t) for t in img)}
            for i, img in report.violations
        ],
    }


def verdict_json(v: ClassificationVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "class": v.cls,
        "depth": v.depth,
        "result": v.result,
    }
    if v.detail:
        out["detail"] = v.detail
    if v.budget:
        out["budget"] = {"name": v.budget, "limit": v.limit}
    cert = v.certificate
    if isinstance(cert, Refutation):
        out["certificate"] = {
            "reason": cert.reason,
            "derivation": derivation_json(cert.derivation),
        }
        if cert.greediness is not None:
            out["certificate"]["greediness"] = greediness_json(cert.greediness)
        if cert.target is not None:
            out["certificate"]["target"] = instance_json(cert.target)
    elif isinstance(cert, tuple) and cert and isinstance(cert[0], GroupWitness):
        out["certificate"] = [
            {
                "target": instance_json(w.target),
                "shortest_len": w.shortest_len,
                "witness": derivation_json(w.witness),
                **({"trace": trace_json(w.trace, "full")} if w.trace is not None else {}),
            }
            for w in cert
        ]
    return out


def dumps(payload: dict[str, Any]) -> str:
    """A top-level JSON document: ``"schema"`` first, then the payload."""
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n"
