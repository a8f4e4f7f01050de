"""DOT and JSON emitters.  All output is deterministically ordered."""

from __future__ import annotations

import json
from typing import Any

from .analysis import GreedinessReport, RuleDependencyGraph
from .chase import Derivation
from .classify import ClassificationVerdict, GroupWitness, Refutation
from .derivgraph import DerivationGraph
from .model import Instance, Term, atom_key, term_key
from .reduction import ArStep, CrStep, ReductionStep, ReductionTrace, TrStep
from .treedecomp import TreeDecomposition

SCHEMA_VERSION = 1


def label_str(label: frozenset[Term]) -> str:
    return "{" + ",".join(str(t) for t in sorted(label, key=term_key)) + "}"


def _atoms_str(atoms) -> str:
    return "{" + ", ".join(str(a) for a in sorted(atoms, key=atom_key)) + "}"


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def graph_to_dot(g: DerivationGraph) -> str:
    lines = ["digraph derivation_graph {"]
    for i in g.nodes:
        lines.append(f'  "X{i}" [label="X{i}: {_atoms_str(g.at[i])}"];')
    for (i, j), lbl in sorted(g.arcs.items()):
        lines.append(f'  "X{i}" -> "X{j}" [label="{label_str(lbl)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def grd_to_dot(grd: RuleDependencyGraph) -> str:
    lines = ["digraph rule_dependencies {"]
    for v in grd.vertices:
        lines.append(f'  "{v}";')
    for a, b in sorted(grd.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def td_to_dot(td: TreeDecomposition) -> str:
    lines = ["graph tree_decomposition {"]
    for i, bag in enumerate(td.bags):
        terms = ",".join(str(t) for t in sorted(bag, key=term_key))
        lines.append(f'  "B{i}" [label="B{i}: {{{terms}}}", shape=box];')
    for a, b in sorted(td.edges):
        lines.append(f'  "B{a}" -- "B{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def instance_json(inst: Instance) -> list[str]:
    return [str(a) for a in inst.sorted_atoms()]


def derivation_json(d: Derivation) -> dict[str, Any]:
    steps = []
    for i, step in enumerate(d.steps, start=1):
        steps.append({
            "rule": step.rule.rid,
            "hom": {str(k): str(v) for k, v in step.trigger.hom.items()},
            "extension": {str(k): str(v) for k, v in step.trigger.extension.items()},
            "new_atoms": sorted(str(a) for a in d.new_atoms(i)),
        })
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
                "label": [str(t) for t in sorted(lbl, key=term_key)],
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
        "schema": SCHEMA_VERSION,
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
                "witness": derivation_json(w.witness) if w.witness is not None else None,
                **({"trace": trace_json(w.trace, "full")} if w.trace is not None else {}),
            }
            for w in cert
        ]
    return out


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
