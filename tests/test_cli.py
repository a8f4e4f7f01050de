import argparse
import hashlib
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from chasegraph import cli, selfcheck
from chasegraph.cli import build_parser, main
from chasegraph.errors import ResourceLimitError
from conftest import subprocess_env

README = Path(__file__).resolve().parents[1] / "README.md"

JOIN_DOC = """\
p(a). r(b).
r1: p(X) -> q(X,Y,Z).
r2: r(X) -> s(X,Y,Z).
r3: p(X), r(Y) -> q(X,Z,W), s(Y,U,V).
r4: q(X,Y,Z), s(W,U,V) -> t(X,Y,W,U,O).
?q1: q(X,Y,Z).
?unused: u(X).
"""

CHAIN_DOC = """\
p(a,b).
r1: p(X,Y) -> q(Y,Z).
r2: q(X,Y) -> r(X,Y), r(Y,Z).
r3: r(X,Y), q(Z,X) -> s(X,Y).
r4: r(X,Y), s(Z,W) -> t(Y,W).
?reach: t(X,Y).
"""


@pytest.fixture
def join_file(tmp_path):
    path = tmp_path / "join.rules"
    path.write_text(JOIN_DOC)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.rules"
    path.write_text(CHAIN_DOC)
    return str(path)


def _chain_golden_id(chain_file):
    """Enumeration id of the four-step chain run (r1, r2, r3, r4)."""
    from chasegraph.chase import enumerate_derivations
    from chasegraph.docparse import parse_document
    from pathlib import Path

    kb = parse_document(Path(chain_file).read_text()).knowledge_base()
    for i, d in enumerate(enumerate_derivations(kb.database, kb.rules, 4)):
        if d.rule_ids() == ("r1", "r2", "r3", "r4"):
            return i
    raise AssertionError("golden derivation not enumerated")


def test_parse_round_trip(join_file, capsys):
    assert main(["parse", join_file]) == 0
    out = capsys.readouterr().out
    assert "r1: p(X) -> q(X,Y,Z)." in out
    assert "?q1: q(X,Y,Z)." in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rules"
    bad.write_text("r: p(X) -> .")
    assert main(["parse", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["parse", "/nonexistent/nowhere.rules"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["classify", "--class", "bogus"]) == 2


def test_chase_depth_one(join_file, capsys):
    assert main(["chase", join_file, "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("q(") == 2 and out.count("s(") == 2


def test_derivations_listing(join_file, capsys):
    assert main(["derivations", join_file, "--max-len", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("0: len=0")


def test_greedy_check_all_exit_codes(join_file, chain_file, capsys):
    assert main(["greedy-check", chain_file, "--all", "--max-len", "3"]) == 0
    assert main(["greedy-check", join_file, "--all", "--max-len", "3"]) == 1
    out = capsys.readouterr().out
    assert "non-greedy" in out and "violation at step" in out


@pytest.mark.parametrize("selection", [["--all"], ["--derivation", "3"]])
def test_greedy_check_json_is_the_whole_output(chain_file, selection, capsys):
    code = main(["greedy-check", chain_file, *selection, "--max-len", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    ids = [r["id"] for r in payload["results"]]
    assert ids == ([3] if "--derivation" in selection else list(range(len(ids))))
    assert code == (0 if all(r["greedy"] for r in payload["results"]) else 1)


def test_grd_output(join_file, capsys):
    assert main(["grd", join_file]) == 0
    out = capsys.readouterr().out
    assert "sources: r1 r2 r3" in out
    assert "r1 -> r4" in out and "r3 -> r4" in out


def test_graph_dot_golden_counts(chain_file, capsys, tmp_path):
    import re

    golden = _chain_golden_id(chain_file)
    dot_path = tmp_path / "g.dot"
    assert main(["graph", chain_file, "--derivation", str(golden),
                 "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    node_lines = [l for l in dot.splitlines() if "[label=\"X" in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 5
    assert len(edge_lines) == 6
    # label shapes up to null renaming: one empty, three singletons over the
    # first null, one pair, one singleton over the second null
    labels = [re.search(r'label="\{(.*)\}"', l).group(1) for l in edge_lines]
    sizes = sorted(len(l.split(",")) if l else 0 for l in labels)
    assert sizes == [0, 1, 1, 1, 1, 2]
    singles = [l for l in labels if l and "," not in l]
    assert len(set(singles)) == 2 and max(singles.count(s) for s in set(singles)) == 3


def test_reduce_cr_only_trace(chain_file, capsys, tmp_path):
    golden = _chain_golden_id(chain_file)
    trace_path = tmp_path / "trace.json"
    code = main(["reduce", chain_file, "--derivation", str(golden),
                 "--strategy", "cr-only", "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "cr[1,2,3,2]" in out and "cr[2,3,4,2]" in out
    payload = json.loads(trace_path.read_text())
    assert payload["schema"] == 1
    assert payload["complete"] is True
    assert [s["op"] for s in payload["steps"]] == ["cr", "cr"]


def test_reduce_irreducible_exit_code(join_file, capsys):
    # find the id of a two-producer join run: r1, r2, then the join
    from chasegraph.chase import enumerate_derivations
    from chasegraph.docparse import parse_document
    from pathlib import Path

    kb = parse_document(Path(join_file).read_text()).knowledge_base()
    target = None
    for i, d in enumerate(enumerate_derivations(kb.database, kb.rules, 3)):
        if d.rule_ids() == ("r1", "r2", "r4"):
            target = i
            break
    assert target is not None
    code = main(["reduce", join_file, "--derivation", str(target),
                 "--max-len", "3", "--strategy", "full"])
    assert code == 1
    assert "irreducible" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["reduce", "treedecomp"])
def test_a_tripped_reduction_budget_is_unknown(chain_file, command, monkeypatch, capsys):
    def tripped(g, strategy):
        raise ResourceLimitError("reduction search exceeded 5 states",
                                 budget="reduction-states", limit=5)

    monkeypatch.setattr(cli, "reduce_graph", tripped)
    assert main([command, chain_file, "--derivation", "3"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "unknown: reduction search exceeded 5 states\n")


def test_reduce_reports_invariant_violations(chain_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_prefix_invariants",
                        lambda trace: SimpleNamespace(ok=False, failures=("prefix 1: broken",)))
    golden = _chain_golden_id(chain_file)
    assert main(["reduce", chain_file, "--derivation", str(golden)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("reduced in 2 steps: ")
    assert err == "invariant violation: prefix 1: broken\n"


def test_treedecomp_irreducible_exit_code(join_file, capsys):
    # the two-producer join run r1, r2, r4 has no complete reduction
    from chasegraph.chase import enumerate_derivations
    from chasegraph.docparse import parse_document

    kb = parse_document(Path(join_file).read_text()).knowledge_base()
    target = next(i for i, d in enumerate(enumerate_derivations(kb.database, kb.rules, 3))
                  if d.rule_ids() == ("r1", "r2", "r4"))
    for strategy in ("cr-only", "full"):
        assert main(["treedecomp", join_file, "--derivation", str(target),
                     "--max-len", "3", "--strategy", strategy]) == 1
        assert capsys.readouterr().out == "irreducible: cannot extract a tree decomposition\n"


def test_treedecomp_json_reports_an_irreducible_graph(join_file, capsys):
    from chasegraph.chase import enumerate_derivations
    from chasegraph.docparse import parse_document

    kb = parse_document(Path(join_file).read_text()).knowledge_base()
    target = next(i for i, d in enumerate(enumerate_derivations(kb.database, kb.rules, 3))
                  if d.rule_ids() == ("r1", "r2", "r4"))
    assert main(["treedecomp", join_file, "--derivation", str(target),
                 "--max-len", "3", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"schema": 1, "result": "irreducible",
                               "detail": "cannot extract a tree decomposition"}
    assert err == ""


def test_treedecomp_json_reports_a_tripped_budget(chain_file, monkeypatch, capsys):
    def tripped(g, strategy):
        raise ResourceLimitError("reduction search exceeded 5 states",
                                 budget="reduction-states", limit=5)

    monkeypatch.setattr(cli, "reduce_graph", tripped)
    assert main(["treedecomp", chain_file, "--derivation", "3", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"schema": 1, "result": "unknown",
                               "detail": "reduction search exceeded 5 states",
                               "budget": {"name": "reduction-states", "limit": 5}}
    assert err == ""


def test_dot_steps_snapshots(chain_file, tmp_path, capsys):
    golden = _chain_golden_id(chain_file)
    outdir = tmp_path / "steps"
    assert main(["reduce", chain_file, "--derivation", str(golden),
                 "--strategy", "cr-only", "--dot-steps", str(outdir)]) == 0
    snapshots = sorted(p.name for p in outdir.iterdir())
    assert snapshots == ["step_000.dot", "step_001.dot", "step_002.dot"]


def test_treedecomp_command(chain_file, capsys):
    golden = _chain_golden_id(chain_file)
    assert main(["treedecomp", chain_file, "--derivation", str(golden),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["width"] == 3
    assert payload["valid"] is True
    assert len(payload["bags"]) == 5


def test_classify_exit_codes(join_file, capsys):
    assert main(["classify", join_file, "--class", "gbts", "--depth", "4", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "refuted"
    assert payload["certificate"]["greediness"]["violations"]
    assert main(["classify", join_file, "--class", "wgbts", "--depth", "3"]) == 0


def test_entail_exit_codes(join_file, chain_file, capsys):
    assert main(["entail", join_file, "--query", "q1", "--depth", "1"]) == 0
    assert "entailed at depth 1" in capsys.readouterr().out
    assert main(["entail", chain_file, "--query", "reach", "--depth", "4"]) == 0
    assert main(["entail", join_file, "--query", "unused", "--depth", "3"]) == 1
    assert main(["entail", join_file, "--query", "nope", "--depth", "1"]) == 2


def test_selfcheck_small_run(capsys):
    assert main(["selfcheck", "--kbs", "5", "--max-len", "2", "--seed", "3"]) == 0
    assert ("selfcheck: 5 knowledge bases, 0 skipped (budget), 34 derivations, "
            "0 non-greedy, 68 complete traces, 0 violations") in capsys.readouterr().out


@pytest.mark.parametrize("category, name, failing", [
    ("prefix", "check_prefix_invariants", lambda trace: SimpleNamespace(ok=False)),
    ("decomposition", "check_decomposition_properties",
     lambda g, final, kb: SimpleNamespace(ok=False)),
    ("path", "check_generative_paths", lambda g: ["a generative path fails"]),
    ("td", "validate_tree_decomposition", lambda td, final: False),
    ("equivalence", "is_greedy", lambda d, kb: SimpleNamespace(greedy=False)),
], ids=["prefix", "decomposition", "path", "td", "equivalence"])
def test_selfcheck_reports_each_failure_category(category, name, failing, monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, name, failing)
    assert main(["selfcheck", "--kbs", "2", "--max-len", "2"]) == 1
    assert f"{category}: kb 0 rules=[" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, lowest", [
    (["classify", "FILE", "--class", "gbts"], "--depth", 1),
    (["chase", "FILE"], "--depth", 0),
    (["entail", "FILE", "--query", "q1"], "--depth", 0),
    (["derivations", "FILE"], "--max-len", 0),
    (["selfcheck", "--kbs", "1"], "--max-len", 0),
    (["selfcheck", "--kbs", "1"], "--budget", 1),
    (["selfcheck", "--max-len", "1"], "--kbs", 0),
    (["graph", "FILE"], "--derivation", 0),
    (["reduce", "FILE"], "--derivation", 0),
    (["treedecomp", "FILE"], "--derivation", 0),
    (["greedy-check", "FILE"], "--derivation", 0),
])
def test_numeric_flags_below_their_minimum_are_usage_errors(
        join_file, argv, flag, lowest, capsys):
    argv = [join_file if a == "FILE" else a for a in argv]
    assert main(argv + [flag, str(lowest)]) in (0, 1)
    capsys.readouterr()
    assert main(argv + [flag, str(lowest - 1)]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least {lowest}, got {lowest - 1}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, keys", [
    (["chase", "FILE", "--depth", "1"], {"schema", "depth", "atoms"}),
    (["derivations", "FILE", "--max-len", "2"], {"schema", "derivations"}),
    (["grd", "FILE"], {"schema", "vertices", "edges", "sources"}),
    (["graph", "FILE", "--derivation", "3"], {"schema", "nodes", "arcs", "constants"}),
], ids=["chase", "derivations", "grd", "graph"])
def test_json_outputs_carry_the_schema(join_file, argv, keys, capsys):
    argv = [join_file if a == "FILE" else a for a in argv]
    assert main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert set(payload) == keys


@pytest.mark.parametrize("command", ["greedy-check", "graph", "reduce", "treedecomp"])
def test_a_derivation_id_past_the_enumeration_is_an_error(join_file, command, capsys):
    # --max-len 1 enumerates the empty run and three one-step runs, ids 0-3
    assert main([command, join_file, "--derivation", "3", "--max-len", "1"]) in (0, 1)
    capsys.readouterr()
    assert main([command, join_file, "--derivation", "4", "--max-len", "1"]) == 1
    assert capsys.readouterr().err == \
        "error: no derivation with id 4 (enumeration bound --max-len 1)\n"


@pytest.mark.parametrize("doc, argv, message", [
    ("p(a). ?q: p(X). $\n", ["parse"], "parse error: 1:17: unexpected character '$'"),
    ("p(a).\nP(b).\n", ["parse"], "parse error: 2:1: predicate 'P' must start lowercase"),
    ("p(a).\n  p(X).\n", ["parse"], "parse error: 2:3: fact p(X) must be ground"),
    ("p(a).\n?q: .\n", ["parse"], "parse error: 2:2: query q is empty"),
    ("p(a).\n?q: p(X).\n?q: p(Y).\n", ["parse"], "parse error: 3:2: duplicate query name 'q'"),
    ("r: p(X) -> q(X).\nr: p(X) -> s(X).\n", ["parse"],
     "parse error: 2:1: duplicate rule name 'r'"),
    (JOIN_DOC, ["entail", "--query", "nope"], "no query named 'nope' in FILE"),
    ("p(a) q(b).\n", ["parse"], "parse error: 1:6: expected DOT, found 'q'"),
    ("p(a).\nr: p(X,Y) -> q(X).\n", ["parse"],
     "parse error: 2:4: predicate p used with arity 2, previously 1"),
    ("r: -> q(X).\n", ["parse"], "parse error: 1:4: rule r has no body atoms"),
    ("p(a).\n\tr: p(X) -> .\n", ["parse"], "parse error: 2:13: rule r has no head atoms"),
    ("\u00b2(a).\n", ["parse"], "parse error: 1:1: unexpected character '\u00b2'"),
    ("1p(a).\n", ["parse"], "parse error: 1:1: unexpected character '1'"),
    ("\u00e9(a).\n", ["parse"], None),
    ("p(x\u00b2).\n", ["parse"], None),
    ("p(a) % no dot", ["parse"], "parse error: 1:14: expected DOT, found ''"),
], ids=["character", "lowercase", "ground", "empty-query", "duplicate-query",
        "duplicate-rule", "missing-query", "expected", "arity", "empty-body",
        "empty-head-after-tab", "superscript-start", "digit-start", "letter-start",
        "superscript-inside", "end-of-input-after-comment"])
def test_input_error_messages_and_positions(tmp_path, doc, argv, message, capsys):
    path = tmp_path / "input.rules"
    path.write_text(doc)
    code = main([argv[0], str(path), *argv[1:]])
    if message is None:  # accepted: parse echoes the document
        assert (code, capsys.readouterr()) == (0, (doc, ""))
    else:
        assert (code, capsys.readouterr()) == (2, ("", message.replace("FILE", str(path)) + "\n"))


def test_readme_synopsis_lists_every_option():
    # one synopsis line per subcommand, continuation lines joined to it
    block = README.read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("chasegraph "):
            command = line.split()[1]
            synopsis[command] = line
        else:
            synopsis[command] += " " + line.strip()
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(synopsis) == list(commands)
    for name, parser in commands.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[\w-]+", synopsis[name])) == options, name


def test_grd_dot_output(join_file, tmp_path):
    dot_path = tmp_path / "grd.dot"
    assert main(["grd", join_file, "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert '"r1" -> "r4"' in dot and dot.startswith("digraph")


def test_treedecomp_dot_output(chain_file, tmp_path, capsys):
    golden = _chain_golden_id(chain_file)
    dot_path = tmp_path / "td.dot"
    assert main(["treedecomp", chain_file, "--derivation", str(golden),
                 "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert dot.startswith("graph") and dot.count("--") == 4


def test_classify_weak_holds_json(join_file, capsys):
    assert main(["classify", join_file, "--class", "wgbts", "--depth", "3",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "holds-up-to-depth"
    assert payload["certificate"]  # one witness per derivable instance
    assert all("target" in w and w["witness"] is not None
               for w in payload["certificate"])


def test_classify_wcdgs_json_carries_reduction_traces(chain_file, capsys):
    from chasegraph.classify import classify
    from chasegraph.docparse import parse_document
    from pathlib import Path

    assert main(["classify", chain_file, "--class", "wcdgs", "--depth", "3",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kb = parse_document(Path(chain_file).read_text()).knowledge_base()
    engine = classify(kb, "wcdgs", 3).certificate
    assert len(payload["certificate"]) == len(engine)
    assert any(w.trace.steps for w in engine)
    for w_json, w in zip(payload["certificate"], engine):
        trace = w_json["trace"]
        assert trace["complete"] and trace["strategy"] == "full"
        assert len(trace["steps"]) == len(w.trace.steps)


def _run_cli(*args: str):
    """Run the CLI in a fresh interpreter."""
    import subprocess, sys

    return subprocess.run([sys.executable, "-m", "chasegraph.cli", *args],
                          capture_output=True, text=True, env=subprocess_env())


def test_console_entry_point_subprocess(join_file):
    proc = _run_cli("entail", join_file, "--query", "q1", "--depth", "1")
    assert proc.returncode == 0
    assert "entailed at depth 1" in proc.stdout


def test_derivation_ids_stable_across_processes(chain_file):
    def run():
        return _run_cli("derivations", chain_file, "--max-len", "3").stdout

    first = run()
    assert first.startswith("0: len=0")
    assert first == run()


# random_kb(random.Random(233)), whose pair depends_on(g1, g3) took the
# frozen-candidate construction seconds
KB_233_DOC = """\
r(a,b,a). s(b).
g1: p(X1,X1,a), r(X2,X2,X1) -> p(Z1,X2,b), p(Z2,Z1,Z1).
g2: s(X2) -> r(X2,Z1,Z1).
g3: p(X1,X2,X3), p(Y1,Y2,Y3) -> p(X1,Y2,Y1).
"""


def test_grd_json_of_the_seed_233_kb_is_stable_across_hash_seeds(tmp_path, monkeypatch):
    import random
    from chasegraph.docparse import parse_document
    from chasegraph.randkb import random_kb

    assert parse_document(KB_233_DOC).knowledge_base() == random_kb(random.Random(233))
    path = tmp_path / "kb233.rules"
    path.write_text(KB_233_DOC)
    outputs = []
    for seed in ("0", "3"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _run_cli("grd", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["edges"] == [["g1", "g3"], ["g3", "g1"], ["g3", "g3"]]


# ---------------------------------------------------------------------------
# every CLI output pinned on the samples
# ---------------------------------------------------------------------------

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

# per sample: a reducible derivation id (both are the run r1, r2, r3, r4),
# the queries, and extra cases; OUT is a fresh output directory
_PINNED_SAMPLES = {
    "join": ("40", ("made_q", "joined"), [
        ["reduce", "FILE", "--derivation", "41", "--strategy", "full"],
        ["treedecomp", "FILE", "--derivation", "41", "--json"],
    ]),
    "chain": ("33", ("reach",), []),
}


def _pinned_cases() -> list[list[str]]:
    cases = [["selfcheck", "--kbs", "5"]]
    for name, (d, queries, extra) in _PINNED_SAMPLES.items():
        file = str(SAMPLES / f"{name}.rules")
        sample = [
            ["parse", "FILE"],
            ["chase", "FILE", "--depth", "2"],
            ["chase", "FILE", "--depth", "2", "--json"],
            ["derivations", "FILE", "--max-len", "3"],
            ["derivations", "FILE", "--max-len", "3", "--json"],
            ["greedy-check", "FILE", "--all", "--max-len", "3"],
            ["greedy-check", "FILE", "--all", "--max-len", "3", "--json"],
            ["grd", "FILE"],
            ["grd", "FILE", "--json"],
            ["grd", "FILE", "--dot", "OUT/grd.dot"],
            ["graph", "FILE", "--derivation", d],
            ["graph", "FILE", "--derivation", d, "--json"],
            ["graph", "FILE", "--derivation", d, "--dot", "OUT/graph.dot"],
            *(["reduce", "FILE", "--derivation", d, "--strategy", s,
               "--trace", "OUT/trace.json", "--dot-steps", "OUT/steps"]
              for s in ("cr-only", "full")),
            ["treedecomp", "FILE", "--derivation", d],
            ["treedecomp", "FILE", "--derivation", d, "--json"],
            ["treedecomp", "FILE", "--derivation", d, "--dot", "OUT/td.dot"],
            *(["classify", "FILE", "--class", c, "--depth", "3", *j]
              for c in ("gbts", "wgbts", "cdgs", "wcdgs") for j in ([], ["--json"])),
            *(["entail", "FILE", "--query", q] for q in queries),
            *extra,
        ]
        cases += [[file if a == "FILE" else a for a in argv] for argv in sample]
    return cases


def _case_name(argv: list[str]) -> str:
    return " ".join(Path(a).stem if a.startswith(str(SAMPLES)) else a for a in argv)


def _output_digest(code: int, out: str, err: str, outdir: Path) -> str:
    """sha256 (first 16 hex digits) of the exit code, stdout, stderr and
    every file written under ``outdir``, by relative path."""
    files = {str(p.relative_to(outdir)): p.read_text()
             for p in sorted(outdir.rglob("*")) if p.is_file()}
    blob = json.dumps([code, out, err, files])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


_CLI_DIGESTS = {
    "selfcheck --kbs 5": "b8b51fc31781854d",
    "parse join": "dd5e51989995f765",
    "chase join --depth 2": "6fb2ef77f9f0fef9",
    "chase join --depth 2 --json": "7342b5c545ae64bf",
    "derivations join --max-len 3": "f79020d14030e45e",
    "derivations join --max-len 3 --json": "48555a65a078c8d2",
    "greedy-check join --all --max-len 3": "63774f51867be662",
    "greedy-check join --all --max-len 3 --json": "89eb8248862bec5a",
    "grd join": "46b2e34f0cbcc883",
    "grd join --json": "d89072d6e918cadb",
    "grd join --dot OUT/grd.dot": "fd0c1092b7d6e17d",
    "graph join --derivation 40": "fafa54ebaf24c32f",
    "graph join --derivation 40 --json": "325e7fa9b9f9d5a8",
    "graph join --derivation 40 --dot OUT/graph.dot": "742ccb6fb665f0dc",
    "reduce join --derivation 40 --strategy cr-only --trace OUT/trace.json --dot-steps OUT/steps": "c6661e670f30854e",
    "reduce join --derivation 40 --strategy full --trace OUT/trace.json --dot-steps OUT/steps": "5b3e4e88584729d9",
    "treedecomp join --derivation 40": "aab9433262bfed83",
    "treedecomp join --derivation 40 --json": "6f3fbf26185c48bd",
    "treedecomp join --derivation 40 --dot OUT/td.dot": "92179dc780b6a7c5",
    "classify join --class gbts --depth 3": "854f25ec9146c922",
    "classify join --class gbts --depth 3 --json": "ea63f41135082e7e",
    "classify join --class wgbts --depth 3": "49307357bb197b85",
    "classify join --class wgbts --depth 3 --json": "c625c32775724373",
    "classify join --class cdgs --depth 3": "6e23797132854580",
    "classify join --class cdgs --depth 3 --json": "ed131256f61d5dc4",
    "classify join --class wcdgs --depth 3": "dc32040e96cc8904",
    "classify join --class wcdgs --depth 3 --json": "e0f91fbbd5b3f876",
    "entail join --query made_q": "1f3231ae5181a21b",
    "entail join --query joined": "9f6abe8b9b2319ec",
    "reduce join --derivation 41 --strategy full": "6396fe4405f0e8b8",
    "treedecomp join --derivation 41 --json": "d33d1b1a049b8a98",
    "parse chain": "5487434228c3fc6e",
    "chase chain --depth 2": "1121895ba13e1e33",
    "chase chain --depth 2 --json": "8cc2b5afd1b36ca3",
    "derivations chain --max-len 3": "4b7c79990fbaa232",
    "derivations chain --max-len 3 --json": "e0bb8d28cb318948",
    "greedy-check chain --all --max-len 3": "dd85dd960c33c029",
    "greedy-check chain --all --max-len 3 --json": "e4495459faf1924f",
    "grd chain": "8b1440742d18f58a",
    "grd chain --json": "44a76616b9640282",
    "grd chain --dot OUT/grd.dot": "ab96a25748735a58",
    "graph chain --derivation 33": "0a7ae85a3b1e18bc",
    "graph chain --derivation 33 --json": "f3cde7a0517b37f6",
    "graph chain --derivation 33 --dot OUT/graph.dot": "843b3fb4ca7748c1",
    "reduce chain --derivation 33 --strategy cr-only --trace OUT/trace.json --dot-steps OUT/steps": "74f6b4985b5307b0",
    "reduce chain --derivation 33 --strategy full --trace OUT/trace.json --dot-steps OUT/steps": "ff2e2fed4aeb14b5",
    "treedecomp chain --derivation 33": "33cb56fcb6b37b90",
    "treedecomp chain --derivation 33 --json": "bcecb46ba743f2d2",
    "treedecomp chain --derivation 33 --dot OUT/td.dot": "5a6838f7053f6653",
    "classify chain --class gbts --depth 3": "1bd8c3041d05975d",
    "classify chain --class gbts --depth 3 --json": "5554f0a22fc3287b",
    "classify chain --class wgbts --depth 3": "49307357bb197b85",
    "classify chain --class wgbts --depth 3 --json": "c78a7288e98de71f",
    "classify chain --class cdgs --depth 3": "0403cce02eeae303",
    "classify chain --class cdgs --depth 3 --json": "61f50efbf3c8d52c",
    "classify chain --class wcdgs --depth 3": "dc32040e96cc8904",
    "classify chain --class wcdgs --depth 3 --json": "4b8d97449185e3bb",
    "entail chain --query reach": "68660bcf563a610a",
}


def test_every_cli_output_is_pinned_on_the_samples(tmp_path, capsys):
    digests = {}
    for n, argv in enumerate(_pinned_cases()):
        outdir = tmp_path / str(n)
        outdir.mkdir()
        code = main([a.replace("OUT", str(outdir)) for a in argv])
        out, err = capsys.readouterr()
        digests[_case_name(argv)] = _output_digest(code, out, err, outdir)
    assert digests == _CLI_DIGESTS


def test_two_identical_commands_print_the_same_bytes(capsys):
    argv = ["classify", str(SAMPLES / "join.rules"), "--class", "wgbts", "--depth", "3", "--json"]
    runs = []
    for _ in range(2):
        code = main(argv)
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1] and "_:n" in runs[0][1].out


@pytest.mark.parametrize("argv", [
    ["graph", "FILE", "--derivation", "33", "--json"],
    ["treedecomp", "FILE", "--derivation", "33", "--dot", "OUT/td.dot"],
], ids=["graph-json", "treedecomp-dot"])
def test_pinned_outputs_do_not_depend_on_the_hash_seed(argv, tmp_path, monkeypatch):
    argv = [str(SAMPLES / "chain.rules") if a == "FILE" else a for a in argv]
    for seed in ("0", "3"):
        outdir = tmp_path / seed
        outdir.mkdir()
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = _run_cli(*(a.replace("OUT", str(outdir)) for a in argv))
        digest = _output_digest(proc.returncode, proc.stdout, proc.stderr, outdir)
        assert digest == _CLI_DIGESTS[_case_name(argv)], seed
