import argparse
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
    assert main(["derivations", join_file, "--max-len", "1", "--dedup", "mod-nulls"]) == 0
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
], ids=["character", "lowercase", "ground", "empty-query", "duplicate-query",
        "duplicate-rule", "missing-query"])
def test_input_error_messages_and_positions(tmp_path, doc, argv, message, capsys):
    path = tmp_path / "input.rules"
    path.write_text(doc)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", message.replace("FILE", str(path)) + "\n")


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
        return _run_cli("derivations", chain_file, "--max-len", "3", "--dedup", "mod-nulls").stdout

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
