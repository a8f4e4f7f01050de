import pytest

from chasegraph import selfcheck
from chasegraph.model import Constant
from chasegraph.selfcheck import check_derivation
from chasegraph.treedecomp import TreeDecomposition


@pytest.mark.parametrize("kb, derivation, greedy, complete_traces", [
    ("chain_kb", "chain_derivation", True, 2),
    ("join_kb", "nongreedy_join_derivation", False, 0),
], ids=["chain", "nongreedy-join"])
def test_check_derivation_on_golden_derivations(request, kb, derivation, greedy,
                                                complete_traces):
    kb, d = request.getfixturevalue(kb), request.getfixturevalue(derivation)
    assert check_derivation(d, kb) == (greedy, complete_traces, [])


def test_check_derivation_reports_a_bag_over_the_width_bound(chain_kb, chain_derivation,
                                                             monkeypatch):
    # one bag holding every term and two more validates, but is too wide
    d = chain_derivation
    bag = d.final.terms() | {Constant("u"), Constant("v")}
    assert len(bag) == chain_kb.width_bound + 1
    monkeypatch.setattr(selfcheck, "extract_tree_decomposition",
                        lambda g: TreeDecomposition((bag,), frozenset(), 0))
    message = ("td", f"bag of {len(bag)} terms exceeds width_bound {chain_kb.width_bound}")
    assert check_derivation(d, chain_kb) == (True, 2, [message, message])
