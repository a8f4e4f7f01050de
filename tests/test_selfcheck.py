import pytest

from chasegraph.selfcheck import check_derivation


@pytest.mark.parametrize("kb, derivation, greedy, complete_traces", [
    ("chain_kb", "chain_derivation", True, 2),
    ("join_kb", "nongreedy_join_derivation", False, 0),
], ids=["chain", "nongreedy-join"])
def test_check_derivation_on_golden_derivations(request, kb, derivation, greedy,
                                                complete_traces):
    kb, d = request.getfixturevalue(kb), request.getfixturevalue(derivation)
    assert check_derivation(d, kb) == (greedy, complete_traces, [])
