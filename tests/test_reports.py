import math

from jumpiso.reports import TheoremReport, summary_csv


def test_worst_slack_keeps_minus_inf():
    rep = TheoremReport("thm")
    rep.add("vacuous", math.inf)
    rep.add("finite check", 1.0)
    assert rep.worst_slack == 1.0
    rep.add("profile finite", -math.inf)
    assert not rep.passed
    assert rep.worst_slack == -math.inf
    rows = summary_csv([("i0", rep.theorem, rep.passed, rep.worst_slack)])
    assert rows.splitlines()[1] == "i0,thm,0,-inf"


def test_worst_slack_is_nan_in_either_row_order():
    for order in (("a", 1.0), ("b", math.nan)), (("b", math.nan), ("a", 1.0)):
        rep = TheoremReport("thm")
        for claim, slack in order:
            rep.add(claim, slack)
        assert not rep.passed
        assert math.isnan(rep.worst_slack), order
