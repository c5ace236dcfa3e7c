"""Whole stdout and exit code of the command line on fixed inputs.

Each case runs ``main`` in process and compares its stdout byte for byte
with ``tests/golden/<case>.out``.  The report configs live beside them:
the README quintic, a Calabi-Yau fivefold on (P^1)^5, a fourfold on
P^1 x P^3 off the Calabi-Yau condition with both flags off their
defaults, whose report echoes the flags and prints both of their notes,
a (P^1)^12 with two column types, whose outputs were recorded on the
2^12-monomial ring before reports ran on the block ring, and a fivefold
on P^5 off the Calabi-Yau condition (E = O^2, F = O(2)^2), whose outputs
were recorded before its report compared the singular gap with the
shortcut, and a rank-5 fourfold on (P^1)^4 off the Calabi-Yau condition
whose factors are all distinct, so that P(F) carries a 15-term relation
over the monomial ring (two divided normal roots, three trivial summands
of E), recorded before ``proj_bundle`` built its c(T) from c(F dual)
alone.  ``p4_non_cy_refused.json`` has no golden file: it is the
polarized fourfold off the Calabi-Yau condition that the installed entry
point must refuse with exit 3 in CI.
The cases also run one after another in one process, to show that a call
leaves nothing behind that changes the next one.
"""

import json
from pathlib import Path

import pytest

from detcalc.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "table1-check": ["table", "table1", "--check"],
    "table2-check-json": ["table", "table2", "--check", "--json"],
    "verify-depth-6": ["verify", "--depth", "6"],
    "report-quintic": ["report", str(GOLDEN / "quintic.json")],
    "report-quintic-json": ["report", str(GOLDEN / "quintic.json"), "--json"],
    "report-p1-5": ["report", str(GOLDEN / "p1_5.json")],
    "report-p1-5-json": ["report", str(GOLDEN / "p1_5.json"), "--json"],
    "report-p1p3-flags": ["report", str(GOLDEN / "p1p3_flags.json")],
    "report-p1p3-flags-json": ["report", str(GOLDEN / "p1p3_flags.json"), "--json"],
    "report-p1-12-mixed": ["report", str(GOLDEN / "p1_12_mixed.json")],
    "report-p1-12-mixed-json": ["report", str(GOLDEN / "p1_12_mixed.json"), "--json"],
    "report-p5-non-cy": ["report", str(GOLDEN / "p5_non_cy.json")],
    "report-p5-non-cy-json": ["report", str(GOLDEN / "p5_non_cy.json"), "--json"],
    "report-p1-4-relation": ["report", str(GOLDEN / "p1_4_relation.json")],
    "report-p1-4-relation-json": ["report", str(GOLDEN / "p1_4_relation.json"), "--json"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_file(case, capsys):
    code = main(CASES[case])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()


def test_cases_repeat_in_one_process(capsys):
    """``main`` keeps no state between calls: every case, run forward and then
    in reverse order in one process, prints its golden file again."""
    order = sorted(CASES)
    for case in order + order[::-1]:
        assert main(CASES[case]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()


def test_no_option_carries_over_to_the_next_call(capsys):
    assert main(["table", "table1", "--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["table", "table1"]) == 0
    check = (GOLDEN / "table1-check.out").read_text()
    # the same table, without the closing "check passed" line
    assert capsys.readouterr().out == check[: check.rindex("check passed")]

    assert main(["verify", "--depth", "3", "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(CASES["verify-depth-6"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-depth-6.out").read_text()


@pytest.mark.parametrize(
    "refused",
    [
        ["verify", "--depth", "0"],
        ["report", str(GOLDEN / "quintic.json"), "--json", "-x"],
    ],
    ids=["bad-depth", "unknown-option"],
)
def test_a_refused_call_leaves_the_next_unaffected(refused, capsys):
    with pytest.raises(SystemExit) as err:
        main(refused)
    assert err.value.code == 2
    capsys.readouterr()
    for case in ("report-quintic", "table1-check"):
        assert main(CASES[case]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()
