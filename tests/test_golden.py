"""Whole stdout and exit code of the command line on fixed inputs.

Each case runs ``main`` in process and compares its stdout byte for byte
with ``tests/golden/<case>.out``.  The two report configs live beside
them: the README quintic and a Calabi-Yau fivefold on (P^1)^5.
"""

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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_file(case, capsys):
    code = main(CASES[case])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()
