"""The built-in tables' instances, built from the row configs in
``detcalc.cli.TABLES`` through ``Instance.from_rows``, the constructor
whose rows-to-ring step ``detcalc report`` shares."""

from detcalc.cli import TABLES
from detcalc.invariants import Instance


def instance(config) -> Instance:
    rows = config["E"], config["F"], config.get("polarization")
    return Instance.from_rows(config["ambient"]["dims"], *rows)


def table_rows(name: str) -> list:
    """``(instance, expected values)`` for each row of a built-in table."""
    return [(instance(config), want) for _, config, want in TABLES[name].rows]
