"""The built-in tables' instances, built from the row configs in
``detcalc.cli.TABLES`` the way ``detcalc report`` builds a config's."""

from detcalc.cli import TABLES, _inputs
from detcalc.invariants import Instance


def instance(config) -> Instance:
    return Instance(*_inputs(config))


def table_rows(name: str) -> list:
    """``(instance, expected values)`` for each row of a built-in table."""
    return [(instance(config), want) for _, config, want in TABLES[name].rows]
