"""Command-line interface: instance reports, built-in tables, self-verification.

A config is a JSON document with a fixed schema; unknown fields are
rejected with the offending field path.  :func:`parse_config` returns the
validated document, normalized, and ``report --json`` echoes it under
``instance``.  Exit codes: 0 success, 1 verification, check or route
mismatch, 2 input error, 3 guard violation, 141 standard output closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .bundles import BundleSpec, VirtualPair
from .chow import block_space
from .invariants import (
    ConsistencyError,
    GuardError,
    Instance,
    InvariantReport,
    _check_c2_guard,
    build_report,
)
from .verify import run_all

_AMBIENT_KINDS = ("projective_space", "product")
# Flag names and defaults, in the order they are checked; each names a
# keyword parameter of ``build_report``.
_FLAGS = {"assume_general": True, "allow_non_cy_c2": False}


class ConfigError(ValueError):
    """A config document violates the schema; the message carries a field path."""


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _int_list(value, path: str) -> list[int]:
    _expect(isinstance(value, list) and value, path, "expected a nonempty list")
    out = []
    for i, item in enumerate(value):
        _expect(
            isinstance(item, int) and not isinstance(item, bool),
            f"{path}[{i}]",
            "expected an integer",
        )
        out.append(item)
    return out


def _rows(value, path: str, width: int) -> list[list[int]]:
    _expect(isinstance(value, list) and value, path, "expected a nonempty list")
    rows = []
    for i, row in enumerate(value):
        entries = _int_list(row, f"{path}[{i}]")
        _expect(
            len(entries) == width,
            f"{path}[{i}]",
            f"expected {width} entries, one per projective factor",
        )
        rows.append(entries)
    return rows


def _object(value, path: str, required, optional=()) -> dict:
    """Check that ``value`` is an object with exactly the allowed fields.

    Unknown fields are reported before missing ones, each by its full path.
    """
    _expect(isinstance(value, dict), path, "expected an object")
    prefix = "" if path == "<root>" else f"{path}."
    unknown = sorted(set(value) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown field")
    for name in required:
        _expect(name in value, f"{prefix}{name}", "missing required field")
    return value


def parse_config(doc) -> dict:
    """Validate a decoded JSON document against the config schema.

    Returns it normalized, as a new document: both flags filled in, and
    ``polarization`` present only when given.  A normalized document
    parses to itself.
    """
    _object(doc, "<root>", ("ambient", "E", "F"), ("polarization", "flags"))
    ambient = _object(doc["ambient"], "ambient", ("kind", "dims"))
    kind = ambient["kind"]
    _expect(
        kind in _AMBIENT_KINDS,
        "ambient.kind",
        f"expected one of {_AMBIENT_KINDS}",
    )
    dims = _int_list(ambient["dims"], "ambient.dims")
    _expect(
        all(d >= 1 for d in dims), "ambient.dims", "factor dimensions must be >= 1"
    )
    if kind == "projective_space":
        _expect(len(dims) == 1, "ambient.dims", "projective_space takes one dimension")
    _expect(sum(dims) >= 4, "ambient.dims", "total dimension must be at least 4")

    e_rows = _rows(doc["E"], "E", len(dims))
    f_rows = _rows(doc["F"], "F", len(dims))
    _expect(
        len(e_rows) == len(f_rows),
        "F",
        f"expected {len(e_rows)} rows to match E",
    )
    _expect(len(e_rows) >= 2, "E", "the morphism matrix must be at least 2 x 2")

    config = {"ambient": {"kind": kind, "dims": dims}, "E": e_rows, "F": f_rows}
    if "polarization" in doc:
        polarization = _int_list(doc["polarization"], "polarization")
        _expect(
            len(polarization) == len(dims),
            "polarization",
            f"expected {len(dims)} entries, one per projective factor",
        )
        for i, degree in enumerate(polarization):
            _expect(
                degree >= 1,
                f"polarization[{i}]",
                "must be >= 1 so that the class is ample",
            )
        config["polarization"] = polarization

    flags = {**_FLAGS, **_object(doc.get("flags", {}), "flags", (), _FLAGS)}
    for name, value in flags.items():
        _expect(isinstance(value, bool), f"flags.{name}", "expected a boolean")
    config["flags"] = flags
    return config


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"<file>: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"<file>: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"<file>: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # an integer literal past the digit limit
        raise ConfigError(f"<file>: unsupported JSON value ({exc})") from exc
    except RecursionError as exc:
        raise ConfigError("<file>: JSON nested too deeply") from exc
    return parse_config(doc)


def _inputs(config: dict):
    """The ambient space, the bundle pair and the polarization (or None), on
    the block ring of the factors' columns of degrees (``chow.block_space``)."""
    polarized = "polarization" in config
    rows = config["E"] + config["F"] + ([config["polarization"]] if polarized else [])
    space, firsts = block_space(config["ambient"]["dims"], zip(*rows))
    if len(firsts) < len(rows[0]):  # one degree per block
        rows = [[row[i] for i in firsts] for row in rows]
    rank = len(config["E"])
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows[:rank]),
        BundleSpec.sum_of_line_bundles(space, rows[rank : 2 * rank]),
    )
    return space, pair, space.degree_one(rows[-1]) if polarized else None


# -- rendering ---------------------------------------------------------------


def _bundle_str(rows: list[list[int]]) -> str:
    if rows and len(rows[0]) == 1:
        return "O(" + ", ".join(str(row[0]) for row in rows) + ")"
    return " + ".join("O(" + ",".join(str(d) for d in row) + ")" for row in rows)


def _pairing_label(k: int, dim: int) -> str:
    bits = []
    l_power = dim - 1 - k
    if l_power:
        bits.append("L" if l_power == 1 else f"L^{l_power}")
    if k:
        bits.append("H" if k == 1 else f"H^{k}")
    return ".".join(bits)


def report_to_dict(config: dict, report: InvariantReport) -> dict:
    """The report document: the config under ``instance`` and every field
    of the report that is set.  Both ``report`` outputs print it."""
    doc = {
        "instance": config,
        "dim": report.dim,
        "rank": report.rank,
        "calabi_yau": report.calabi_yau,
        "ih_milnor_number": report.ih_milnor,
        "euler_smooth": report.euler_smooth,
        "euler_ih": report.euler_ih,
        "euler_resolution": report.euler_resolution,
        "warnings": list(report.warnings),
    }
    if report.singular_degree is not None:
        doc["singular_degree"] = report.singular_degree
    if report.odp_count is not None:
        doc["odp_count"] = report.odp_count
    if report.intersection_numbers is not None:
        doc["intersection_numbers"] = {
            _pairing_label(k, report.dim): value
            for k, value in enumerate(report.intersection_numbers)
        }
    if report.c2_against_polarization is not None:
        doc["c2.H"] = report.c2_against_polarization
        doc["c2.L"] = report.c2_against_tautological
    return doc


def _check_printable(report: InvariantReport) -> None:
    """Refuse a report holding an integer with more decimal digits than the
    interpreter converts to text (``sys.get_int_max_str_digits()``, where 0
    means no limit), before any of it is rendered."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    for name, value in vars(report).items():
        items = enumerate(value) if isinstance(value, list) else [(None, value)]
        for i, item in items:
            # a digit takes more than 3 bits, so shorter ints skip the power
            if (
                isinstance(item, int)
                and item.bit_length() > 3 * limit
                and abs(item) >= 10**limit
            ):
                where = name if i is None else f"{name}[{i}]"
                raise GuardError(
                    f"report field {where} has more than {limit} digits, "
                    "the interpreter's limit for printing an integer"
                )


def render_report(doc: dict) -> str:
    """The text form of a report document from :func:`report_to_dict`."""
    config = doc["instance"]
    ambient = " x ".join(f"P^{d}" for d in config["ambient"]["dims"])
    lines = [
        f"ambient:            {ambient}  (dim {doc['dim']})",
        f"E:                  {_bundle_str(config['E'])}",
        f"F:                  {_bundle_str(config['F'])}",
        f"matrix size:        {doc['rank']} x {doc['rank']}",
        f"calabi-yau:         {'yes' if doc['calabi_yau'] else 'no'}",
    ]
    if "singular_degree" in doc:
        lines.append(f"singular degree:    {doc['singular_degree']}")
    if "odp_count" in doc:
        lines.append(f"ODP count:          {doc['odp_count']}")
    lines.append(f"ih milnor number:   {doc['ih_milnor_number']}")
    lines.append(f"euler (smooth):     {doc['euler_smooth']}")
    lines.append(f"euler (IH) = euler (resolution): {doc['euler_ih']}")
    if "intersection_numbers" in doc:
        pairs = ", ".join(f"{k} = {v}" for k, v in doc["intersection_numbers"].items())
        lines.append(f"intersection numbers: {pairs}")
    if "c2.H" in doc:
        lines.append(f"c2 pairings:        c2.H = {doc['c2.H']}, c2.L = {doc['c2.L']}")
    lines += [f"note: {warning}" for warning in doc["warnings"]]
    return "\n".join(lines) + "\n"


# -- built-in tables ----------------------------------------------------------


def _config(e_rows, f_rows, **optional) -> dict:
    """A config on P^4, validated like any other."""
    ambient = {"kind": "projective_space", "dims": [4]}
    return parse_config({"ambient": ambient, "E": e_rows, "F": f_rows, **optional})


class Table(NamedTuple):
    """A built-in table: its columns, a reader from a report to a row's
    values, and its rows as ``(label or None, config, expected values)``; a
    label fills the first column.  `table --check` compares every value."""

    columns: tuple[str, ...]
    values: Callable[[InvariantReport], tuple]
    rows: list[tuple[str | None, dict, tuple]]


def _quartic(e_rows, f_rows, odps):
    label = f"{_bundle_str(e_rows)} -> {_bundle_str(f_rows)}"
    return label, _config(e_rows, f_rows), (odps,)


TABLES = {
    # the nodal quintic threefold: its intersection numbers, c2 pairings and nodes
    "table1": Table(
        ("L^3", "L^2.H", "L.H^2", "H^3", "L.c2", "H.c2", "ODPs"),
        lambda report: (
            *report.intersection_numbers,
            report.c2_against_tautological,
            report.c2_against_polarization,
            report.odp_count,
        ),
        [
            (
                None,
                _config([[-1], [-1], [-1], [-2]], [[0]] * 4, polarization=[1]),
                (2, 7, 9, 5, 44, 50, 46),
            )
        ],
    ),
    # the node counts of the quartic threefolds
    "table2": Table(
        ("E -> F", "ODPs"),
        lambda report: (report.odp_count,),
        [
            _quartic([[0], [0]], [[1], [3]], 9),
            _quartic([[-1], [0]], [[1], [2]], 12),
            _quartic([[0], [0], [0]], [[1], [1], [2]], 17),
            _quartic([[0], [0]], [[2], [2]], 16),
            _quartic([[0], [0], [0], [0]], [[1], [1], [1], [1]], 20),
        ],
    ),
}


def _format_table(headers: tuple[str, ...], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(headers)]
    lines.append("-" * len(lines[0]))
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"


# -- commands -----------------------------------------------------------------


def report_from_config(config: dict) -> InvariantReport:
    """The report of a config, refused with :class:`GuardError` if the c2
    guard fails or a number is too long to print."""
    space, pair, polarization = _inputs(config)
    flags = config["flags"]
    # the c2 guard reads only the inputs: refuse before P(F) is built
    if space.dim == 4 and polarization is not None:
        _check_c2_guard(4, polarization, pair.calabi_yau, flags["allow_non_cy_c2"])
    report = build_report(Instance(space, pair, polarization), **flags)
    _check_printable(report)
    return report


def cmd_report(args) -> int:
    config = load_config(args.config)
    doc = report_to_dict(config, report_from_config(config))
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_report(doc), end="")
    return 0


def cmd_table(args) -> int:
    table = TABLES[args.name]
    rows, mismatches = [], []
    for i, (label, config, expected) in enumerate(table.rows, 1):
        head = [] if label is None else [label]
        row = head + list(table.values(report_from_config(config)))
        rows.append(row)
        mismatches += [
            f"row {i}, {column}: computed {got}, expected {want}"
            for column, got, want in zip(table.columns, row, head + list(expected))
            if got != want
        ]
    if args.json:
        doc = {"name": args.name, "columns": list(table.columns), "rows": rows}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        text = [[str(value) for value in row] for row in rows]
        print(_format_table(table.columns, text), end="")
    if args.check:
        if mismatches:
            for line in mismatches:
                print(f"check failed: {line}", file=sys.stderr)
            return 1
        if not args.json:
            print("check passed: all values match the reference data")
    return 0


def cmd_verify(args) -> int:
    results = run_all(depth=args.depth, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = False
    for result in results:
        status = "ok" if result.passed else "FAIL"
        print(f"{result.name.ljust(width)}  {result.cases:4d} cases  {status}")
        for message in result.failures:
            failed = True
            print(f"  {message}", file=sys.stderr)
    print("verification failed" if failed else "all suites passed")
    return 1 if failed else 0


def _depth(text: str) -> int:
    """Argparse type of ``verify --depth``: an integer of at least 1."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if depth < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {depth}")
    return depth


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcalc",
        description=(
            "Exact invariants of determinantal hypersurfaces: singular-point "
            "counts, Euler characteristics, and intersection numbers on the "
            "small resolution."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="evaluate a JSON instance config")
    p_report.add_argument("config", help="path to the config file")
    p_report.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )
    p_report.set_defaults(func=cmd_report)

    p_table = sub.add_parser("table", help="reproduce a built-in table")
    p_table.add_argument("name", choices=TABLES)
    p_table.add_argument(
        "--check",
        action="store_true",
        help="compare against the embedded reference values; exit 1 on mismatch",
    )
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the cross-module property suites")
    p_verify.add_argument(
        "--depth",
        type=_depth,
        default=4,
        help="bound on bundle ranks (default 4)",
    )
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.set_defaults(func=cmd_verify)
    return parser


# Built once per process and only read afterwards, so that ``main`` can be
# called again and again in one process without rebuilding the tree.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)
        finally:
            # argparse exits from parse_args with the help text still buffered
            sys.stdout.flush()
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output: send what is still buffered to
        # os.devnull, so the flush at exit raises nothing, and exit as SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
