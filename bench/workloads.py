"""The four benchmark workloads: generation from a seed, execution, outcomes.

Every workload is a list of operations that one pass runs in order, one at a
time, in one process and one thread (a closed loop with one client).  An
operation is either a library report (``build_report`` on an instance built
through the public API) or an in-process ``detcalc.cli.main(argv)`` call.
Generation touches only plain data; ``detcalc`` receives nothing but the
generated configs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("pn_dense", "p1n_dense", "sparse_seeded", "cli_small")

# Seconds one untraced pass takes at the seed commit on a 2-core x86-64 host
# under CPython 3.11.7.  A run makes round(seconds / nominal) passes (at least
# three), so the pass count depends on --seconds and the workload only: every
# run of a workload does the same work on every commit, and its percentiles
# fall on the same operations.
NOMINAL_PASS_S = {
    "pn_dense": 8.0,
    "p1n_dense": 8.0,
    "sparse_seeded": 1.2,
    "cli_small": 2.0,
}

CLI_AMBIENTS = ([4], [5], [1, 3], [2, 2], [1, 1, 2], [1, 1, 1, 1])


@dataclass
class Op:
    """One operation: a library report or a CLI call, with its expected exit."""

    label: str
    kind: str  # "report" or "cli"
    dims: list[int] = field(default_factory=list)
    e_rows: list[list[int]] = field(default_factory=list)
    f_rows: list[list[int]] = field(default_factory=list)
    polarization: list[int] | None = None
    allow_non_cy_c2: bool = False
    argv: list[str] = field(default_factory=list)
    config: dict | None = None  # document written to disk for `report`
    expected_exit: int = 0

    def config_doc(self) -> dict:
        doc = {
            "ambient": {
                "kind": "projective_space" if len(self.dims) == 1 else "product",
                "dims": list(self.dims),
            },
            "E": self.e_rows,
            "F": self.f_rows,
            "flags": {"allow_non_cy_c2": self.allow_non_cy_c2},
        }
        if self.polarization is not None:
            doc["polarization"] = self.polarization
        return doc


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    largest: str  # label of the costliest operation

    def passes(self, seconds: float) -> int:
        return max(3, round(seconds / NOMINAL_PASS_S[self.name]))


def _report(label, dims, e_rows, f_rows, polarization, allow_non_cy_c2=True) -> Op:
    return Op(label, "report", dims, e_rows, f_rows, polarization, allow_non_cy_c2)


def _pn_dense(seed: int) -> Workload:
    # 1/(1-h)^3 has every coefficient nonzero: full Jacobi-Trudi matrices.
    ops = [
        _report(f"P^{d}", [d], [[0]] * 3, [[1]] * 3, [1]) for d in range(6, 15)
    ]
    return Workload("pn_dense", seed, ops, "P^14")


def _p1n_dense(seed: int) -> Workload:
    # Classes spread over up to 70 monomials: the ring core dominates.
    ops = [
        _report(f"(P^1)^{n}", [1] * n, [[0] * n] * 3, [[1] * n] * 3, [1] * n)
        for n in range(4, 9)
    ]
    return Workload("p1n_dense", seed, ops, "(P^1)^8")


# Seeded workloads fix the shape of every instance (ambient, rank, and which
# degrees are nonzero) and let the seed pick the nonzero degrees and the row
# order.  Cost follows the shape, not the degree values, so every seed costs
# about the same and runs with different seeds can be compared.

# (factor dims, rank, E rows with nonzero degrees)
SPARSE_SHAPES = (
    ([8], 5, 5), ([9], 4, 4), ([10], 3, 3), ([11], 2, 2), ([12], 5, 3),
    ([13], 4, 3), ([14], 5, 3), ([3, 3], 5, 3), ([2, 2, 3], 3, 2),
    ([4, 4], 4, 2), ([3, 3, 3], 2, 2),
)


def _rows(rng: random.Random, width: int, rank: int, nonzero: int, degrees) -> list:
    rows = [[rng.choice(degrees) for _ in range(width)] for _ in range(nonzero)]
    rows += [[0] * width for _ in range(rank - nonzero)]
    rng.shuffle(rows)
    return rows


def _sparse_seeded(seed: int) -> Workload:
    # F is trivial and c(E dual) a polynomial of degree at most the rank, so
    # most Schur entries are zero and the cofactor zero-skip pays off.
    rng = random.Random(f"sparse_seeded/{seed}")
    ops = []
    for dims, rank, nonzero in SPARSE_SHAPES:
        e_rows = _rows(rng, len(dims), rank, nonzero, (-1, -2))
        f_rows = [[0] * len(dims) for _ in range(rank)]
        polarization = [rng.randint(1, 2) for _ in dims]
        name = "x".join(f"P^{d}" for d in dims)
        ops.append(_report(f"{name} r{rank}", dims, e_rows, f_rows, polarization))
    return Workload("sparse_seeded", seed, ops, "P^14 r5")


def _cli_report(label: str, doc: dict, expected_exit: int = 0) -> Op:
    return Op(label, "cli", argv=["report", "", "--json"], config=doc,
              expected_exit=expected_exit)


def _cli_small(seed: int) -> Workload:
    rng = random.Random(f"cli_small/{seed}")
    ops = [
        Op("table1", "cli", argv=["table", "table1", "--check"]),
        Op("table2", "cli", argv=["table", "table2", "--check"]),
        Op("verify", "cli", argv=["verify", "--depth", "6"]),
    ]
    for i in range(40):
        dims = CLI_AMBIENTS[i % len(CLI_AMBIENTS)]
        rank = 2 + i % 4
        e_rows = _rows(rng, len(dims), rank, rank // 2, (-1, -2))
        f_rows = _rows(rng, len(dims), rank, rank, (1, 2))
        op = _report(f"r{i:02d}", dims, e_rows, f_rows, [1] * len(dims))
        ops.append(_cli_report(op.label, op.config_doc()))
    # Refusals, with the exit code the CLI documents for each.
    too_small = _report("", [3], [[0], [0]], [[1], [1]], [1]).config_doc()
    mismatched = _report("", [4], [[0], [0]], [[1], [1], [1]], [1]).config_doc()
    non_cy_p4 = _report("", [4], [[0], [0]], [[1], [1]], [1], False).config_doc()
    non_cy_p1p3 = _report(
        "", [1, 3], [[0, 0], [0, 0]], [[1, 1], [0, 1]], [1, 1], False
    ).config_doc()
    ops += [
        _cli_report("refuse-dim3", too_small, 2),
        _cli_report("refuse-rows", mismatched, 2),
        _cli_report("guard-c2-P^4", non_cy_p4, 3),
        _cli_report("guard-c2-P^1xP^3", non_cy_p1p3, 3),
    ]
    return Workload("cli_small", seed, ops, "verify")


def generate(name: str, seed: int) -> Workload:
    """The workload's operations for this seed; the same seed gives the same ops."""
    return {
        "pn_dense": _pn_dense,
        "p1n_dense": _p1n_dense,
        "sparse_seeded": _sparse_seeded,
        "cli_small": _cli_small,
    }[name](seed)


# -- execution ----------------------------------------------------------------


def execute(op: Op, api, config_paths: dict[str, str]):
    """Run one operation against the imported ``detcalc`` package ``api``.

    Returns the report for a library op, ``(exit code, stdout)`` for a CLI op.
    Names are looked up on every call, so a tracer's wrappers are seen.
    """
    if op.kind == "report":
        if len(op.dims) == 1:
            space = api.projective_space(op.dims[0])
        else:
            space = api.product_of_projective_spaces(op.dims)
        pair = api.VirtualPair(
            api.BundleSpec.sum_of_line_bundles(space, op.e_rows),
            api.BundleSpec.sum_of_line_bundles(space, op.f_rows),
        )
        inst = api.Instance(space, pair, space.degree_one(op.polarization))
        return api.build_report(inst, allow_non_cy_c2=op.allow_non_cy_c2)
    argv = list(op.argv)
    if op.config is not None:
        argv[1] = config_paths[op.label]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue()


# -- outcomes: the values an operation produced, as plain data ----------------

REPORT_FIELDS = (
    "dim", "rank", "ih_milnor", "euler_smooth", "euler_ih", "euler_resolution",
    "singular_degree", "odp_count", "intersection_numbers",
    "c2_against_polarization", "c2_against_tautological",
)

# JSON keys of `detcalc report --json` for the same fields.
JSON_FIELDS = dict(zip(REPORT_FIELDS, (
    "dim", "rank", "ih_milnor_number", "euler_smooth", "euler_ih",
    "euler_resolution", "singular_degree", "odp_count", "intersection_numbers",
    "c2.H", "c2.L",
)))


def _h_power(label: str) -> int:
    """Power of H in a pairing label such as ``L^2.H`` or ``H^3``."""
    for bit in label.split("."):
        if bit.startswith("H"):
            return int(bit[2:]) if bit.startswith("H^") else 1
    return 0


def outcome(op: Op, result) -> dict:
    """Plain-data summary of a result, compared against the committed references."""
    if op.kind == "report":
        values = {key: getattr(result, key) for key in REPORT_FIELDS}
        if values["intersection_numbers"] is not None:
            values["intersection_numbers"] = list(values["intersection_numbers"])
        return {"values": values}
    code, stdout = result
    out = {"exit": code, "values": None}
    if code != 0:
        return out
    if op.argv[0] == "report":
        doc = json.loads(stdout)
        values = {key: doc.get(JSON_FIELDS[key]) for key in REPORT_FIELDS}
        numbers = doc.get("intersection_numbers")
        if numbers is not None:
            ordered = sorted(numbers.items(), key=lambda item: _h_power(item[0]))
            values["intersection_numbers"] = [value for _, value in ordered]
        out["values"] = values
        out["non_integers"] = [x for x in _numbers_in(doc) if not isinstance(x, int)]
    elif op.argv[0] == "table":
        rows = stdout.split("\n")
        ruler = next(i for i, line in enumerate(rows) if set(line) == {"-"})
        data = "\n".join(rows[ruler + 1:])
        out["values"] = [int(tok) for tok in re.findall(r"-?\d+", data)]
    else:
        out["values"] = "FAIL" not in stdout
    return out


def _numbers_in(doc) -> list:
    """Every number in a decoded JSON document, booleans excluded."""
    if isinstance(doc, dict):
        return [x for value in doc.values() for x in _numbers_in(value)]
    if isinstance(doc, list):
        return [x for value in doc for x in _numbers_in(value)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [doc]
    return []
