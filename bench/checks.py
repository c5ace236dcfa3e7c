"""Output checks for the benchmark, independent of ``detcalc``.

An operation fails when it raises, exits with another code than expected,
produces a value that is not an integer, breaks the Euler identity, differs
from the committed reference for its workload and seed, or, on P^d, differs
from a one-variable power-series oracle computed here with plain integers.
"""

from __future__ import annotations

REPORT_INTS = (
    "dim", "rank", "ih_milnor", "euler_smooth", "euler_ih", "euler_resolution",
)
OPTIONAL_INTS = (
    "singular_degree", "odp_count",
    "c2_against_polarization", "c2_against_tautological",
)


# -- truncated power series in one variable h, integer coefficients ----------


def series_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x:
            for j, y in enumerate(b[: cap + 1 - i]):
                out[i + j] += x * y
    return out


def series_inverse(a: list[int], cap: int) -> list[int]:
    """Inverse of a series with constant term 1."""
    out = [1] + [0] * cap
    for k in range(1, cap + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
    return out


def linear_product(roots: list[int], cap: int) -> list[int]:
    """Coefficients of prod (1 + r h) over the roots."""
    out = [1] + [0] * cap
    for r in roots:
        out = series_mul(out, [1, r], cap)
    return out


def pn_oracle(d: int, e_degrees: list[int], f_degrees: list[int], pol: int) -> dict:
    """Expected intersection numbers and smooth Euler number on P^d.

    ``H^k . L^(d-1-k)`` is ``pol^k`` times the coefficient of ``h^(d-k)`` in
    ``c(E*)/c(F*)``; the smooth Euler number is the coefficient of ``h^d`` in
    ``D h (1+h)^(d+1) / (1 + D h)`` with ``D = sum(F) - sum(E)``.
    """
    seq = series_mul(
        linear_product([-e for e in e_degrees], d),
        series_inverse(linear_product([-f for f in f_degrees], d), d),
        d,
    )
    divisor = sum(f_degrees) - sum(e_degrees)
    tangent = linear_product([1] * (d + 1), d)
    geometric = [(-divisor) ** k for k in range(d + 1)]
    smooth = series_mul(series_mul([0, divisor], tangent, d), geometric, d)[d]
    return {
        "intersection_numbers": [pol**k * seq[d - k] for k in range(d)],
        "euler_smooth": smooth,
    }


# -- checks ---------------------------------------------------------------------


def problems(op, got: dict, reference: dict | None) -> list[str]:
    """Every way the outcome ``got`` of ``op`` is wrong; empty when it is right.

    ``reference`` is the committed outcome for this op, or None when the
    seed has no committed references.
    """
    out = []
    if "exit" in got and got["exit"] != op.expected_exit:
        out.append(f"exit {got['exit']}, expected {op.expected_exit}")
    if got.get("non_integers"):
        out.append(f"non-integer values in the JSON output: {got['non_integers']}")
    values = got["values"]
    if isinstance(values, dict):
        out += _report_problems(op, values)
    elif values is False:
        out.append("a verify suite reported FAIL")
    if reference is not None:
        mine = {key: got[key] for key in ("exit", "values") if key in got}
        if mine != reference:
            out.append(f"outcome {mine} differs from the reference {reference}")
    return out


def _report_problems(op, values: dict) -> list[str]:
    out = []
    numbers = values["intersection_numbers"] or []
    ints = [values[key] for key in REPORT_INTS] + numbers + [
        values[key] for key in OPTIONAL_INTS if values[key] is not None
    ]
    if not all(type(v) is int for v in ints):
        return [f"non-integer report values: {values}"]
    d = values["dim"]
    if values["euler_ih"] != values["euler_smooth"] + (-1) ** d * values["ih_milnor"]:
        out.append("euler_ih != euler_smooth + (-1)^d * ih_milnor")
    doc = op.config if op.config is not None else op.config_doc()
    if doc["ambient"]["kind"] == "projective_space":
        want = pn_oracle(
            d,
            [row[0] for row in doc["E"]],
            [row[0] for row in doc["F"]],
            doc["polarization"][0],
        )
        if values["euler_smooth"] != want["euler_smooth"]:
            out.append(f"euler_smooth {values['euler_smooth']} != oracle {want['euler_smooth']}")
        if numbers != want["intersection_numbers"]:
            out.append(f"intersection numbers {numbers} != oracle {want['intersection_numbers']}")
    return out
