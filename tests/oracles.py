"""Independent reference implementations used only by the tests.

Everything here but :func:`unit_inverse` and :func:`tableau_gap` is
deliberately written against plain lists and tuples, with no imports from
the package, so the expected values it produces are computed along a
genuinely different path.  :func:`unit_inverse` uses only the public ring
operations of a class, where the package divides by roots;
:func:`tableau_gap` sums cofactor Schur determinants, a route the package's
reports no longer take.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from detcalc.partitions import conjugate, partitions_of, syt_count
from detcalc.schur import schur


# -- truncated one-variable power series over exact rationals ---------------


def series(coeffs, cap: int) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs[: cap + 1]]
    out += [Fraction(0)] * (cap + 1 - len(out))
    return out


def series_mul(a, b, cap: int) -> list[Fraction]:
    out = [Fraction(0)] * (cap + 1)
    for i, ai in enumerate(a[: cap + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: cap + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_inv(a, cap: int) -> list[Fraction]:
    assert a[0] != 0
    out = [1 / Fraction(a[0])] + [Fraction(0)] * cap
    for k in range(1, cap + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += Fraction(a[i]) * out[k - i] if i < len(a) else 0
        out[k] = -acc / Fraction(a[0])
    return out


def series_pow(a, n: int, cap: int) -> list[Fraction]:
    out = series([1], cap)
    for _ in range(n):
        out = series_mul(out, a, cap)
    return out


# -- brute-force standard-tableau enumeration --------------------------------


def standard_fillings(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Every filling of the diagram with 1..n increasing along rows and columns."""
    n = sum(shape)
    rows = [[] for _ in shape]
    out = []

    def place(value: int) -> None:
        if value > n:
            out.append(tuple(tuple(row) for row in rows))
            return
        for i, row in enumerate(rows):
            if len(row) >= shape[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= len(row):
                continue
            row.append(value)
            place(value + 1)
            row.pop()

    place(1)
    return out


def corners_removed(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes left by taking one corner box off ``shape``, top row first."""
    out = []
    for i, row_len in enumerate(shape):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if row_len > below:
            rows = shape[:i] + (row_len - 1,) + shape[i + 1 :]
            out.append(rows if rows[-1] else rows[:-1])
    return out


@cache
def syt_count_by_removal(shape: tuple[int, ...]) -> int:
    """Standard-filling count by the corner-removal recursion: the box that
    holds the largest entry is a corner, and the rest is a standard filling
    of the shape left without it."""
    if not shape:
        return 1
    return sum(syt_count_by_removal(mu) for mu in corners_removed(shape))


def hooks_by_scanning(shape: tuple[int, ...]) -> list[int]:
    """Hook lengths found by walking right and down from each box."""
    out = []
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            right = row_len - j - 1
            down = sum(1 for k in range(i + 1, len(shape)) if shape[k] > j)
            out.append(right + down + 1)
    return out


# -- naive truncated polynomial rings on exponent tuples ----------------------


def naive_normal_form(exp, caps, relations) -> dict:
    """Reduce one exponent tuple: the first exponent above its cap either
    truncates the monomial or, for a generator with an entry in
    ``relations``, is rewritten by it (``x_i^(cap_i + 1) = relations[i]``)
    and the result reduced again."""
    for i, cap in enumerate(caps):
        if exp[i] > cap:
            if i not in relations:
                return {}
            lowered = list(exp)
            lowered[i] -= cap + 1
            out = {}
            for sub, coeff in relations[i].items():
                raw = tuple(a + b for a, b in zip(lowered, sub))
                for e, c in naive_normal_form(raw, caps, relations).items():
                    out[e] = out.get(e, 0) + coeff * c
            return {e: c for e, c in out.items() if c}
    return {tuple(exp): 1}


def naive_multiply(a: dict, b: dict, caps, relations=None) -> dict:
    """Product of two coefficient maps on exponent tuples, term by term."""
    relations = relations or {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            raw = tuple(x + y for x, y in zip(ea, eb))
            for e, c in naive_normal_form(raw, caps, relations).items():
                out[e] = out.get(e, 0) + ca * cb * c
    return {e: c for e, c in out.items() if c}


# -- inverses of unit classes ---------------------------------------------------


def unit_inverse(x):
    """``1 / x`` for a class with constant term 1: the geometric series
    ``sum_k (-n)^k`` of its part ``n`` of positive degree, which vanishes
    past the dimension, evaluated by Horner's rule with full products."""
    space = x.ambient
    assert x.part(0) == 1
    minus_n = x.part(0) - x
    out = space.one()
    for _ in range(space.dim):
        out = 1 + minus_n * out
    return out


# -- the singular Euler gap as a tableau sum -----------------------------------


def tableau_gap(inst) -> int:
    """Singular Euler gap of ``inst`` from the shapes containing (2,2).

    ``sum_w (-1)^(d+w) * int(rest_w * c_(d-w)(T))``, where ``rest_w`` is
    ``sum f^lam s_lam`` over the partitions of w that contain (2,2), with
    ``f^lam`` the standard-tableau count.  Each ``s_lam`` is a cofactor
    determinant on its short side: through the conjugate shape on the dual
    sequence when it has more rows than columns.
    """
    d, space = inst.d, inst.ambient
    seq, dual = inst.pair.schur_seq, inst.pair.chern_diff
    gap = 0
    for weight in range(4, d + 1):
        rest = space.zero()
        for lam in partitions_of(weight):
            if not (len(lam) > 1 and lam[1] >= 2):  # a hook: no (2,2) inside
                continue
            if len(lam) > lam[0]:
                rest = rest + syt_count(lam) * schur(conjugate(lam), dual)
            else:
                rest = rest + syt_count(lam) * schur(lam, seq)
        tangent_part = space.tangent_chern.part(d - weight)
        gap += (-1) ** (d + weight) * space.integrate(rest * tangent_part)
    return gap
