"""Independent reference implementations used only by the tests.

The series, the tableau enumerations and the naive rings are written
against plain lists and tuples, with no imports from the package, so the
expected values they produce are computed along a genuinely different
path.  The partition functions (:func:`partition` to :func:`partitions_of`)
are the closed formulas, the hook length formula among them, that the
tests hold against those enumerations.  :func:`monomials_of_degree`
reads only a space's caps, and :func:`from_exponents` builds a class from
its generators.  The class-level references
(:func:`unit_inverse`, :func:`s_from_c`, :func:`schur`,
:func:`twisted_virtual_chern` and :func:`tableau_gap`) use only the public
ring operations of a class, one product and one sum at a time, where the
package builds each sum of products in one term map and divides by roots.
No report takes the routes of the last four: they expand determinants and
transforms that the package's hook convolution and its one 2x2 class
avoid.  :func:`determinantal_singularities` leaves the ring model: it
counts the singular points of an explicit determinant with sympy.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Iterable, Iterator

PartitionLike = Iterable[int]


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


def integer(value: Fraction) -> int:
    """A series coefficient as the ``int`` a class takes; one with a
    denominator other than 1 raises, so a test that multiplies it into a
    class still checks that it is exact."""
    if value.denominator != 1:
        raise ValueError(f"{value} is not an integer")
    return value.numerator


def series_pow(a, n: int, cap: int) -> list[Fraction]:
    out = series([1], cap)
    for _ in range(n):
        out = series_mul(out, a, cap)
    return out


# -- partitions, hooks and standard-tableau counts ---------------------------


def partition(parts: PartitionLike) -> tuple[int, ...]:
    """Canonical partition tuple: trailing zeros stripped, weak decrease enforced."""
    lam = tuple(parts)
    for p in lam:
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"parts must be integers, got {p!r}")
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"parts must be weakly decreasing: {parts!r}")
    if lam and lam[-1] < 0:
        raise ValueError(f"parts must be positive: {parts!r}")
    return lam


def conjugate(lam: PartitionLike) -> tuple[int, ...]:
    """Transposed diagram: column lengths become row lengths."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def hook_lengths(lam: PartitionLike) -> list[list[int]]:
    """Hook length of every box: the box, the boxes to its right, the boxes below."""
    lam = partition(lam)
    cols = conjugate(lam)
    return [
        [(row - j) + (cols[j] - i) - 1 for j in range(row)]
        for i, row in enumerate(lam)
    ]


def hook_product(lam: PartitionLike) -> int:
    """Product of all hook lengths; 1 for the empty diagram."""
    out = 1
    for row in hook_lengths(lam):
        for h in row:
            out *= h
    return out


def syt_count(lam: PartitionLike) -> int:
    """Number of standard fillings of ``lam``: |lam|! divided by the hook product.

    The division is exact; a remainder raises :class:`ArithmeticError`.
    """
    count, remainder = divmod(factorial(sum(partition(lam))), hook_product(lam))
    if remainder:
        raise ArithmeticError(f"hook product of {lam!r} does not divide the factorial")
    return count


def covers_above(lam: PartitionLike) -> list[tuple[int, ...]]:
    """Partitions reached by adding one box, top row first, new row last."""
    lam = partition(lam)
    out = []
    for i in range(len(lam)):
        if i == 0 or lam[i] < lam[i - 1]:
            out.append(lam[:i] + (lam[i] + 1,) + lam[i + 1 :])
    out.append(lam + (1,))
    return out


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``n`` in descending lexicographic order."""
    if n < 0:
        return
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


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


# -- classes built by the public ring operations ------------------------------


def degrees(x) -> set[int]:
    """The degrees of the monomials of the class ``x``, each the sum of its
    exponents; the zero class has none."""
    return {sum(x.ambient._unpack(code)) for code in x.terms}


def monomials_of_degree(space, degree: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of the normal-form monomials of one degree, as
    :func:`from_exponents` takes them."""
    for exp in itertools.product(*(range(cap + 1) for cap in space.caps)):
        if sum(exp) == degree:
            yield exp


def from_exponents(space, terms: dict):
    """``sum c prod g_i^e_i`` over the exponent tuples and coefficients of
    ``terms``, built from the generators ``g_i`` by ring products and sums.
    On a divided field an exponent k gives ``e^k = k! e_k``."""
    out = space.zero()
    for exp, c in terms.items():
        monomial = space.one()
        for i, e in enumerate(exp):
            monomial = monomial * space.generator(i) ** e
        out = out + c * monomial
    return out


def unit_inverse(x):
    """``1 / x`` for a class with constant term 1: the geometric series
    ``sum_k (-n)^k`` of its part ``n`` of positive degree, which vanishes
    past the dimension, evaluated by Horner's rule with full products."""
    space = x.ambient
    one = space.one()
    assert x.parts(0)[0] == one
    minus_n = one - x
    out = one
    for _ in range(space.dim):
        out = one + minus_n * out
    return out


def s_from_c(cseq):
    """Solve ``(sum c_i t^i) * (sum (-1)^j s_j t^j) = 1`` for the ``s_j``.

    The transform is an involution: applying it to the result returns the
    input, truncated at the ambient dimension.
    """
    if not cseq or cseq[0] != cseq[0].ambient.one():
        raise ValueError("sequence must start with the unit class")
    space = cseq[0].ambient
    out = [space.one()]
    for k in range(1, space.dim + 1):
        total = space.zero()
        for j in range(max(0, k - len(cseq) + 1), k):
            total = total + (-1) ** (j + k + 1) * cseq[k - j] * out[j]
        out.append(total)
    return out


def schur(lam: PartitionLike, seq):
    """Determinant ``det(s[lam_i - i + j])`` over the sequence ``seq``.

    Padding ``lam`` with zeros does not change the result.  Expanded by
    cofactors along the rows of ``lam``, with minors memoized by their
    column set: the work grows like ``2**len(lam)``, so a tall shape is
    cheaper through its conjugate on the dual sequence (the dual
    Jacobi-Trudi form ``s_lam(h) = s_lam'(e)`` with ``e = s_from_c(h)``).
    """
    lam = partition(lam)
    if not seq:
        raise ValueError("sequence must start with the unit class")
    space = seq[0].ambient

    def entry(idx):
        if idx == 0:
            return space.one()
        return seq[idx] if 0 < idx < len(seq) else space.zero()

    @cache
    def minor(row: int, cols: tuple[int, ...]):
        if row == len(lam):
            return space.one()
        total = space.zero()
        for pos, col in enumerate(cols):
            x = entry(lam[row] - row + col)
            if not x.is_zero():
                rest = minor(row + 1, cols[:pos] + cols[pos + 1 :])
                total = total + (-1) ** pos * x * rest
        return total

    return minor(0, tuple(range(len(lam))))


def twisted_virtual_chern(pair, ell, k: int):
    """Degree-k part of ``c(F)/c(E)`` after twisting both bundles by ``ell``.

    Closed form, for ``1 <= k <= dim``: an alternating binomial combination
    of the untwisted classes ``pair.chern_diff`` with powers of ``ell``.
    """
    out = pair.ambient.zero()
    for i in range(1, k + 1):
        scale = (-1) ** (k - i) * comb(k - 1, i - 1)
        out = out + scale * pair.chern_diff[i] * ell ** (k - i)
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
        tangent_part = space.tangent_chern.parts()[d - weight]
        gap += (-1) ** (d + weight) * space.integrate(rest * tangent_part)
    return gap


# -- the singular points of an explicit determinant over GF(p) ----------------

PRIME = 32003


def standard_monomial_count(polys, gens) -> int | None:
    """The number of standard monomials of the ideal of ``polys`` over
    GF(PRIME), read off a grevlex Groebner basis built by Buchberger's
    algorithm; None when the ideal is not zero-dimensional.  The unit
    ideal has none.  A zero-dimensional ideal has as many as it has zeros
    over the algebraic closure, counted with multiplicity."""
    import sympy

    basis = sympy.groebner(
        polys, *gens, modulus=PRIME, order="grevlex", method="buchberger"
    )
    leads = [poly.monoms(order="grevlex")[0] for poly in basis.polys]
    for i in range(len(gens)):  # zero-dimensional: a pure power of each x_i
        if not any(sum(lead) == lead[i] for lead in leads):
            return None
    standard, frontier = set(), [(0,) * len(gens)]
    while frontier:
        m = frontier.pop()
        if m in standard or any(all(map(int.__ge__, m, lead)) for lead in leads):
            continue
        standard.add(m)
        frontier.extend(m[:i] + (m[i] + 1,) + m[i + 1 :] for i in range(len(m)))
    return len(standard)


def determinantal_singularities(E, F, n: int, seed: int):
    """The singular points of ``det M = 0`` on P^n, for a matrix ``M`` of
    forms from ``O(E)`` to ``O(F)``: entry ``(i, j)`` is a form of degree
    ``F[i] - E[j]`` whose coefficients ``random.Random(seed)`` draws from
    GF(PRIME).  Returns three standard-monomial counts:

    - of ``f`` and its partials in the chart ``x0 = 1``: the singular
      points there, each weighted by its Tjurina number;
    - of the same ideal with the chart's Hessian determinant added: 0, the
      unit ideal, when every one of those points is an A1 point;
    - of the partials ``df/dx_i`` on ``x0 = 0``: an integer, not None,
      when no singular point lies outside the chart.

    The prime is fixed at 32003 and the test draws seed 0.  A bad prime or
    an unlucky draw shows up as a count that differs or a point that is
    not A1, never as a silent pass.
    """
    import sympy

    xs = sympy.symbols(f"x0:{n + 1}")
    rng = random.Random(seed)

    def form(degree):
        monomials = itertools.combinations_with_replacement(xs, degree)
        return sum(rng.randrange(PRIME) * sympy.Mul(*m) for m in monomials)

    f = sympy.Matrix([[form(b - a) for a in E] for b in F]).det(method="berkowitz")
    chart, affine = sympy.expand(f.subs(xs[0], 1)), xs[1:]
    jacobian = [chart] + [sympy.diff(chart, x) for x in affine]
    hessian = sympy.hessian(chart, affine).det(method="berkowitz")
    boundary = [sympy.expand(sympy.diff(f, x).subs(xs[0], 0)) for x in xs]
    return (
        standard_monomial_count(jacobian, affine),
        standard_monomial_count(jacobian + [sympy.expand(hessian)], affine),
        standard_monomial_count(boundary, affine),
    )
