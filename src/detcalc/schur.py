"""Schur-polynomial machinery over sequences of graded ring classes.

A class sequence is a list ``s[0], s[1], ..., s[D]`` of classes on one
ambient space with ``s[0] = 1`` and ``s[k]`` homogeneous of degree ``k``;
indices outside the list are zero by convention.
"""

from __future__ import annotations

from math import comb

from .chow import ChowClass, _pair3, sum_of_products
from .partitions import PartitionLike, partition


def s_from_c(cseq: list[ChowClass]) -> list[ChowClass]:
    """Solve ``(sum c_i t^i) * (sum (-1)^j s_j t^j) = 1`` for the ``s_j``.

    The transform is an involution: applying it to the result returns the
    input, truncated at the ambient dimension.
    """
    if not cseq or cseq[0] != 1:
        raise ValueError("sequence must start with the unit class")
    space = cseq[0].ambient
    out = [space.one()]
    for k in range(1, space.dim + 1):
        low = max(0, k - len(cseq) + 1)
        products = [((-1) ** (j + k + 1), cseq[k - j], out[j]) for j in range(low, k)]
        out.append(sum_of_products(space, products))
    return out


def _entry(seq: list[ChowClass], idx: int, space) -> ChowClass:
    if idx == 0:
        return space.one()
    if 0 < idx < len(seq):
        return seq[idx]
    return space.zero()


def schur(lam: PartitionLike, seq: list[ChowClass]) -> ChowClass:
    """Determinant ``det(s[lam_i - i + j])`` over the given sequence.

    Padding ``lam`` with zeros does not change the result.  Expanded by
    cofactors along the rows of ``lam``, with minors memoized by their
    column set: the work grows like ``2**len(lam)``, so a tall shape is
    cheaper through its conjugate on the dual sequence (the dual
    Jacobi-Trudi form ``s_lam(h) = s_lam'(e)`` with ``e = s_from_c(h)``).
    Callers choose the side; this routine is the reference for both.
    """
    lam = partition(lam)
    if not seq:
        raise ValueError("sequence must start with the unit class")
    space = seq[0].ambient
    k = len(lam)
    if k == 0:
        return space.one()

    minors: dict[tuple[int, tuple[int, ...]], ChowClass] = {}

    def minor(row: int, cols: tuple[int, ...]) -> ChowClass:
        if row == k:
            return space.one()
        key = (row, cols)
        found = minors.get(key)
        if found is not None:
            return found
        products = []
        for pos, col in enumerate(cols):
            entry = _entry(seq, lam[row] - row + col, space)
            if not entry.is_zero():
                rest = minor(row + 1, cols[:pos] + cols[pos + 1 :])
                products.append(((-1) ** pos, entry, rest))
        minors[key] = found = sum_of_products(space, products)
        return found

    return minor(0, tuple(range(k)))


def _hook_products(weight: int, h: list[ChowClass], e: list[ChowClass]):
    """The terms ``(C(w-2, a-1), h[a], e[w-a])`` of the hook convolution of
    weight ``w >= 2`` (see :func:`hook_sum`).  Terms past the end of either
    sequence vanish, and so do zero entries: neither is yielded."""
    for a in range(max(1, weight - len(e) + 1), min(weight, len(h))):
        left, right = h[a], e[weight - a]
        if not (left.is_zero() or right.is_zero()):
            yield comb(weight - 2, a - 1), left, right


def hook_sum(weight: int, h: list[ChowClass], e: list[ChowClass]) -> ChowClass:
    """Hooks of weight ``w`` weighted by their tableau counts,
    ``sum_b C(w-1, b) s_(w-b, 1^b)``, without a determinant.

    ``e`` is the dual sequence ``s_from_c(h)``, and each hook has the closed
    form ``s_(w-b, 1^b) = sum_(j=0..b) (-1)^j h[w-b+j] e[b-j]``.  Grouped by
    the product ``h[a] e[w-a]``, the weighted hooks give it the coefficient
    ``sum_(b=w-a..w-1) (-1)^(a-w+b) C(w-1, b)``, which with ``m = w-1-b`` is
    ``(-1)^(a-1) sum_(m=0..a-1) (-1)^m C(w-1, m)``.  The alternating partial
    sum ``sum_(k<=m) (-1)^k C(n, k) = (-1)^m C(n-1, m)`` makes it
    ``C(w-2, a-1)``, which vanishes at ``a = w``.  The sum is therefore the
    one convolution ``sum_(a=1..w-1) C(w-2, a-1) h[a] e[w-a]``, or ``h[1]``
    when w = 1.  Terms past the end of either sequence vanish, and so do
    zero entries: neither costs a kernel call.  Where only the integral of
    the hooks against one class is needed, :func:`hook_pairing` gives it
    without forming this class.
    """
    space = h[0].ambient
    if weight == 1:
        return _entry(h, 1, space)
    return sum_of_products(space, _hook_products(weight, h, e))


def hook_pairing(
    weight: int, h: list[ChowClass], e: list[ChowClass], t: ChowClass
) -> int:
    """``integrate(hook_sum(weight, h, e) * t)`` for weight ``w >= 2`` on a
    space with no relation, without the hook class: each product of the
    convolution is integrated against ``t`` by ``chow._pair3``, which forms
    none of them."""
    return sum(
        binomial * _pair3(left, right, t)
        for binomial, left, right in _hook_products(weight, h, e)
    )
