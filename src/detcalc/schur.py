"""Weighted hook sums of Schur classes over sequences of graded ring classes.

A class sequence is a list ``s[0], s[1], ..., s[D]`` of classes on one
ambient space with ``s[0] = 1`` and ``s[k]`` homogeneous of degree ``k``;
indices outside the list are zero by convention.  The hooks of one weight
are one binomial convolution of a sequence with its dual, so no
determinant is expanded here.
"""

from __future__ import annotations

from math import comb

from .chow import ChowClass, _pair3, sum_of_products


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

    ``e`` is the dual sequence, ``(sum h_i t^i) (sum (-1)^j e_j t^j) = 1``
    (a pair's ``schur_seq`` and ``chern_diff``), and each hook has the
    closed form ``s_(w-b, 1^b) = sum_(j=0..b) (-1)^j h[w-b+j] e[b-j]``.
    Grouped by the product ``h[a] e[w-a]``, the weighted hooks give it the
    coefficient ``sum_(b=w-a..w-1) (-1)^(a-w+b) C(w-1, b)``, which with
    ``m = w-1-b`` is ``(-1)^(a-1) sum_(m=0..a-1) (-1)^m C(w-1, m)``.  The
    alternating partial sum ``sum_(k<=m) (-1)^k C(n, k) = (-1)^m C(n-1, m)``
    makes it ``C(w-2, a-1)``, which vanishes at ``a = w``.  The sum is
    therefore the one convolution ``sum_(a=1..w-1) C(w-2, a-1) h[a] e[w-a]``,
    or ``h[1]`` when w = 1.  Terms past the end of either sequence vanish,
    and so do zero entries: neither costs a kernel call.  Where only the integral of
    the hooks against one class is needed, :func:`hook_pairing` gives it
    without forming this class.
    """
    if weight == 1:
        return h[1]
    return sum_of_products(h[0].ambient, _hook_products(weight, h, e))


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
