import re
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from detcalc.partitions import (
    conjugate,
    covers_above,
    hook_lengths,
    hook_product,
    partition,
    partitions_of,
    syt_count,
)
from oracles import (
    corners_removed,
    hooks_by_scanning,
    standard_fillings,
    syt_count_by_removal,
)


@st.composite
def partition_shapes(draw, max_size=10):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


def test_partition_normalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == ()
    assert partition((1,)) == (1,)
    with pytest.raises(ValueError):
        partition([2, 3])
    with pytest.raises(ValueError):
        partition([2, -1])


@pytest.mark.parametrize(
    "parts, bad", [((2.5, 2.9), "2.5"), ((2, True), "True"), (("2",), "'2'")]
)
def test_partition_refuses_parts_that_are_not_integers(parts, bad):
    # a float was truncated before, so (2.5, 2.9) read as (2, 2)
    with pytest.raises(TypeError, match=f"got {re.escape(bad)}$"):
        partition(parts)


def test_hook_product_known_values():
    assert hook_product((3, 2)) == 24
    assert hook_product((1,)) == 1
    assert hook_product(()) == 1
    assert hook_product((2, 2)) == 12


@given(partition_shapes())
def test_hook_lengths_match_scanning_oracle(shape):
    flat = sorted(h for row in hook_lengths(shape) for h in row)
    assert flat == sorted(hooks_by_scanning(shape))


def test_syt_count_known_values():
    assert syt_count((3, 2)) == 5
    assert syt_count((2, 2)) == 2
    assert syt_count((1,)) == 1
    assert syt_count(()) == 1


def test_syt_count_small_shapes_by_enumeration():
    for shape in [(2, 1), (3, 2), (2, 2), (3, 1, 1), (4, 2)]:
        assert syt_count(shape) == len(standard_fillings(shape))


def test_syt_count_inductive_known_values():
    assert syt_count_by_removal(()) == 1
    assert syt_count_by_removal((2, 1)) == 2
    # one-box-removal split of the 5 fillings of (3, 2)
    assert syt_count_by_removal((3, 2)) == syt_count((3, 1)) + syt_count((2, 2)) == 5


def test_hook_closed_form_up_to_twelve_boxes():
    for n in range(1, 13):
        for k in range(1, n + 1):
            shape = (k,) + (1,) * (n - k)
            assert syt_count(shape) == comb(n - 1, k - 1)


def test_counting_methods_agree_up_to_twelve_boxes():
    for n in range(0, 13):
        for lam in partitions_of(n):
            assert syt_count(lam) == syt_count_by_removal(lam)


def test_sum_of_squares_is_factorial():
    for n in range(0, 9):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_partitions_of_order_and_count():
    fives = list(partitions_of(5))
    assert fives == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert list(partitions_of(0)) == [()]


@given(partition_shapes())
def test_conjugate_is_involution(shape):
    assert conjugate(conjugate(shape)) == shape
    assert sum(conjugate(shape)) == sum(shape)


def fits_inside(mu, lam):
    """True iff the diagram of ``mu`` fits inside the diagram of ``lam``."""
    return len(mu) <= len(lam) and all(m <= l for l, m in zip(lam, mu))


@given(partition_shapes(max_size=8))
def test_covers_are_adjacent_in_containment(shape):
    for below in corners_removed(shape):
        assert sum(below) == sum(shape) - 1
        assert fits_inside(below, shape)
    for above in covers_above(shape):
        assert sum(above) == sum(shape) + 1
        assert fits_inside(shape, above)
    # the two directions are mutually inverse as cover relations
    assert all(shape in covers_above(below) for below in corners_removed(shape))


def test_syt_count_refuses_inexact_division(monkeypatch):
    # a hook product that does not divide |lam|! must raise, even under -O
    import detcalc.partitions as partitions

    monkeypatch.setattr(partitions, "hook_product", lambda lam: 7)
    with pytest.raises(ArithmeticError):
        partitions.syt_count((3, 2))
