"""Young-diagram combinatorics: partitions, hooks, and standard-tableau counts."""

from __future__ import annotations

from math import factorial
from typing import Iterable, Iterator

PartitionLike = Iterable[int]


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
