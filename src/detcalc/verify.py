"""Cross-module property suites, runnable from the command line.

Each suite checks numbers a report prints against a second route, on
deterministic pseudo-random inputs: the Euler numbers, the intersection
numbers and ``c2`` pairings, and the block ring against its monomial ring.
Every case runs inside :meth:`SuiteResult.case`, and every comparison is an
:func:`~detcalc.invariants._agree` call: a raise inside a case is that
case's failure, and its message names the quantity, every route with its
value, and the inputs, so a broken convention is easy to localize.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from .bundles import BundleSpec, VirtualPair
from .chow import AmbientSpace, _pair, block_space, projective_space
from .invariants import (
    Instance,
    _agree,
    c2_numbers,
    euler_numbers,
    euler_smooth_hypersurface,
    ih_milnor_number_small_dim,
    intersection_numbers,
)


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @contextmanager
    def case(self, where: str):
        """Count one case; an exception raised inside it is its failure,
        recorded as the exception's text followed by ``where``."""
        self.cases += 1
        try:
            yield
        except Exception as exc:
            self.failures.append(f"{exc} ({where})")


def _random_instance(
    rng: random.Random,
    space: AmbientSpace,
    rank: int,
    calabi_yau: bool,
    with_polarization: bool = True,
) -> Instance:
    rows_e = [[rng.randint(-2, 1)] for _ in range(rank)]
    rows_f = [[rng.randint(0, 2)] for _ in range(rank)]
    if calabi_yau:
        # adjust the last summand so c1(F) - c1(E) matches c1 of the tangent
        target = space.dim + 1
        rows_f[-1][0] = target + sum(r[0] for r in rows_e) - sum(
            r[0] for r in rows_f[:-1]
        )
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows_e),
        BundleSpec.sum_of_line_bundles(space, rows_f),
    )
    polarization = space.degree_one([1]) if with_polarization else None
    return Instance(space, pair, polarization)


def suite_euler_consistency(depth: int, seed: int) -> SuiteResult:
    """Euler numbers against the shortcut and the smooth-divisor formula; a
    raise from :func:`euler_numbers` is the trial's one failure, and its
    smooth case is skipped."""
    result = SuiteResult("euler-consistency")
    rng = random.Random(seed)
    rank_cap = max(2, min(4, depth))
    spaces = {4: projective_space(4), 5: projective_space(5)}
    for trial in range(50):
        dim = 4 if trial % 2 == 0 else 5
        space = spaces[dim]
        inst = _random_instance(
            rng,
            space,
            rank=rng.randint(2, rank_cap),
            calabi_yau=(dim == 5),
            with_polarization=False,
        )
        where = f"trial {trial}, dim {dim}"
        euler = None
        with result.case(where):
            euler = euler_numbers(inst)
            shortcut = ih_milnor_number_small_dim(inst)
            _agree("singular Euler gap", euler=euler.ih_milnor, shortcut=shortcut)
        if euler is None:
            continue
        with result.case(where):
            smooth = euler_smooth_hypersurface(space, inst.pair.hypersurface_class)
            _agree("smooth Euler number", euler=euler.smooth, divisor=smooth)
    return result


def suite_dual_routes(depth: int, seed: int) -> SuiteResult:
    """Closed forms against direct quotient-bundle integrals.

    The comparisons themselves are the :func:`_agree` calls inside
    :func:`intersection_numbers` and :func:`c2_numbers`; one case per trial.
    """
    result = SuiteResult("dual-routes")
    rng = random.Random(seed)
    space = projective_space(4)
    rank_cap = max(2, min(4, depth))
    for trial in range(20):
        calabi_yau = trial % 2 == 0
        inst = _random_instance(
            rng, space, rank=rng.randint(2, rank_cap), calabi_yau=calabi_yau
        )
        with result.case(f"trial {trial}"):
            intersection_numbers(inst)
            c2_numbers(inst, allow_non_cy=not inst.calabi_yau)
    return result


def suite_block_ring(depth: int, seed: int) -> SuiteResult:
    """The block ring of (P^1)^n against its monomial ring: a random class
    x constant on the blocks, whose products ``x^k x^(n-k)`` and pairings
    ``c(T) x^k`` must integrate to the same numbers on both rings."""
    result = SuiteResult("block-ring")
    rng = random.Random(seed)
    for columns in ((0, 0, 1, 1), (0, 1, 0, 2, 0), (0, 1, 1, 0, 0, 1)):
        n, row = len(columns), [rng.randint(1, 3) for _ in range(3)]
        with result.case(f"columns {columns}"):
            products, tangent = {}, {}
            for name, key in ("monomial", range(n)), ("blocks", columns):
                space, firsts = block_space([1] * n, key)
                x = space.degree_one([row[columns[i]] for i in firsts])
                powers = [space.one()]
                for _ in range(n):
                    powers.append(powers[-1] * x)
                products[name] = [_pair(powers[k], powers[n - k]) for k in range(n + 1)]
                tangent[name] = [_pair(space.tangent_chern, power) for power in powers]
            _agree("products x^k x^(n-k)", **products)
            _agree("tangent pairings c(T) x^k", **tangent)
    return result


_SUITES = (
    suite_euler_consistency,
    suite_dual_routes,
    suite_block_ring,
)


def run_all(depth: int = 4, seed: int = 2024) -> list[SuiteResult]:
    """Run every suite; ``depth`` bounds bundle ranks."""
    if depth < 1:
        raise ValueError("depth must be positive")
    # seeds from seed + 3, where these suites drew theirs when three
    # algebra-only suites ran first, so every case stays as it was
    return [suite(depth, seed + i) for i, suite in enumerate(_SUITES, start=3)]
