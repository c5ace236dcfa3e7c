"""Cross-module property suites, runnable from the command line.

Each suite exercises an algebraic identity that ties at least two modules
together, on deterministic pseudo-random inputs.  Every case runs inside
:meth:`SuiteResult.case`, and every comparison is an
:func:`~detcalc.invariants._agree` call: a raise inside a case is that
case's failure, and its message names the quantity, every route with its
value, and the inputs, so a broken convention is easy to localize.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from math import comb

from .bundles import BundleSpec, VirtualPair
from .chow import (
    AmbientSpace, ChowClass, _pair, block_space, divide_by_roots, projective_space,
    sum_of_products,
)
from .invariants import (
    Instance,
    _agree,
    c2_numbers,
    euler_numbers,
    euler_smooth_hypersurface,
    ih_milnor_number_small_dim,
    intersection_numbers,
)
from .partitions import covers_above, partitions_of, syt_count
from .schur import s_from_c, schur


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


def _random_split(
    rng: random.Random, space: AmbientSpace, rank: int, span=(-2, 2)
) -> BundleSpec:
    lo, hi = span
    rows = [[rng.randint(lo, hi)] for _ in range(rank)]
    return BundleSpec.sum_of_line_bundles(space, rows)


def _random_split_pair(
    rng: random.Random, space: AmbientSpace, rank: int, span=(-2, 2)
) -> VirtualPair:
    E = _random_split(rng, space, rank, span)
    return VirtualPair(E, _random_split(rng, space, rank, span))


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


def _random_sequence(rng: random.Random, space: AmbientSpace) -> list:
    """A valid class sequence: unit head, random homogeneous entries."""
    return [space.one()] + [
        ChowClass(space, {e: rng.randint(-4, 4) for e in space.monomials_of_degree(k)})
        for k in range(1, space.dim + 1)
    ]


def suite_schur_identities(depth: int, seed: int) -> SuiteResult:
    """Degree-one Pieri products and the power identity on a split-bundle
    sequence.  F is redrawn while it has the summands of E, since then the
    sequence is 1 and every check compares 0 with 0."""
    result = SuiteResult("schur-identities")
    rng = random.Random(seed)
    space = projective_space(8)
    E = _random_split(rng, space, 4, span=(1, 5))
    while True:
        seq = VirtualPair(E, _random_split(rng, space, 4, span=(1, 5))).schur_seq
        if not all(c.is_zero() for c in seq[1:]):
            break
    s1 = seq[1]
    s = cache(lambda lam: schur(lam, seq))  # each shape evaluated once
    max_weight = min(depth, 6)
    for weight in range(max_weight + 1):
        for lam in partitions_of(weight):
            with result.case(f"shape {lam}"):
                covers = sum(map(s, covers_above(lam)), space.zero())
                _agree("Pieri product", product=s1 * s(lam), covers=covers)
    for power in range(max_weight + 1):
        with result.case(f"power {power}"):
            terms = [syt_count(lam) * s(lam) for lam in partitions_of(power)]
            tableaux = sum(terms, space.zero())
            _agree("power identity", power=s1**power, tableaux=tableaux)
    return result


def suite_sequence_transforms(depth: int, seed: int) -> SuiteResult:
    """Involution of the sequence transform and its bundle specializations."""
    result = SuiteResult("sequence-transforms")
    rng = random.Random(seed)
    space = projective_space(min(6, 2 + depth))
    for trial in range(8):
        seq = _random_sequence(rng, space)
        with result.case(f"trial {trial}"):
            _agree("transform involution", sequence=seq, twice=s_from_c(s_from_c(seq)))
    rank_cap = max(2, min(4, depth))
    for trial in range(8):
        pair = _random_split_pair(rng, space, rng.randint(2, rank_cap))
        with result.case(f"trial {trial}"):
            transform = s_from_c(pair.chern_diff)
            _agree("dual-difference sequence", transform=transform, pair=pair.schur_seq)
        with result.case(f"trial {trial}"):
            direct = schur((2, 2), pair.schur_seq)
            swapped = schur((2, 2), pair.chern_diff)
            _agree("2x2 Schur class", direct=direct, swapped=swapped)
    return result


def _twisted_virtual_chern(pair: VirtualPair, ell, k: int):
    """Degree-k part of ``c(F)/c(E)`` after twisting both bundles by ``ell``.

    Closed form, for ``1 <= k <= dim``: an alternating binomial combination
    of the untwisted classes ``pair.chern_diff`` with powers of ``ell``.
    """
    products = []
    ell_pow = pair.ambient.one()
    for i in range(k, 0, -1):
        scale = (-1) ** (k - i) * comb(k - 1, i - 1)
        products.append((scale, pair.chern_diff[i], ell_pow))
        ell_pow = ell_pow * ell
    return sum_of_products(pair.ambient, products)


def _chern_diff(E: BundleSpec, F: BundleSpec) -> list:
    """Parts of ``c(F)/c(E)``: the ``chern_diff`` of ``VirtualPair(E, F)``
    without the pair's ``c1`` sums and Calabi-Yau test, which its
    constructor forms and this suite never reads."""
    return divide_by_roots(F.total_chern().parts(), E.roots)


def suite_twist_formulas(depth: int, seed: int) -> SuiteResult:
    """Closed twist expansions against direct quotient/product expansions."""
    result = SuiteResult("twist-formulas")
    rng = random.Random(seed)
    space = projective_space(5)
    h = space.generator(0)
    rank_cap = max(2, min(4, depth))
    for trial in range(10):
        rank = rng.randint(1, rank_cap)
        pair = _random_split_pair(rng, space, rank)
        ell = h * rng.randint(-2, 2)
        twisted = _chern_diff(pair.E.twist(ell), pair.F.twist(ell))
        for k in range(1, min(5, space.dim) + 1):
            with result.case(f"trial {trial}, k={k}"):
                closed = _twisted_virtual_chern(pair, ell, k)
                _agree("twisted virtual class", closed=closed, direct=twisted[k])
        where = f"trial {trial}"
        with result.case(where):
            total = pair.E.total_chern()
            terms = [(1, total.part(i), ell ** (rank - i)) for i in range(rank + 1)]
            expansion = sum_of_products(space, terms)
            direct = pair.E.twist(ell).chern(rank)
            _agree("top twisted Chern class", direct=direct, expansion=expansion)
        with result.case(where):
            quotient = _chern_diff(pair.E, pair.E)
            _agree("c(E - E)", quotient=quotient, unit=[1] + [0] * space.dim)
        with result.case(where):
            forward = pair.chern_diff
            backward = _chern_diff(pair.F, pair.E)
            steps = [(i, k - i) for k in range(space.dim + 1) for i in range(k + 1)]
            convolution = [(1, forward[i], backward[j]) for i, j in steps]
            product = sum_of_products(space, convolution)
            _agree("c(F - E) c(E - F)", product=product, unit=1)
    return result


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
    suite_schur_identities,
    suite_sequence_transforms,
    suite_twist_formulas,
    suite_euler_consistency,
    suite_dual_routes,
    suite_block_ring,
)


def run_all(depth: int = 4, seed: int = 2024) -> list[SuiteResult]:
    """Run every suite; ``depth`` bounds partition weights and bundle ranks."""
    if depth < 1:
        raise ValueError("depth must be positive")
    return [suite(depth, seed + i) for i, suite in enumerate(_SUITES)]
