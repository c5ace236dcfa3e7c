"""Cross-module property suites, runnable from the command line.

Each suite exercises an algebraic identity that ties at least two modules
together, on deterministic pseudo-random inputs.  A failure message names
the inputs, so a broken convention is easy to localize.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from .bundles import BundleSpec, VirtualPair
from .chow import AmbientSpace, projective_space
from .invariants import (
    ConsistencyError,
    Instance,
    c2_numbers,
    euler_numbers,
    euler_smooth_hypersurface,
    ih_milnor_number_small_dim,
    intersection_numbers,
    is_calabi_yau,
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

    def check(self, ok: bool, message: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(message)


def _random_split_pair(
    rng: random.Random, space: AmbientSpace, rank: int, span=(-2, 2)
) -> VirtualPair:
    lo, hi = span
    rows_e = [[rng.randint(lo, hi)] for _ in range(rank)]
    rows_f = [[rng.randint(lo, hi)] for _ in range(rank)]
    return VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows_e),
        BundleSpec.sum_of_line_bundles(space, rows_f),
    )


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
    seq = [space.one()]
    for k in range(1, space.dim + 1):
        entry = space.zero()
        for mono in space.monomial_basis(k):
            entry = entry + mono * rng.randint(-4, 4)
        seq.append(entry)
    return seq


def suite_schur_identities(depth: int, seed: int) -> SuiteResult:
    """Degree-one Pieri products and the power identity on a split-bundle sequence."""
    result = SuiteResult("schur-identities")
    rng = random.Random(seed)
    space = projective_space(8)
    pair = _random_split_pair(rng, space, rank=4, span=(1, 5))
    seq = pair.schur_seq
    s1 = seq[1]
    max_weight = min(depth, 6)
    for weight in range(max_weight + 1):
        for lam in partitions_of(weight):
            left = s1 * schur(lam, seq)
            right = space.zero()
            for mu in covers_above(lam):
                right = right + schur(mu, seq)
            result.check(left == right, f"Pieri product fails at {lam}")
    for power in range(max_weight + 1):
        expansion = space.zero()
        for lam in partitions_of(power):
            expansion = expansion + syt_count(lam) * schur(lam, seq)
        result.check(s1**power == expansion, f"power identity fails at {power}")
    return result


def suite_sequence_transforms(depth: int, seed: int) -> SuiteResult:
    """Involution of the sequence transform and its bundle specializations."""
    result = SuiteResult("sequence-transforms")
    rng = random.Random(seed)
    space = projective_space(min(6, 2 + depth))
    for trial in range(8):
        seq = _random_sequence(rng, space)
        back = s_from_c(s_from_c(seq))
        result.check(
            all(a == b for a, b in zip(seq, back)),
            f"transform is not an involution (trial {trial})",
        )
    rank_cap = max(2, min(4, depth))
    for trial in range(8):
        pair = _random_split_pair(rng, space, rng.randint(2, rank_cap))
        transformed = s_from_c(pair.chern_diff)
        result.check(
            all(a == b for a, b in zip(transformed, pair.schur_seq)),
            f"transform of c(F-E) is not the dual-difference sequence (trial {trial})",
        )
        square_direct = schur((2, 2), pair.schur_seq)
        square_swapped = schur((2, 2), pair.chern_diff)
        result.check(
            square_direct == square_swapped,
            f"2x2 Schur class is not swap-symmetric (trial {trial})",
        )
    return result


def _twisted_virtual_chern(pair: VirtualPair, ell, k: int):
    """Degree-k part of ``c(F)/c(E)`` after twisting both bundles by ``ell``.

    Closed form, for ``1 <= k <= dim``: an alternating binomial combination
    of the untwisted classes ``pair.chern_diff`` with powers of ``ell``.
    """
    out = pair.ambient.zero()
    ell_pow = pair.ambient.one()
    for i in range(k, 0, -1):
        term = comb(k - 1, i - 1) * (pair.chern_diff[i] * ell_pow)
        out = out + (term if (k - i) % 2 == 0 else -term)
        ell_pow = ell_pow * ell
    return out


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
        twisted = VirtualPair(pair.E.twist(ell), pair.F.twist(ell))
        for k in range(1, min(5, space.dim) + 1):
            closed = _twisted_virtual_chern(pair, ell, k)
            direct = twisted.chern_diff[k]
            result.check(
                closed == direct,
                f"twisted virtual class mismatch (trial {trial}, k={k})",
            )
        bundle = pair.E
        top = bundle.twist(ell).chern(rank)
        total = bundle.total_chern()
        expansion = space.zero()
        for i in range(rank + 1):
            expansion = expansion + total.part(i) * ell ** (rank - i)
        result.check(
            top == expansion, f"top twisted Chern class mismatch (trial {trial})"
        )
        product = VirtualPair(pair.E, pair.E).chern_diff
        result.check(
            product[0] == 1 and all(p.is_zero() for p in product[1:]),
            f"virtual classes of a trivial difference persist (trial {trial})",
        )
        forward = pair.chern_diff
        backward = VirtualPair(pair.F, pair.E).chern_diff
        convolution = space.zero()
        for k in range(space.dim + 1):
            for i in range(k + 1):
                convolution = convolution + forward[i] * backward[k - i]
        result.check(
            convolution == 1, f"c(F-E).c(E-F) is not 1 (trial {trial})"
        )
    return result


def suite_euler_consistency(depth: int, seed: int) -> SuiteResult:
    """Euler numbers against the shortcut and the smooth-divisor formula; a
    :class:`ConsistencyError` from :func:`euler_numbers` is a failure."""
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
        try:
            euler = euler_numbers(inst)
        except ConsistencyError as exc:
            result.check(False, f"Euler numbers raised (trial {trial}): {exc}")
            continue
        shortcut = ih_milnor_number_small_dim(inst)
        result.check(
            euler.ih_milnor == shortcut,
            f"tableau sum {euler.ih_milnor} != shortcut {shortcut} "
            f"(trial {trial}, dim {dim})",
        )
        smooth = euler_smooth_hypersurface(
            inst.ambient, inst.pair.hypersurface_class()
        )
        result.check(
            euler.smooth == smooth,
            f"smooth Euler number {euler.smooth} != divisor formula {smooth} "
            f"(trial {trial}, dim {dim})",
        )
    return result


def suite_dual_routes(depth: int, seed: int) -> SuiteResult:
    """Closed forms against direct quotient-bundle integrals.

    The comparisons themselves run inside :func:`intersection_numbers` and
    :func:`c2_numbers`, which raise on any disagreement; the suite records
    such an exception as a failure.
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
        try:
            intersection_numbers(inst)
            c2_numbers(inst, allow_non_cy=not is_calabi_yau(inst))
        except Exception as exc:
            result.check(False, f"dual-route comparison raised (trial {trial}): {exc}")
        else:
            result.check(True, "")
    return result


_SUITES = (
    suite_schur_identities,
    suite_sequence_transforms,
    suite_twist_formulas,
    suite_euler_consistency,
    suite_dual_routes,
)


def run_all(depth: int = 4, seed: int = 2024) -> list[SuiteResult]:
    """Run every suite; ``depth`` bounds partition weights and bundle ranks."""
    if depth < 1:
        raise ValueError("depth must be positive")
    return [suite(depth, seed + i) for i, suite in enumerate(_SUITES)]
