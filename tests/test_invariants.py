import random
import sys
import threading
from dataclasses import asdict
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcalc import bundles, chow, cli, invariants
from detcalc.bundles import BundleSpec, VirtualPair
from detcalc.chow import (
    _pair,
    product_of_projective_spaces,
    proj_bundle,
    projective_space,
)
from detcalc.cli import TABLES, load_config
from detcalc.invariants import (
    ConsistencyError,
    GuardError,
    Instance,
    build_report,
    c2_numbers,
    euler_numbers,
    euler_smooth_hypersurface,
    ih_milnor_number_small_dim,
    intersection_numbers,
    porteous_class,
    porteous_degree,
)
import oracles
from oracles import schur, series, series_inv, series_mul, series_pow, tableau_gap
from tables import instance, table_rows


GOLDEN = Path(__file__).parent / "golden"


def split(space, degrees):
    return BundleSpec.sum_of_line_bundles(space, [[d] for d in degrees])


def make_instance(space, e_degrees, f_degrees, polarized=True):
    pair = VirtualPair(split(space, e_degrees), split(space, f_degrees))
    polarization = space.generator(0) if polarized else None
    return Instance(space, pair, polarization)


def random_instance(rng, space, calabi_yau=False, polarized=True):
    rank = rng.randint(2, 4)
    e_degrees = [rng.randint(-2, 1) for _ in range(rank)]
    f_degrees = [rng.randint(0, 2) for _ in range(rank)]
    if calabi_yau:
        f_degrees[-1] = (
            space.dim + 1 + sum(e_degrees) - sum(f_degrees[:-1])
        )
    return make_instance(space, e_degrees, f_degrees, polarized)


# -- smooth-hypersurface Euler characteristics -------------------------------


def euler_series_oracle(d, degree):
    # coefficient of h^d in  a*h * (1 + a*h)^(-1) * (1 + h)^(d+1),  a = degree
    cap = d
    tangent = series_pow(series([1, 1], cap), d + 1, cap)
    inverse = series_inv(series([1, degree], cap), cap)
    product = series_mul(series_mul(series([0, degree], cap), inverse, cap), tangent, cap)
    return product[d]


def euler_power_sum(space, divisor):
    # D / (1 + D) = sum_w (-1)^(w-1) D^w, so chi is the alternating sum of
    # the integrals of D^w * c_(d-w)(T), each one a full ring product
    d, total, power = space.dim, 0, space.one()
    for w in range(1, d + 1):
        power = power * divisor
        term = space.integrate(power * space.tangent_chern.parts()[d - w])
        total += (-1) ** (w - 1) * term
    return total


def test_euler_smooth_quartic_and_quintic():
    p4 = projective_space(4)
    h = p4.generator(0)
    assert euler_smooth_hypersurface(p4, 4 * h) == -56
    assert euler_smooth_hypersurface(p4, 5 * h) == -200
    assert euler_series_oracle(4, 5) == -200


def test_euler_smooth_on_the_line():
    line = projective_space(1)
    h = line.generator(0)
    assert euler_smooth_hypersurface(line, h) == 1 == euler_power_sum(line, h)


def test_euler_smooth_matches_series_oracle_for_many_degrees():
    for d in (4, 5, 6):
        space = projective_space(d)
        h = space.generator(0)
        for degree in range(0, 7):
            assert euler_smooth_hypersurface(space, degree * h) == euler_series_oracle(
                d, degree
            )


def test_euler_smooth_rejects_inhomogeneous_class():
    p4 = projective_space(4)
    h = p4.generator(0)
    with pytest.raises(ValueError):
        euler_smooth_hypersurface(p4, 1 + h)


@pytest.mark.parametrize(
    "dims", [[1] * 5, [2, 3], [1] * 10], ids=["(P^1)^5", "P^2xP^3", "(P^1)^10"]
)
def test_euler_smooth_on_products_against_the_power_sum(dims):
    rng = random.Random(22)
    space = product_of_projective_spaces(dims)
    for _ in range(4):
        coeffs = [rng.randint(-3, 3) for _ in dims]
        coeffs[rng.randrange(len(dims))] = -rng.randint(1, 3)
        divisor = space.degree_one(coeffs)
        assert euler_smooth_hypersurface(space, divisor) == euler_power_sum(
            space, divisor
        )


def test_euler_smooth_on_a_bundle_space_against_the_power_sum():
    # the space carries a relation: xi^3 reduces through c(F dual)
    base = product_of_projective_spaces([2, 2])
    space = proj_bundle(
        base, BundleSpec.sum_of_line_bundles(base, [[0, 1], [1, 0], [2, 1]])
    )
    assert space._relation
    rng = random.Random(23)
    for _ in range(6):
        coeffs = [rng.randint(-3, 3) for _ in space.gens]
        coeffs[rng.randrange(len(coeffs))] = -rng.randint(1, 3)
        divisor = space.degree_one(coeffs)
        assert euler_smooth_hypersurface(space, divisor) == euler_power_sum(
            space, divisor
        )


def test_euler_smooth_on_a_point():
    # no degree d - 1 exists on a point: the divisor is empty
    point = projective_space(0)
    assert euler_smooth_hypersurface(point, point.zero()) == 0


# -- singular-locus degrees ---------------------------------------------------


def test_porteous_degrees_for_quartic_table(quartic_table):
    for inst, expected in quartic_table:
        assert porteous_degree(inst) == expected


def test_porteous_degree_of_quintic(quintic):
    assert porteous_degree(quintic) == 46


def test_porteous_class_defaults_to_square_shape(quintic):
    # against the cofactor determinant: the quintic, dense P^5 to P^8, a
    # product of P^1 factors on its block ring, and one whose columns differ
    blocks = dense_product_instance([1] * 6).ring
    space = product_of_projective_spaces([1] * 5)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, [[0] * 5, [-1, 0, 0, 1, 0]]),
        BundleSpec.sum_of_line_bundles(space, [[1, 0, 1, 0, 1], [1] * 5]),
    )
    distinct = Instance(space, pair, space.degree_one([1, 2, 3, 4, 5]))
    assert any(blocks.ambient.divided) and distinct.ring is distinct
    cases = [quintic, *map(dense_instance, range(5, 9)), blocks, distinct]
    for inst in cases:
        assert porteous_class(inst) == schur((2, 2), inst.pair.schur_seq)


def test_porteous_degree_guard_outside_fourfolds():
    p5 = projective_space(5)
    inst = make_instance(p5, [0, 0], [2, 2], polarized=False)
    with pytest.raises(GuardError):
        porteous_degree(inst)
    # the class itself is still available
    assert porteous_class(inst).is_homogeneous(4)


def test_porteous_degree_vanishes_for_equal_bundles(p4):
    inst = make_instance(p4, [1, 1], [1, 1], polarized=False)
    assert porteous_degree(inst) == 0


# -- the singular Euler gap ----------------------------------------------------


def test_milnor_number_of_quartic(quartic):
    assert euler_numbers(quartic).ih_milnor == 32
    assert ih_milnor_number_small_dim(quartic) == 32


def test_milnor_number_of_quintic(quintic):
    gap = euler_numbers(quintic).ih_milnor
    assert gap == 92
    assert ih_milnor_number_small_dim(quintic) == 92
    assert gap == 2 * porteous_degree(quintic)


def test_fourfold_milnor_number_is_twice_the_degree(p4):
    rng = random.Random(21)
    for _ in range(10):
        inst = random_instance(rng, p4, polarized=False)
        assert euler_numbers(inst).ih_milnor == 2 * porteous_degree(inst)


def test_fivefold_shortcut_requires_calabi_yau():
    p5 = projective_space(5)
    inst = make_instance(p5, [0, 0], [2, 2], polarized=False)
    assert not inst.calabi_yau
    with pytest.raises(GuardError):
        ih_milnor_number_small_dim(inst)
    # the tableau sum itself has no such restriction
    euler_numbers(inst)


def test_shortcut_refused_in_higher_dimension():
    p6 = projective_space(6)
    inst = make_instance(p6, [0, 0], [3, 4], polarized=False)
    with pytest.raises(GuardError):
        ih_milnor_number_small_dim(inst)


def test_fivefold_calabi_yau_shortcut_agrees_with_tableau_sum():
    p5 = projective_space(5)
    rng = random.Random(22)
    for _ in range(10):
        inst = random_instance(rng, p5, calabi_yau=True, polarized=False)
        assert inst.calabi_yau
        assert euler_numbers(inst).ih_milnor == ih_milnor_number_small_dim(inst)


def test_calabi_yau_condition_examples(quintic, quartic, quartic_table):
    assert quintic.calabi_yau
    assert not quartic.calabi_yau
    assert not any(inst.calabi_yau for inst, _ in quartic_table)


def test_calabi_yau_flag_reads_c1_from_the_caps(quartic_table):
    # the flag takes c1(T) = sum_i (d_i + 1) h_i from the caps; it must equal
    # the test against the degree-one part of the whole tangent class
    def same_flag(inst):
        whole = inst.ambient.tangent_chern.parts()[1] == inst.pair.hypersurface_class
        return inst.calabi_yau == whole

    table = [inst for inst, _ in quartic_table]
    table += [inst for inst, _ in table_rows("table1")]
    assert all(same_flag(inst) for inst in table)
    assert {inst.calabi_yau for inst in table} == {False, True}
    for dims in ([4], [5], [1] * 8, [2, 0, 3]):
        space = product_of_projective_spaces(dims)
        zero, c1 = [0] * len(dims), [d + 1 for d in dims]
        # the degree on a P^0 factor is no class, so it cannot break the test
        off_point = [d + 1 if d else 7 for d in dims]
        seen = set()
        for rows_f in ([zero, c1], [zero, off_point], [zero, zero], [c1, c1]):
            pair = VirtualPair(
                BundleSpec.sum_of_line_bundles(space, [zero, zero]),
                BundleSpec.sum_of_line_bundles(space, rows_f),
            )
            inst = Instance(space, pair)
            assert same_flag(inst), (dims, rows_f)
            seen.add(inst.calabi_yau)
        assert seen == {False, True}, dims


# -- Euler characteristics through the resolution ------------------------------


def test_euler_resolution_of_quartic(quartic):
    assert euler_numbers(quartic).resolution == -24
    assert build_report(quartic, allow_non_cy_c2=True).euler_ih == -24


def test_euler_resolution_of_quintic(quintic):
    assert euler_numbers(quintic).resolution == -108
    assert build_report(quintic).euler_ih == -108


def test_euler_identity_on_random_instances():
    rng = random.Random(23)
    for dim in (4, 5):
        space = projective_space(dim)
        for _ in range(8):
            inst = random_instance(rng, space, polarized=False)
            smooth = euler_smooth_hypersurface(space, inst.pair.hypersurface_class)
            euler = euler_numbers(inst)
            assert euler.smooth == smooth
            assert euler.resolution == smooth + (-1) ** dim * euler.ih_milnor


# -- intersection numbers and c2 pairings ---------------------------------------


def test_intersection_numbers_of_quintic(quintic):
    assert intersection_numbers(quintic) == [2, 7, 9, 5]


def test_intersection_numbers_need_polarization(p4):
    inst = make_instance(p4, [0, 0], [2, 2], polarized=False)
    with pytest.raises(GuardError):
        intersection_numbers(inst)


def test_intersection_numbers_of_equal_bundles(p4):
    inst = make_instance(p4, [1, 1], [1, 1])
    assert intersection_numbers(inst) == [0, 0, 0, 0]


def test_intersection_numbers_top_entry_is_divisor_degree(p4):
    rng = random.Random(24)
    h = p4.generator(0)
    for _ in range(6):
        inst = random_instance(rng, p4)
        top = intersection_numbers(inst)[-1]
        divisor = inst.pair.hypersurface_class
        assert top == p4.integrate(h**3 * divisor)


def test_c2_numbers_of_quintic(quintic):
    pairings = c2_numbers(quintic)
    assert pairings.against_polarization == 50
    assert pairings.against_tautological == 44


def test_c2_numbers_guards(quartic, p4):
    with pytest.raises(GuardError):
        c2_numbers(quartic)  # Calabi-Yau fails, no opt-in
    no_pol = make_instance(p4, [-1, -1, -1, -2], [0, 0, 0, 0], polarized=False)
    with pytest.raises(GuardError):
        c2_numbers(no_pol)
    p5 = projective_space(5)
    inst5 = make_instance(p5, [0, 0], [3, 3])
    with pytest.raises(GuardError):
        c2_numbers(inst5, allow_non_cy=True)


def test_c2_numbers_without_calabi_yau_via_opt_in(quartic):
    pairings = c2_numbers(quartic, allow_non_cy=True)
    assert pairings == (24, 56)


def test_c2_head_identity_under_calabi_yau(p4):
    # the reduced degree-2 head equals the general normal-sequence head
    rng = random.Random(25)
    for _ in range(10):
        inst = random_instance(rng, p4, calabi_yau=True)
        tangent = p4.tangent_chern.parts()
        seq = inst.pair.schur_seq
        dual_diff = VirtualPair(
            inst.pair.E.dual(), inst.pair.F.dual()
        ).chern_diff
        general = tangent[2] + dual_diff[1] * tangent[1] + dual_diff[2]
        reduced = tangent[2] - seq[2]
        assert general == reduced


def test_dual_routes_on_random_instances(p4):
    # the closed-form/direct comparisons run inside the two functions
    rng = random.Random(26)
    for trial in range(20):
        inst = random_instance(rng, p4, calabi_yau=trial % 2 == 0)
        intersection_numbers(inst)
        c2_numbers(inst, allow_non_cy=not inst.calabi_yau)


def test_flipped_bundle_convention_is_detected(p4):
    # rebuilding the quotient bundle from the dualized fiber flips the sign
    # of the defining relation; the direct route then contradicts the
    # closed form, which is exactly what the dual-route comparison guards.
    inst = make_instance(p4, [0, 0], [2, 2])
    expected = intersection_numbers(inst)

    wrong_space = proj_bundle(p4, inst.pair.F.dual())
    xi = wrong_space.fiber_class()
    twisted = inst.pair.E.dual().pullback_to(wrong_space).twist(xi)
    locus = twisted.total_chern().parts()[inst.pair.rank]
    h = wrong_space.pullback(p4.generator(0))
    wrong = [
        wrong_space.integrate(xi ** (3 - k) * h**k * locus) for k in range(4)
    ]
    assert wrong != expected


# -- reports --------------------------------------------------------------------


def test_build_report_quintic(quintic):
    report = build_report(quintic)
    assert report.dim == 4
    assert report.rank == 4
    assert report.calabi_yau
    assert report.singular_degree == 46
    assert report.odp_count == 46
    assert report.ih_milnor == 92
    assert report.euler_smooth == -200
    assert report.euler_ih == report.euler_resolution == -108
    assert report.intersection_numbers == [2, 7, 9, 5]
    assert report.c2_against_polarization == 50
    assert report.c2_against_tautological == 44
    assert report.warnings == list(invariants._ODP_WARNINGS)


def test_build_report_quartic_without_polarization(p4):
    inst = make_instance(p4, [0, 0], [2, 2], polarized=False)
    report = build_report(inst)
    assert report.odp_count == 16
    assert report.ih_milnor == 32
    assert report.euler_smooth == -56
    assert report.euler_ih == -24
    assert report.intersection_numbers is None
    assert report.c2_against_polarization is None


def test_build_report_equal_bundles(p4):
    inst = make_instance(p4, [1, 1], [1, 1], polarized=False)
    assert not inst.calabi_yau  # c1(T) is nonzero while the divisor class is 0
    report = build_report(inst)
    assert report.singular_degree == 0
    assert report.odp_count == 0
    assert report.ih_milnor == 0
    assert report.euler_ih == 0


def calabi_yau_fivefold():
    return make_instance(projective_space(5), [0, 0, 0], [2, 2, 2])


def count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(invariants, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(invariants, name, counted)
    return counts


def test_build_report_evaluates_each_invariant_once(monkeypatch, quintic):
    # the shortcut pairs the 2x2 class with c(T) on fourfolds and Calabi-Yau
    # fivefolds alike, and the c2 pairings reuse its count
    names = ("euler_numbers", "porteous_class", "porteous_degree")
    counts = count_calls(monkeypatch, names)
    for inst in (quintic, calabi_yau_fivefold()):
        counts.update(dict.fromkeys(names, 0))
        build_report(inst)
        assert counts == {**dict.fromkeys(names, 1), "porteous_degree": 0}


def dense_instance(d):
    # E = O(0)^3, F = O(1)^3: the Schur sequence 1/(1-h)^3 has no zero entry
    return make_instance(projective_space(d), [0, 0, 0], [1, 1, 1])


SCHUR_MODULE = sys.modules["detcalc.schur"]

CROSS_CHECKS = {  # case id: (module, name, mutation, expected message)
    # hooks give the resolution number, which the direct integral checks:
    # as classes in weights 1 to 3, paired with c(T) unformed from weight 4
    "hook_schur_doubled": (
        invariants,
        "hook_sum",
        lambda x: 2 * x,
        "^resolution Euler number:",
    ),
    "hook_pairing_doubled": (
        invariants,
        "hook_pairing",
        lambda x: 2 * x,
        "^resolution Euler number:",
    ),
    # an offset per weight would cancel between weights 4 and 5 on a
    # fivefold, so offset each paired product instead
    "hook_product_pairing_plus_one": (
        SCHUR_MODULE,
        "_pair3",
        lambda x: x + 1,
        "^resolution Euler number:",
    ),
    # the report's tableau counts are those of the hooks, f = C(w-1, b), now
    # folded into the binomials C(w-2, a-1) of the one hook convolution that
    # hook_sum and hook_pairing share
    "syt_count_plus_one": (
        SCHUR_MODULE,
        "comb",
        lambda x: x + 1,
        "^resolution Euler number:",
    ),
    # the 2x2 class enters the shortcut on fourfolds and Calabi-Yau fivefolds
    "schur_doubled": (invariants, "porteous_class", lambda x: 2 * x, "shortcut"),
    "ih_milnor_number_small_dim": (
        invariants,
        "ih_milnor_number_small_dim",
        lambda x: x + 1,
        "shortcut",
    ),
}


@pytest.mark.parametrize(
    "dim, case",
    [(dim, case) for dim in (4, 5) for case in CROSS_CHECKS]
    + [
        (8, case)
        for case in (
            "hook_schur_doubled",
            "hook_pairing_doubled",
            "hook_product_pairing_plus_one",
        )
    ],
    ids=lambda value: str(value),
)
def test_build_report_still_cross_checks(monkeypatch, quintic, dim, case):
    module, name, mutate, message = CROSS_CHECKS[case]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: mutate(original(*args)))
    if dim == 4:
        inst = quintic
    elif dim == 5:
        inst = calabi_yau_fivefold()
    else:  # no shortcut runs: only the direct route can see the hooks
        inst = dense_instance(dim)
    with pytest.raises(ConsistencyError, match=message):
        build_report(inst)


def test_low_weight_class_check_sees_a_wrong_divisor(quintic):
    # the direct route never reads D; only D^w == hooks in weights 1 to 3 does
    for inst in (quintic, dense_instance(8)):
        pair = VirtualPair(inst.pair.E, inst.pair.F)
        pair.hypersurface_class = 2 * pair.hypersurface_class
        with pytest.raises(ConsistencyError, match="^weight 1:"):
            euler_numbers(Instance(inst.ambient, pair, inst.polarization))


@pytest.mark.parametrize("d", range(6, 25))
def test_dense_rank_three_ladder(d):
    report = build_report(dense_instance(d))
    assert report.intersection_numbers == [comb(d - k + 2, 2) for k in range(d)]
    assert report.euler_smooth == euler_series_oracle(d, 3)


def dense_product_instance(dims):
    """Rank 3 on a product: E = O^3, F = O(1,...,1)^3, polarized."""
    space = product_of_projective_spaces(dims)
    ones = [1] * len(dims)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, [[0] * len(dims)] * 3),
        BundleSpec.sum_of_line_bundles(space, [ones] * 3),
    )
    return Instance(space, pair, space.degree_one(ones))


def test_paired_weights_form_no_product(monkeypatch):
    # weights 1 to 3 form their hook class for the D^w == hooks check; from
    # weight 4 on the hooks are paired with c(T) and no ring product runs
    inst = dense_product_instance([1] * 6)
    chow = sys.modules["detcalc.chow"]
    formed, paired, calls, inside = [], [], [], []
    original_sum, original_pairing = invariants.hook_sum, invariants.hook_pairing
    original_kernel = chow._accumulate_terms

    def counted_sum(weight, *args):
        formed.append(weight)
        return original_sum(weight, *args)

    def counted_pairing(weight, *args):
        paired.append(weight)
        inside.append(weight)
        try:
            return original_pairing(weight, *args)
        finally:
            inside.pop()

    def counted_kernel(*args):
        calls.append(bool(inside))
        return original_kernel(*args)

    monkeypatch.setattr(invariants, "hook_sum", counted_sum)
    monkeypatch.setattr(invariants, "hook_pairing", counted_pairing)
    monkeypatch.setattr(chow, "_accumulate_terms", counted_kernel)
    euler_numbers(inst)
    assert formed == [1, 2, 3]
    assert paired == [4, 5, 6]
    assert calls and not any(calls)  # the powers D^w and the low hooks still multiply


def seeded_instance(seed):
    """Rank 2 to 5 on a seeded choice of ambient, degrees from the seed."""
    rng = random.Random(seed)
    dims = rng.choice([[6], [7], [2, 4], [1, 1, 4], [3, 3]])
    space = product_of_projective_spaces(dims)
    rank = 2 + seed % 4
    rows_e = [[rng.randint(-2, 1) for _ in dims] for _ in range(rank)]
    rows_f = [[rng.randint(0, 2) for _ in dims] for _ in range(rank)]
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows_e),
        BundleSpec.sum_of_line_bundles(space, rows_f),
    )
    return Instance(space, pair)


GAP_CASES = {
    **{f"P^{d}": lambda d=d: dense_instance(d) for d in range(6, 15)},
    "rank-5 P^9": lambda: make_instance(
        projective_space(9), [-1, 0, 0, 0, 1], [0, 1, 1, 2, 2]
    ),
    **{f"(P^1)^{n}": lambda n=n: dense_product_instance([1] * n) for n in range(5, 8)},
    "P^2xP^3": lambda: dense_product_instance([2, 3]),
    **{f"seed {seed}": lambda seed=seed: seeded_instance(seed) for seed in range(8)},
}


@pytest.mark.parametrize("case", GAP_CASES)
def test_gap_matches_tableau_sum(case):
    inst = GAP_CASES[case]()
    assert euler_numbers(inst).ih_milnor == tableau_gap(inst)


def test_tableau_gap_sees_a_wrong_tableau_count(monkeypatch, quintic):
    # a wrong count on the shapes containing (2,2) must break the oracle
    original = oracles.syt_count
    monkeypatch.setattr(oracles, "syt_count", lambda lam: original(lam) + 1)
    for inst in (quintic, dense_instance(8)):
        assert euler_numbers(inst).ih_milnor != tableau_gap(inst)


def test_instance_guards(p4):
    p3 = projective_space(3)
    with pytest.raises(GuardError):
        make_instance(p3, [0, 0], [1, 1])
    with pytest.raises(GuardError):
        make_instance(p4, [0], [1])
    with pytest.raises(ValueError):
        Instance(p4, VirtualPair(split(p4, [0, 0]), split(p4, [1, 1])), p4.one())


def test_instance_refuses_a_polarization_that_is_not_ample(quintic):
    # O(a_1, ..., a_n) is ample exactly when every a_i >= 1, the rule the
    # command line applies to its configs; a factor of dimension 0 has no a_i
    p4, pair, h = quintic.ambient, quintic.pair, quintic.polarization
    for polarization in (p4.zero(), -h):
        with pytest.raises(ValueError, match="not ample"):
            Instance(p4, pair, polarization)
    for dims, bad, good in [([1, 3], [1, 0], [2, 1]), ([0, 4], [3, 0], [0, 1])]:
        space = product_of_projective_spaces(dims)
        pair = VirtualPair(
            BundleSpec.sum_of_line_bundles(space, [[0, 0], [0, 0]]),
            BundleSpec.sum_of_line_bundles(space, [[1, 1], [1, 2]]),
        )
        with pytest.raises(ValueError, match="not ample"):
            Instance(space, pair, space.degree_one(bad))
        assert Instance(space, pair, space.degree_one(good)).polarization is not None


def test_values_are_computed_at_construction(quintic, quartic):
    inst = Instance(quintic.ambient, quintic.pair, quintic.polarization)
    # a bare pair holds D and the Calabi-Yau test, which the CLI's c2 guard
    # reads before any instance exists; the instance divides its sequences
    pair = VirtualPair(quintic.pair.E, quintic.pair.F)
    assert {"hypersurface_class", "calabi_yau"} <= vars(pair).keys()
    assert not {"chern_diff", "schur_seq"} & vars(pair).keys()
    Instance(quintic.ambient, pair, quintic.polarization)
    assert {"chern_diff", "schur_seq"} <= vars(pair).keys()
    assert {"resolution", "calabi_yau"} <= vars(inst).keys()
    # the quintic (no normal root is xi) divides c(T_P) by every normal root:
    # parts 0 .. d-1 of c(T_Z), and its polarization asks for the cycles
    # [Z] xi^j as well; without one it keeps [Z] alone
    assert len(inst.resolution.tangent) == inst.d
    assert len(inst.resolution.cycles) == inst.d
    assert inst.resolution.series == [1]
    res = Instance(inst.ambient, inst.pair).resolution
    assert res.cycles == [prod(res.normal_roots, start=res.space.one())]
    # the quartic (E = O^2, F = O(2)^2) pairs c(T_P) with the cycles instead,
    # with or without a polarization
    for polarization in (quartic.polarization, None):
        res = Instance(quartic.ambient, quartic.pair, polarization).resolution
        assert res.tangent == []
        assert len(res.cycles) == len(res.series) == quartic.d


def test_build_report_builds_no_chern_class(monkeypatch, quintic):
    # D, the Calabi-Yau test and c(T_Z) are built once, by the constructors;
    # a report on a polarized fourfold or a Calabi-Yau fivefold only reads them
    fivefold = calabi_yau_fivefold()
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for owner, name in [
        (BundleSpec, "c1"),
        (BundleSpec, "total_chern"),
        (chow, "divide_by_roots"),
        (bundles, "divide_by_roots"),
        (invariants, "divide_by_roots"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for inst in (quintic, fivefold):
        build_report(inst)
    assert calls == []


def test_trivial_bundle_report_caches_no_reduction():
    # with F trivial the fiber class truncates like a hyperplane class, so
    # a whole report, resolution included, fills no reduction cache
    for space in (projective_space(6), product_of_projective_spaces([1, 1, 2])):
        n = len(space.caps)
        pair = VirtualPair(
            BundleSpec.sum_of_line_bundles(space, [[-1] * n, [0] * n, [-2] * n]),
            BundleSpec.sum_of_line_bundles(space, [[0] * n] * 3),
        )
        inst = Instance(space, pair, space.degree_one([1] * n))
        build_report(inst, allow_non_cy_c2=True)
        assert inst.resolution.space._reduced == {}


def test_uniform_bundle_report_caches_no_reduction():
    # F = L^r is resolved in P(F (x) L^-1) = M x P^(r-1), whose relation is
    # zero, so a whole report reduces no fiber power
    p1s = product_of_projective_spaces([1] * 5)
    mixed = VirtualPair(
        BundleSpec.sum_of_line_bundles(
            p1s, [[0] * 5, [1, 0, 1, 0, 0], [-1, 0, 0, 1, -1]]
        ),
        BundleSpec.sum_of_line_bundles(p1s, [[1] * 5] * 3),
    )
    _, quartic, _ = TABLES["table2"].rows[3]  # F = O(2)^2 on P^4
    for inst in (
        make_instance(projective_space(6), [0, 0, 0], [1, 1, 1]),
        Instance(p1s, mixed, p1s.degree_one([1] * 5)),
        instance({**quartic, "polarization": [1]}),
    ):
        build_report(inst, allow_non_cy_c2=True)
        assert inst.resolution.space._relation == ()
        assert inst.resolution.space._reduced == {}


@pytest.mark.parametrize("a, counts", [(1, [1, 6, 20, 50]), (2, [16, 96, 320, 800])])
def test_odp_count_of_uniform_square_matrices(a, counts):
    # an r x r matrix of forms of degree a on P^4 drops rank twice in
    # a^4 r^2 (r^2 - 1) / 12 points, the degree of the corank-2 locus
    # (Harris, Algebraic Geometry, Example 19.10)
    for r, expected in zip(range(2, 6), counts):
        assert expected == a**4 * r * r * (r * r - 1) // 12
        inst = make_instance(projective_space(4), [0] * r, [a] * r)
        assert build_report(inst, allow_non_cy_c2=True).odp_count == expected


TWIST_CASES = {  # ambient dims, E rows, F rows
    "P^4": ([4], [[0], [-1]], [[2]] * 2),
    "P^5": ([5], [[0], [0], [0]], [[1]] * 3),
    "P^6": ([6], [[-1], [0], [0], [1]], [[1]] * 4),
    "P^7": ([7], [[0], [0], [-1]], [[1]] * 3),
    "(P^1)^4": ([1] * 4, [[0, 0, 0, 0], [1, 0, -1, 0], [0, 1, 0, 0]], [[1] * 4] * 3),
    "(P^1)^5": ([1] * 5, [[0, 0, 0, 0, 0], [-1, 0, 0, 1, 0]], [[1, 0, 1, 0, 1]] * 2),
    # F repeats one root: Table 2's (1, 1, 2), and a partly uniform product
    "P^4 repeated": ([4], [[0], [0], [0]], [[1], [1], [2]]),
    "(P^1)^4 repeated": (
        [1] * 4,
        [[0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
        [[1] * 4, [1] * 4, [1, 0, 1, 0]],
    ),
    "P^5 two pairs": ([5], [[0], [0], [-1], [0]], [[2], [1], [2], [1]]),
    "P^1xP^1xP^2 trivial": ([1, 1, 2], [[-1, 0, 0], [0, -1, -1]], [[0, 0, 0]] * 2),
    "P^5 distinct": ([5], [[0], [0], [0]], [[1], [2], [3]]),
}


@pytest.mark.parametrize("case", TWIST_CASES)
def test_uniform_bundle_matches_the_untwisted_resolution(case):
    # the report resolves F in P(F (x) L^-1), L the root F repeats most (O
    # when none repeats); building P(F) itself, with its whole relation,
    # must give the same chi(Z) and pushed cycles
    dims, rows_e, rows_f = TWIST_CASES[case]
    space = product_of_projective_spaces(dims)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows_e),
        BundleSpec.sum_of_line_bundles(space, rows_f),
    )
    inst = Instance(space, pair, space.degree_one([1] * len(dims)))
    assert_untwisted_resolution_agrees(inst, build_report(inst, allow_non_cy_c2=True))

    # the relation prod (zeta - root) over the roots of F (x) L^-1 has one
    # factor per nonzero root, so its lowest power of zeta is r - factors
    rank, bundle = len(rows_f), inst.resolution.space
    repeats = max(rows_f.count(row) for row in rows_f)
    copies_of_l = max(repeats if repeats > 1 else 0, rows_f.count([0] * len(dims)))
    lowest = min((bundle._unpack(e)[-1] for e, _ in bundle._relation), default=rank)
    assert rank - lowest == rank - copies_of_l


def assert_untwisted_resolution_agrees(inst, report):
    """Build P(F) itself, with its whole relation and xi its fiber class, on
    the ring the report runs on (the block ring when the inputs are constant
    on a block of P^1 factors), and check the report's chi(Z), the pushed
    cycles L^j . [Z] with their intersection numbers and, on fourfolds, the
    c2 direct cycle."""
    ring, res, d = inst.ring, inst.resolution, inst.d
    pair, hyper = ring.pair, ring.polarization
    bundle = proj_bundle(ring.ambient, pair.F)
    xi = bundle.fiber_class()
    roots = pair.E.dual().pullback_to(bundle).twist(xi).roots
    locus = prod(roots, start=bundle.one())
    tangent = chow.divide_by_roots(bundle.tangent_chern.parts(d - 1), roots)
    assert bundle.integrate(tangent[d - 1] * locus) == report.euler_resolution

    cycle = locus
    for j, twisted in enumerate(res.cycles):
        pushed, k = bundle.pushforward(cycle), d - 1 - j
        assert pushed == res.space.pushforward(twisted), j
        assert _pair(hyper**k, pushed) == report.intersection_numbers[k], j
        cycle = cycle * xi
    assert len(res.cycles) == d
    if d == 4:
        cycle = tangent[2] * locus
        assert _pair(hyper, bundle.pushforward(cycle)) == report.c2_against_polarization
        assert (
            ring.ambient.integrate(bundle.pushforward(cycle * xi))
            == report.c2_against_tautological
        )


@st.composite
def twist_cases(draw):
    """Ambient dims, E rows and F rows: P^4..P^6, or a product of P^1 and
    P^2 factors of dimension 4..6, at rank 2..4, with F uniform, partly
    repeated, of distinct rows, or trivial, each on purpose; or with
    E = O^r, where the resolution divides nothing; or with some rows of E
    zero and some not, where it divides only the normal roots that are not
    xi.  The last two take F of any of the four shapes, so with or without
    a relation on the bundle."""
    if draw(st.booleans()):
        dims = [draw(st.integers(4, 6))]
    else:
        twos = draw(st.integers(0, 3))
        ones = draw(st.integers(max(0, 4 - 2 * twos), 6 - 2 * twos))
        dims = draw(st.permutations([1] * ones + [2] * twos))
    rank = draw(st.integers(2, 4))
    row = st.lists(st.integers(-2, 3), min_size=len(dims), max_size=len(dims))
    rows_e = draw(st.lists(row, min_size=rank, max_size=rank))
    f_shapes = ["uniform", "repeated", "distinct", "trivial"]
    shape = draw(st.sampled_from([*f_shapes, "E = O^r", "E partly O"]))
    zero = [0] * len(dims)
    if shape == "E = O^r":
        rows_e = [zero] * rank
    if shape == "E partly O":
        zeros = draw(st.integers(1, rank - 1))
        size = rank - zeros
        rest = draw(st.lists(row.filter(any), min_size=size, max_size=size))
        rows_e = draw(st.permutations([zero] * zeros + rest))
    if shape not in f_shapes:
        shape = draw(st.sampled_from(f_shapes))
    if shape == "trivial":
        rows_f = [[0] * len(dims)] * rank
    elif shape == "distinct":
        rows_f = draw(st.lists(row, min_size=rank, max_size=rank, unique_by=tuple))
    else:
        copies = draw(st.integers(2, rank)) if shape == "repeated" else rank
        rest = draw(st.lists(row, min_size=rank - copies, max_size=rank - copies))
        rows_f = draw(st.permutations([draw(row)] * copies + rest))
    return dims, rows_e, rows_f


@settings(max_examples=200, deadline=None)
@given(twist_cases())
def test_report_matches_the_untwisted_resolution(case):
    # differential: the report's resolution in P(F (x) L^-1) against P(F)
    dims, rows_e, rows_f = case
    space = product_of_projective_spaces(dims)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows_e),
        BundleSpec.sum_of_line_bundles(space, rows_f),
    )
    inst = Instance(space, pair, space.degree_one([1] * len(dims)))
    assert_untwisted_resolution_agrees(inst, build_report(inst, allow_non_cy_c2=True))
    # on every bundle, with a relation or without, the p zero rows of E leave
    # [Z] the series 1 / (1 + xi)^p, and E = O^r divides nothing
    res, p = inst.resolution, rows_e.count([0] * len(dims))
    product = list(res.series)
    for _ in range(p):
        product = [a + b for a, b in zip(product, [0] + product)]
    assert product == [1] + [0] * (inst.d - 1 if p else 0)
    assert (res.tangent == []) == (p == len(rows_e))


def test_build_report_refuses_c2_before_any_invariant(monkeypatch, quartic):
    # a polarized fourfold off the Calabi-Yau condition, without the opt-in,
    # is refused before the Euler numbers, the shortcut or the intersection
    # numbers are computed
    assert quartic.polarization is not None and not quartic.calabi_yau
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in (
        "euler_numbers",
        "ih_milnor_number_small_dim",
        "intersection_numbers",
        "_c2_numbers",
    ):
        monkeypatch.setattr(invariants, name, counted(name, getattr(invariants, name)))
    with pytest.raises(GuardError, match="Calabi-Yau condition fails"):
        build_report(quartic)
    assert calls == []
    # the counters do see the work once the report is opted in
    build_report(quartic, allow_non_cy_c2=True)
    assert calls == [
        "euler_numbers",
        "ih_milnor_number_small_dim",
        "intersection_numbers",
        "_c2_numbers",
    ]


def report_numbers(value):
    """Every number in a report dict, booleans excluded."""
    if isinstance(value, dict):
        for item in value.values():
            yield from report_numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from report_numbers(item)
    elif not isinstance(value, (bool, str, type(None))):
        yield value


INTEGER_CASES = {
    "table1": lambda: table_rows("table1")[0][0],
    **{
        f"table2 row {i}": lambda config=config: instance(config)
        for i, (_, config, _) in enumerate(TABLES["table2"].rows)
    },
    **{
        f"golden {name}": lambda name=name: instance(
            load_config(str(GOLDEN / f"{name}.json"))
        )
        for name in ("quintic", "p1_5")
    },
    **{f"P^{d}": lambda d=d: dense_instance(d) for d in range(4, 15)},
    **{f"(P^1)^{n}": lambda n=n: dense_product_instance([1] * n) for n in range(4, 9)},
}


@pytest.mark.parametrize("case", INTEGER_CASES)
def test_report_numbers_are_ints(case):
    # every ring coefficient is an int (the ring refuses a non-integral
    # value), so every report number is one, with no conversion on the way
    report = build_report(INTEGER_CASES[case](), allow_non_cy_c2=True)
    numbers = list(report_numbers(asdict(report)))
    assert numbers
    assert all(type(x) is int for x in numbers), numbers


def doubled_locus(inst):
    """A copy of ``inst`` whose resolution has twice its fundamental class:
    twice every cycle ``[Z] xi^j`` and twice one of the normal roots whose
    product ``[Z]`` is, which changes only the direct routes, whichever
    normal roots divide.  The routes read the resolution of the ring the
    report runs on."""
    copy = Instance(inst.ambient, inst.pair, inst.polarization)
    res = copy.resolution
    first, *rest = res.normal_roots
    copy.ring.resolution = res._replace(
        normal_roots=(2 * first, *rest), cycles=[2 * cycle for cycle in res.cycles]
    )
    return copy


def partly_trivial_instance():
    """P^8 with E = O + O + O(-1) and F = O^3: two of the three normal roots
    are xi, on a bundle with no relation."""
    return make_instance(projective_space(8), [0, 0, -1], [0, 0, 0])


def partly_trivial_instance_with_relation(d=5):
    """P^d with E = O + O + O(-1) and F = O(1) + O(1) + O(2): two of the
    three normal roots are xi, on a bundle with a relation."""
    return make_instance(projective_space(d), [0, 0, -1], [1, 1, 2])


def table2_row_3(d=4):
    """Table 2's row 3 on P^d, E = O^3 and F = O(1) + O(1) + O(2): every
    normal root is xi, on a bundle with a relation."""
    return make_instance(projective_space(d), [0, 0, 0], [1, 1, 2])


def test_euler_numbers_compare_routes(quintic):
    # on relation-free bundles the quintic divides c(T_P) by every normal
    # root, the P^8 with E partly trivial by the one that is not xi, and the
    # dense P^8 and (P^1)^5 by none; with F = O(1) + O(1) + O(2) the bundle
    # has a relation, c_(d-1)(T_Z) is summed by Horner in xi and multiplied
    # by the normal roots, and E = O^3 divides none, E = O + O + O(-1) one
    for inst in (
        quintic,
        partly_trivial_instance(),
        dense_instance(8),
        dense_product_instance([1] * 5),
        table2_row_3(),
        table2_row_3(d=5),
        partly_trivial_instance_with_relation(),
    ):
        assert euler_numbers(inst).resolution != 0
        with pytest.raises(ConsistencyError, match="^resolution Euler number:"):
            euler_numbers(doubled_locus(inst))


def test_paired_resolution_divides_and_multiplies_nothing_on_the_bundle(
    monkeypatch, quintic, quartic
):
    # on every bundle, with a relation or without, building the instance
    # divides c(T_P) by exactly the normal roots that are not xi, so with
    # E = O^r it divides no class there.  The intersection numbers form no
    # product on the bundle space: they read the cycles the instance built
    divided, multiplied = [], []
    original_divide, original_kernel = chow.divide_by_roots, chow._accumulate_terms

    def counted_divide(parts, roots):
        divided.append((parts[0].ambient, list(roots)))
        return original_divide(parts, roots)

    def counted_kernel(space, *args):
        multiplied.append(space)
        return original_kernel(space, *args)

    for module in (chow, bundles, invariants):
        monkeypatch.setattr(module, "divide_by_roots", counted_divide)
    monkeypatch.setattr(chow, "_accumulate_terms", counted_kernel)
    # with the number of normal roots equal to xi, and whether P(F) has a
    # relation
    for make, xis, relation in [
        (lambda: Instance(quartic.ambient, quartic.pair, quartic.polarization), 2, 0),
        (lambda: dense_instance(8), 3, 0),
        (lambda: dense_product_instance([1] * 5), 3, 0),
        (lambda: Instance(quintic.ambient, quintic.pair, quintic.polarization), 0, 0),
        (partly_trivial_instance, 2, 0),
        (lambda: make_instance(projective_space(4), [0, -1, 0], [1, 1, 1]), 2, 0),
        (table2_row_3, 3, 1),
        (lambda: table2_row_3(d=5), 3, 1),
        (partly_trivial_instance_with_relation, 2, 1),
        (lambda: make_instance(projective_space(5), [-1, -1, -1], [1, 1, 2]), 0, 1),
    ]:
        divided.clear()
        inst = make()
        res = inst.resolution
        bundle, xi = res.space, res.tautological
        assert bundle.has_relation == relation
        others = [m for m in res.normal_roots if m != xi]
        assert len(others) == len(res.normal_roots) - xis
        on_bundle = [roots for space, roots in divided if space is bundle]
        assert on_bundle == ([others] if others else [])
        assert (res.tangent == []) == (not others)
        multiplied.clear()
        intersection_numbers(inst)
        assert inst.ring.ambient in multiplied  # the powers of the polarization
        assert bundle not in multiplied


def test_intersection_numbers_compare_routes(quintic):
    for inst in (quintic, dense_product_instance([1] * 5)):
        with pytest.raises(ConsistencyError):
            intersection_numbers(doubled_locus(inst))


def test_c2_numbers_compare_routes(quintic, quartic):
    with pytest.raises(ConsistencyError):
        c2_numbers(doubled_locus(quintic))
    with pytest.raises(ConsistencyError):
        c2_numbers(doubled_locus(quartic), allow_non_cy=True)
    # E = O + O(-1) + O and F = O(1)^3: two of the three normal roots are xi
    partly = make_instance(projective_space(4), [0, -1, 0], [1, 1, 1])
    assert c2_numbers(partly, allow_non_cy=True) != (0, 0)
    with pytest.raises(ConsistencyError):
        c2_numbers(doubled_locus(partly), allow_non_cy=True)
    # on bundles with a relation: E = O^3 (Table 2's row 3, nothing divided)
    # and E = O + O + O(-1) (two of the three roots are xi)
    for inst in (table2_row_3(), partly_trivial_instance_with_relation(d=4)):
        assert inst.resolution.space.has_relation
        assert c2_numbers(inst, allow_non_cy=True) != (0, 0)
        with pytest.raises(ConsistencyError):
            c2_numbers(doubled_locus(inst), allow_non_cy=True)
    # c2 pairings need a fourfold
    with pytest.raises(ConsistencyError):
        c2_numbers(doubled_locus(dense_product_instance([1] * 4)), allow_non_cy=True)


# One case per comparison: a mutation that breaks it, as (run, quantity,
# routes), where routes maps each route, in order, to the value it then gives.
# The doubled locus doubles every direct route and nothing else.


def _resolution_euler_mismatch(monkeypatch, quintic, quartic):
    value = euler_numbers(quintic).resolution
    routes = {"hooks": value, "direct": 2 * value}
    run = lambda: euler_numbers(doubled_locus(quintic))
    return run, "resolution Euler number", routes


def _low_weight_mismatch(monkeypatch, quintic, quartic):
    pair = VirtualPair(quintic.pair.E, quintic.pair.F)
    divisor = pair.hypersurface_class
    pair.hypersurface_class = 2 * divisor
    inst = Instance(quintic.ambient, pair, quintic.polarization)
    routes = {"power": 2 * divisor, "hooks": divisor}
    return lambda: euler_numbers(inst), "weight 1", routes


def _singular_gap_mismatch(monkeypatch, quintic, quartic):
    gap = euler_numbers(quintic).ih_milnor
    monkeypatch.setattr(invariants, "ih_milnor_number_small_dim", lambda inst: gap + 1)
    routes = {"hooks": gap, "shortcut": gap + 1}
    return lambda: build_report(quintic), "singular Euler gap", routes


def _intersection_numbers_mismatch(monkeypatch, quintic, quartic):
    values = intersection_numbers(quintic)
    routes = {"closed": values, "direct": [2 * v for v in values]}
    run = lambda: intersection_numbers(doubled_locus(quintic))
    return run, "intersection numbers", routes


def _c2_head_mismatch(monkeypatch, quintic, quartic):
    space = quintic.ambient
    pair = VirtualPair(quintic.pair.E, quintic.pair.F)
    extra = space.generator(0) ** 2
    pair.chern_diff = [*pair.chern_diff]
    pair.chern_diff[2] = pair.chern_diff[2] + extra
    inst = Instance(space, pair, quintic.polarization)
    head = space.tangent_chern.parts()[2] - pair.schur_seq[2]
    routes = {"normal_sequence": head + extra, "calabi_yau": head}
    return lambda: c2_numbers(inst), "c2 head", routes


def _c2_reduced_mismatch(monkeypatch, quintic, quartic):
    h, l = c2_numbers(quintic)
    count = porteous_degree(quintic)
    monkeypatch.setattr(invariants, "porteous_degree", lambda inst: count + 1)
    routes = {"closed": (h, l), "reduced": (h, l - 1), "direct": (h, l)}
    return lambda: c2_numbers(quintic), "c2 pairings", routes


def _c2_direct_mismatch(monkeypatch, quintic, quartic):
    h, l = c2_numbers(quintic)
    routes = {"closed": (h, l), "reduced": (h, l), "direct": (2 * h, 2 * l)}
    return lambda: c2_numbers(doubled_locus(quintic)), "c2 pairings", routes


def _c2_direct_mismatch_off_calabi_yau(monkeypatch, quintic, quartic):
    # no reduced route runs off the Calabi-Yau condition
    h, l = c2_numbers(quartic, allow_non_cy=True)
    routes = {"closed": (h, l), "direct": (2 * h, 2 * l)}
    run = lambda: c2_numbers(doubled_locus(quartic), allow_non_cy=True)
    return run, "c2 pairings", routes


MISMATCHES = {
    "resolution_euler": _resolution_euler_mismatch,
    "low_weight": _low_weight_mismatch,
    "singular_gap": _singular_gap_mismatch,
    "intersection_numbers": _intersection_numbers_mismatch,
    "c2_head": _c2_head_mismatch,
    "c2_reduced": _c2_reduced_mismatch,
    "c2_direct": _c2_direct_mismatch,
    "c2_direct_off_calabi_yau": _c2_direct_mismatch_off_calabi_yau,
}


@pytest.mark.parametrize("case", MISMATCHES)
def test_every_comparison_names_its_routes_and_values(
    monkeypatch, quintic, quartic, case
):
    run, quantity, routes = MISMATCHES[case](monkeypatch, quintic, quartic)
    assert len({str(value) for value in routes.values()}) == 2
    with pytest.raises(ConsistencyError) as caught:
        run()
    shown = ", ".join(f"{route} {value}" for route, value in routes.items())
    assert str(caught.value) == f"{quantity}: {shown}"


def test_c2_guard_runs_once_per_entry_point(monkeypatch, quintic):
    # a library report and c2_numbers check the guard once each; a CLI
    # report checks it from the inputs before P(F) is built, then again in
    # build_report
    calls = []
    original = invariants._check_c2_guard

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invariants, "_check_c2_guard", counted)
    monkeypatch.setattr(cli, "_check_c2_guard", counted)
    build_report(quintic)
    assert len(calls) == 1
    calls.clear()
    c2_numbers(quintic)
    assert len(calls) == 1
    calls.clear()
    _, config, _ = TABLES["table1"].rows[0]
    cli.report_from_config(config)
    assert len(calls) == 2


@st.composite
def resolution_cases(draw):
    """Ambient dims, rank and E, F multidegree rows: P^d for d = 4..8, or a
    product of P^1 and P^2 factors of total dimension 4..7.  In about a
    third of the draws F repeats one row, F = L^r, trivial in a quarter of
    those, and in half of those E has some zero rows and some nonzero."""
    if draw(st.booleans()):
        dims = [draw(st.integers(4, 8))]
    else:
        twos = draw(st.integers(0, 3))
        ones = draw(st.integers(max(0, 4 - 2 * twos), 7 - 2 * twos))
        dims = draw(st.permutations([1] * ones + [2] * twos))
    rank = draw(st.integers(2, 4))
    row = st.lists(st.integers(-3, 3), min_size=len(dims), max_size=len(dims))
    rows = st.lists(row, min_size=rank, max_size=rank)
    rows_e = draw(rows)
    rows_f = draw(rows)
    if draw(st.integers(0, 2)) == 0:
        zero = [0] * len(dims)
        rows_f = [zero if draw(st.integers(0, 3)) == 0 else draw(row)] * rank
        if draw(st.booleans()):
            zeros = draw(st.integers(1, rank - 1))
            size = rank - zeros
            rest = draw(st.lists(row.filter(any), min_size=size, max_size=size))
            rows_e = draw(st.permutations([zero] * zeros + rest))
    return dims, rows_e, rows_f


@settings(max_examples=100, deadline=None)
@given(resolution_cases())
def test_resolution_cycles_push_forward_to_the_schur_sequence(case):
    # pi_*(L^j . [Z]) = s_(j+1) as classes, the identity behind the direct
    # route of the intersection numbers
    dims, rows_e, rows_f = case
    space = product_of_projective_spaces(dims)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows_e),
        BundleSpec.sum_of_line_bundles(space, rows_f),
    )
    ring = Instance(space, pair).ring  # the block ring, when F and E allow
    res = ring.resolution
    cycle = res.cycles[0]
    for j in range(space.dim):
        assert res.space.pushforward(cycle) == ring.pair.schur_seq[j + 1], j
        if j < len(res.cycles):  # the cycles the instance stores, when it does
            assert cycle == res.cycles[j], j
        cycle = cycle * res.tautological


def threaded_cases():
    """Fresh P^6, (P^1)^5 and polarized-quintic instances, caches unfilled."""
    p1s = product_of_projective_spaces([1] * 5)
    p1_pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(p1s, [[0] * 5] * 3),
        BundleSpec.sum_of_line_bundles(
            p1s, [[1] * 5, [1, 0, 1, 0, 1], [0, 1, 1, 1, 0]]
        ),
    )
    return [
        make_instance(projective_space(6), [0, 0, 0], [1, 1, 1]),
        Instance(p1s, p1_pair, p1s.degree_one([1] * 5)),
        make_instance(projective_space(4), [-1, -1, -1, -2], [0, 0, 0, 0]),
    ]


def reports_in_threads(shared, count=4):
    """Run build_report on every instance of ``shared``, in order, in
    ``count`` threads released together; return results and errors."""
    start = threading.Barrier(count, timeout=60)
    results, errors = {}, []

    def run(t):
        try:
            start.wait()
            for i, inst in enumerate(shared):
                results[t, i] = asdict(build_report(inst))
        except Exception as exc:  # reported by the caller, with the thread
            errors.append((t, exc))

    threads = [threading.Thread(target=run, args=(t,)) for t in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


def test_build_report_agrees_across_threads():
    # the threads share one set of spaces and instances and run them in the
    # same order, so _reduced, the one cache filled lazily, fills
    # concurrently; twenty rounds, each on fresh instances
    serial = [asdict(build_report(inst)) for inst in threaded_cases()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-computation
    try:
        for _ in range(20):
            shared = threaded_cases()
            results, errors = reports_in_threads(shared)
            assert errors == []
            assert len(results) == 4 * len(shared)
            for (t, i), report in results.items():
                assert report == serial[i], f"thread {t}, instance {i}"
    finally:
        sys.setswitchinterval(interval)
