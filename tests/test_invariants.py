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
    AmbientSpace,
    _pair,
    divide_by_roots,
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
        euler_smooth_hypersurface(p4, p4.one() + h)


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


# -- singular-locus degrees ---------------------------------------------------


def test_porteous_degrees_for_quartic_table(quartic_table):
    for inst, expected in quartic_table:
        assert inst.ambient.integrate(porteous_class(inst)) == expected


def test_porteous_degree_of_quintic(quintic):
    assert quintic.ambient.integrate(porteous_class(quintic)) == 46


def test_porteous_class_defaults_to_square_shape(quintic):
    # against the cofactor determinant: the quintic, dense P^5 to P^8, a
    # product of P^1 factors on its block ring, and one whose columns differ
    blocks = dense_product_instance([1] * 6)
    space = product_of_projective_spaces([1] * 5)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, [[0] * 5, [-1, 0, 0, 1, 0]]),
        BundleSpec.sum_of_line_bundles(space, [[1, 0, 1, 0, 1], [1] * 5]),
    )
    distinct = Instance(space, pair, space.degree_one([1, 2, 3, 4, 5]))
    assert any(blocks.ambient.divided) and distinct.ambient is space
    cases = [quintic, *map(dense_instance, range(5, 9)), blocks, distinct]
    for inst in cases:
        assert porteous_class(inst) == schur((2, 2), inst.pair.schur_seq)


def test_porteous_degree_guard_outside_fourfolds():
    # off a fourfold Sing is no set of points: a report counts none, and the
    # class itself is still available, its own degree-4 part
    p5 = projective_space(5)
    inst = make_instance(p5, [0, 0], [2, 2], polarized=False)
    report = build_report(inst)
    assert report.singular_degree is None and report.odp_count is None
    singular = porteous_class(inst)
    assert singular.parts()[4] == singular


def test_porteous_degree_vanishes_for_equal_bundles(p4):
    inst = make_instance(p4, [1, 1], [1, 1], polarized=False)
    assert inst.ambient.integrate(porteous_class(inst)) == 0


# -- the singular Euler gap ----------------------------------------------------


def test_milnor_number_of_quartic(quartic):
    assert euler_numbers(quartic).ih_milnor == 32
    assert ih_milnor_number_small_dim(quartic) == 32


def test_milnor_number_of_quintic(quintic):
    gap = euler_numbers(quintic).ih_milnor
    assert gap == 92
    assert ih_milnor_number_small_dim(quintic) == 92
    assert gap == 2 * quintic.ambient.integrate(porteous_class(quintic))


def test_fourfold_milnor_number_is_twice_the_degree(p4):
    rng = random.Random(21)
    for _ in range(10):
        inst = random_instance(rng, p4, polarized=False)
        gap = euler_numbers(inst).ih_milnor
        assert gap == 2 * inst.ambient.integrate(porteous_class(inst))


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


FIVEFOLDS = {  # factor dimensions: the column each factor's degrees copy
    (5,): (0,),
    (1, 4): (0, 1),
    (2, 3): (0, 1),
    (1,) * 5: (0, 0, 1, 1, 2),  # repeated P^1 columns: a block ring
}


def test_fivefold_shortcut_agrees_with_tableau_sum():
    # the weight 5D - 2 c1(T) on the singular curve, which is 3 c1(T) under
    # the Calabi-Yau condition D = c1(T), on and off that condition
    inst = make_instance(projective_space(5), [0, 0], [2, 2], polarized=False)
    assert not inst.calabi_yau
    assert euler_numbers(inst).ih_milnor == ih_milnor_number_small_dim(inst) == 128
    rng = random.Random(22)
    for dims, columns in FIVEFOLDS.items():
        kinds = set()
        for trial in range(8):
            rank = rng.randint(2, 4)
            E = [[rng.randint(-2, 1) for _ in range(3)] for _ in range(rank)]
            F = [[rng.randint(0, 2) for _ in range(3)] for _ in range(rank)]
            E, F = ([[row[c] for c in columns] for row in B] for B in (E, F))
            if trial % 2:  # c1(F) - c1(E) = c1(T), which is d_i + 1 on factor i
                F[-1] = [
                    d + 1 + sum(e[i] for e in E) - sum(f[i] for f in F[:-1])
                    for i, d in enumerate(dims)
                ]
            inst = Instance.from_rows(dims, E, F)
            assert any(inst.ambient.divided) == (len(set(columns)) < len(columns))
            kinds.add(inst.calabi_yau)
            assert euler_numbers(inst).ih_milnor == ih_milnor_number_small_dim(inst)
        assert kinds == {False, True}, dims


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
    for dims in ([4], [5], [1] * 8, [2, 1, 3]):
        space = product_of_projective_spaces(dims)
        zero, c1 = [0] * len(dims), [d + 1 for d in dims]
        # one degree off c1(T), on the last factor, breaks the test
        off_last = c1[:-1] + [c1[-1] + 1]
        seen = set()
        for rows_f in ([zero, c1], [zero, off_last], [zero, zero], [c1, c1]):
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
    # from d = 6 a report computes the smooth number by one route only, so
    # this is its second route there: the divisor formula on P^6 to P^8 and
    # on a product, built as a report builds it
    rng = random.Random(23)
    instances = [
        random_instance(rng, projective_space(dim), polarized=False)
        for dim in (4, 5, 6, 7, 8)
        for _ in range(8)
    ]
    instances.append(Instance.from_rows([2, 4], [[0, 0], [-1, 0]], [[1, 1], [0, 2]]))
    for inst in instances:
        smooth = euler_smooth_hypersurface(inst.ambient, inst.pair.hypersurface_class)
        euler = euler_numbers(inst)
        assert euler.smooth == smooth
        assert euler.resolution == smooth + (-1) ** inst.d * euler.ih_milnor


def restriction_cases():
    """``(dims, j, E, F, polarization)``: the degree rows of an instance on
    ``dims`` and the factor ``j`` that its larger twin raises by 1, all at
    rank 2 to 4 with E of degrees -2..1 and F of degrees 0..2.  Sixty on
    P^4..P^7 with polarization 1; then four on each of nine products,
    unpolarized, each raising a factor drawn at random, so that P^1 factors
    of one column form a block on one ring or on both."""
    rng = random.Random(30)
    cases = []
    for _ in range(60):
        rank = rng.randint(2, 4)
        E = [[rng.randint(-2, 1)] for _ in range(rank)]
        F = [[rng.randint(0, 2)] for _ in range(rank)]
        cases.append(([rng.randint(4, 7)], 0, E, F, [1]))
    products = [[2, 2], [1, 3], [1, 1, 2], [2, 3], [1, 1, 1, 2], [1, 1, 3],
                [3, 3], [2, 2, 2], [1, 4]]
    for dims in products:
        for _ in range(4):
            rank = rng.randint(2, 4)
            E = [[rng.randint(-2, 1) for _ in dims] for _ in range(rank)]
            F = [[rng.randint(0, 2) for _ in dims] for _ in range(rank)]
            cases.append((dims, rng.randrange(len(dims)), E, F, None))
    return cases


def restricted_and_cut(dims, j, E, F, polarization):
    """Each value of the report on ``dims`` with the value one dimension up
    that restricts to it, as ``(small, large)`` pairs.  ``H`` is the
    hyperplane class of factor ``j`` on the larger base B, and the
    smaller instance is the larger one cut by ``H``:

    - ``euler_smooth = integral of c(T_B) D H / ((1 + D)(1 + H))``;
    - ``euler_resolution = sum_k a_k integral of [Z] xi^k H (Q / (1 + H))``
      in degree ``d - 2 - k``, on the larger instance's resolution, with
      ``d`` its dimension, since ``c(T_Z) [Z] = Q sum_k a_k [Z] xi^k``;
    - with a polarization on P^d, the intersection numbers
      ``H^k L^(d-1-k)`` one dimension up, less the first, ``L^d``.
    """
    small = Instance.from_rows(dims, E, F, polarization)
    small = build_report(small, allow_non_cy_c2=True)
    raised = [a + (i == j) for i, a in enumerate(dims)]
    large = Instance.from_rows(raised, E, F, polarization)
    rows = [*E, *F] + ([polarization] if polarization else [])
    space, d = large.ambient, large.d
    cut = space.generator(chow._blocks(raised, zip(*rows))[1].index(j))
    D = large.pair.hypersurface_class
    quotient = divide_by_roots(space.tangent_chern.parts(d - 2), [D, cut])
    pairs = [(small.euler_smooth, space.integrate(D * cut * quotient[d - 2]))]
    res = large.resolution
    cut = res.space.pullback(cut)
    quotient = divide_by_roots(res.tangent, [cut])
    terms = zip(res.series, res.cycles, quotient[d - 2 :: -1])
    direct = sum(a * res.space.integrate(z * cut * q) for a, z, q in terms)
    pairs.append((small.euler_resolution, direct))
    if polarization:
        pairs.append((small.intersection_numbers, intersection_numbers(large)[1:]))
    return pairs


def test_hyperplane_restriction_ties_each_report_to_the_one_a_dimension_up():
    # the smaller report's Euler numbers and intersection numbers against
    # weighted integrals on the larger instance's base and resolution: two
    # rings, and the c(T) of two spaces
    for case in restriction_cases():
        for small, large in restricted_and_cut(*case):
            assert small == large, case


def test_hyperplane_restriction_fails_on_a_wrong_tangent_binomial(monkeypatch):
    # the binomial seam of the Todd test: c(T) of every space built inside
    # the patch gains 1 at k = 2, on both sides, and on P^d the wrong c(T)
    # does not restrict to the smaller one's: of the 60 P^d cases, 34
    # reports raise on their own and 23 of the other 26 break the identity.
    # On the products 27 of 36 raise and 2 of the other 9 break it: the
    # h^2 term of a cut P^2 meets H^3 = 0
    monkeypatch.setattr(chow, "comb", lambda n, k: comb(n, k) + (k == 2))
    outcomes = []
    for case in restriction_cases()[:60]:
        try:
            pairs = restricted_and_cut(*case)
        except ConsistencyError:
            continue
        outcomes.append(all(small == large for small, large in pairs))
    assert outcomes.count(False) > 4 * outcomes.count(True)


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
    with pytest.raises(GuardError, match="Calabi-Yau condition fails"):
        c2_numbers(quartic)  # Calabi-Yau fails, no opt-in
    no_pol = make_instance(p4, [-1, -1, -1, -2], [0, 0, 0, 0], polarized=False)
    with pytest.raises(GuardError, match="need a polarization class"):
        c2_numbers(no_pol)
    p5 = projective_space(5)
    inst5 = make_instance(p5, [0, 0], [3, 3])
    with pytest.raises(GuardError, match="defined for dim M = 4 only"):
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
    roots = (xi - wrong_space.pullback(e) for e in inst.pair.E.roots)
    twisted = BundleSpec(wrong_space, tuple(roots))
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


def non_calabi_yau_fivefold():
    return make_instance(projective_space(5), [0, 0], [2, 2])


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
    # the shortcut forms the 2x2 class once on every fourfold and fivefold,
    # and the c2 pairings read none
    names = ("euler_numbers", "porteous_class")
    counts = count_calls(monkeypatch, names)
    for inst in (quintic, calabi_yau_fivefold(), non_calabi_yau_fivefold()):
        counts.update(dict.fromkeys(names, 0))
        build_report(inst)
        assert counts == dict.fromkeys(names, 1)


def test_c2_numbers_forms_no_singular_class(monkeypatch, quintic):
    # the closed route reads the Calabi-Yau head, checked as a class, so
    # the c2 pairings need no count of the singular points
    counts = count_calls(monkeypatch, ("porteous_class",))
    c2_numbers(quintic)
    assert counts == {"porteous_class": 0}


def test_euler_numbers_pairs_each_low_weight_once(monkeypatch):
    # on P^6 with E = O^3 and F = O(1)^3, the six weights pair D^w once each,
    # weights 1 to 3 for both numbers, and the direct chi(Z) pairs the six
    # terms [Z] xi^k on a bundle with no relation
    inst = Instance.from_rows([6], [[0]] * 3, [[1]] * 3, [1])
    # built before counting: the pair's sequences and the resolution
    inst.pair.schur_seq, inst.pair.chern_diff
    assert not inst.resolution.space.has_relation
    counts = count_calls(monkeypatch, ("_pair",))
    euler_numbers(inst)
    assert counts == {"_pair": 12}


def count_products(monkeypatch):
    """Calls of ``ChowClass.__mul__`` by the space of the left operand, once
    this patches it."""
    counts = {}
    original = chow.ChowClass.__mul__

    def counted(self, other):
        counts[self.ambient] = counts.get(self.ambient, 0) + 1
        return original(self, other)

    monkeypatch.setattr(chow.ChowClass, "__mul__", counted)
    return counts


@pytest.mark.parametrize(
    "dims, rows_e, rows_f, products",
    [
        ([4], [[0]] * 2, [[2]] * 2, 0),  # Table 2's row 4
        ([1] * 4, [[0] * 4] * 3, [[1] * 4] * 3, 0),  # the (P^1)^4 block ring
        ([4], [[0]] * 2, [[1], [3]], 1),  # its bundle has a relation
    ],
    ids=["P^4 O(2)^2", "(P^1)^4 O(1)^3", "P^4 O(1)+O(3)"],
)
def test_c2_numbers_form_a_product_only_on_a_relation(
    monkeypatch, dims, rows_e, rows_f, products
):
    # the direct c2 . L is one _pair on the bundle, which multiplies the
    # cycle by L only where the bundle has a relation
    inst = Instance.from_rows(dims, rows_e, rows_f, [1] * len(dims))
    # built before counting: the pair's sequences and the resolution
    inst.pair.schur_seq, inst.pair.chern_diff
    bundle = inst.resolution.space
    assert bundle.has_relation == bool(products)
    counts = count_products(monkeypatch)
    c2_numbers(inst, allow_non_cy=True)
    assert counts.get(bundle, 0) == products


def test_euler_smooth_hypersurface_forms_no_product(monkeypatch):
    # D times the quotient's top part is paired, not multiplied out
    p6 = projective_space(6)
    divisor = 3 * p6.generator(0)
    counts = count_products(monkeypatch)
    assert euler_smooth_hypersurface(p6, divisor) == euler_series_oracle(6, 3)
    assert counts.get(p6, 0) == 0


def dense_instance(d):
    # E = O(0)^3, F = O(1)^3: the Schur sequence 1/(1-h)^3 has no zero entry
    return make_instance(projective_space(d), [0, 0, 0], [1, 1, 1])


SCHUR_MODULE = sys.modules["detcalc.schur"]

CROSS_CHECKS = {  # case id: (module, name, mutation, expected message)
    # hooks give the resolution number: checked against D^w as classes in
    # weights 1 to 3, and paired with c(T) unformed from weight 4, where
    # the direct integral checks them
    "hook_schur_doubled": (
        invariants,
        "hook_sum",
        lambda x: 2 * x,
        "^weight 1:",
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
    # hook_sum and hook_pairing share; weight 2 is the first to read one
    "syt_count_plus_one": (
        SCHUR_MODULE,
        "comb",
        lambda x: x + 1,
        "^weight 2:",
    ),
    # the 2x2 class enters the shortcut on every fourfold and fivefold
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
    ]
    + [("5-non-cy", case) for case in ("schur_doubled", "ih_milnor_number_small_dim")],
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
    elif dim == "5-non-cy":
        inst = non_calabi_yau_fivefold()
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


def test_instance_refuses_a_projective_bundle_ambient():
    # proj_bundle takes no bundle as its base, and the resolution is built
    # on first read, so the constructor refuses such an ambient itself
    p3 = projective_space(3)
    bundle = proj_bundle(p3, split(p3, [0, 1]))
    E = BundleSpec.sum_of_line_bundles(bundle, [[0, 0]] * 2)
    pair = VirtualPair(E, BundleSpec.sum_of_line_bundles(bundle, [[0, 1]] * 2))
    named = r"projective bundle: P\(rank-2 bundle\) over P\^3"
    with pytest.raises(ValueError, match=named):
        Instance(bundle, pair)


def test_instance_refuses_a_polarization_that_is_not_ample(quintic):
    # O(a_1, ..., a_n) is ample exactly when every a_i >= 1, the rule the
    # command line applies to its configs
    p4, pair, h = quintic.ambient, quintic.pair, quintic.polarization
    for polarization in (p4.zero(), -h):
        with pytest.raises(ValueError, match="not ample"):
            Instance(p4, pair, polarization)
    for dims, bad, good in [([1, 3], [1, 0], [2, 1]), ([1, 4], [3, 0], [1, 1])]:
        space = product_of_projective_spaces(dims)
        pair = VirtualPair(
            BundleSpec.sum_of_line_bundles(space, [[0, 0], [0, 0]]),
            BundleSpec.sum_of_line_bundles(space, [[1, 1], [1, 2]]),
        )
        with pytest.raises(ValueError, match="not ample"):
            Instance(space, pair, space.degree_one(bad))
        assert Instance(space, pair, space.degree_one(good)).polarization is not None


def test_instance_refuses_an_input_that_is_not_of_degree_one(p4):
    # the constructor reads every root and the polarization as a degree row,
    # so such a root is refused as input; accepted, it would reach a report
    # whose two routes disagree (intersection numbers closed [30, 15, 7, 3]
    # against direct [31, 15, 7, 3] for the first, resolution Euler number
    # hooks 0 against direct 2 for the second)
    h = p4.generator(0)
    F = split(p4, [1, 2])
    for roots in [(h * h, -(h * h)), (p4.one(), -p4.one())]:
        pair = VirtualPair(BundleSpec(p4, roots), F)
        with pytest.raises(ValueError, match="degree one"):
            Instance(p4, pair, h)
    pair = VirtualPair(split(p4, [0, 0]), F)
    p5 = projective_space(5)
    for foreign in (p5.generator(0), p5.zero()):
        with pytest.raises(ValueError, match="different space"):
            Instance(p4, pair, foreign)


def test_values_are_computed_on_first_read(quintic, quartic):
    # the constructor only checks the inputs: a bare pair holds D and the
    # Calabi-Yau test, which the c2 guard reads, and the resolution and the
    # pair's sequences wait for a report, which builds each once
    pair = VirtualPair(quintic.pair.E, quintic.pair.F)
    assert {"hypersurface_class", "calabi_yau"} <= vars(pair).keys()
    inst = Instance(quintic.ambient, pair, quintic.polarization)
    assert "calabi_yau" in vars(inst)
    assert "resolution" not in vars(inst)
    assert not {"chern_diff", "schur_seq"} & vars(pair).keys()
    build_report(inst)
    built = inst.resolution, pair.chern_diff, pair.schur_seq
    assert vars(inst)["resolution"] is built[0]
    assert {"chern_diff", "schur_seq"} <= vars(pair).keys()
    build_report(inst)
    again = inst.resolution, pair.chern_diff, pair.schur_seq
    assert all(x is y for x, y in zip(again, built))
    # a block instance builds its resolution on the block ring; the caller's
    # pair never divides, the instance's pair does
    p1s = product_of_projective_spaces([1] * 4)
    caller = VirtualPair(
        BundleSpec.sum_of_line_bundles(p1s, [[0] * 4] * 2),
        BundleSpec.sum_of_line_bundles(p1s, [[1] * 4, [2] * 4]),
    )
    block = Instance(p1s, caller, p1s.degree_one([1] * 4))
    assert block.pair is not caller and "resolution" not in vars(block)
    build_report(block, allow_non_cy_c2=True)
    assert vars(block)["resolution"].space.base is block.ambient
    assert {"chern_diff", "schur_seq"} <= vars(block.pair).keys()
    assert not {"chern_diff", "schur_seq"} & vars(caller).keys()
    # the quintic (no normal root is xi) divides c(T_P) by every normal root:
    # parts 0 .. d-1 of c(T_Z), and its polarization asks for the cycles
    # [Z] xi^j as well; without one it keeps [Z] alone
    assert len(inst.resolution.tangent) == inst.d
    assert len(inst.resolution.cycles) == inst.d
    assert inst.resolution.series == [1]
    res = Instance(inst.ambient, inst.pair).resolution
    roots = [res.tautological - res.space.pullback(e) for e in inst.pair.E.roots]
    assert res.cycles == [prod(roots, start=res.space.one())]
    # the quartic (E = O^2, F = O(2)^2) divides by no root: it pairs the parts
    # of c(T_P) with the cycles instead, with or without a polarization
    for polarization in (quartic.polarization, None):
        res = Instance(quartic.ambient, quartic.pair, polarization).resolution
        assert res.tangent == res.space.tangent_chern.parts(quartic.d - 1)
        assert len(res.cycles) == len(res.series) == quartic.d


def counted_ring_work(monkeypatch):
    """The names of the calls that build a Chern class or P(F), in order,
    once this patches them."""
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for owner, name in [
        (BundleSpec, "total_chern"),
        (chow, "divide_by_roots"),
        (bundles, "divide_by_roots"),
        (invariants, "divide_by_roots"),
        (invariants, "proj_bundle"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def test_build_report_builds_no_chern_class(monkeypatch, quintic):
    # D and the Calabi-Yau test are built by the constructors, c(T_Z) and
    # the pair's sequences by the first report; a second report on a
    # polarized fourfold or a fivefold, Calabi-Yau or not, with its
    # shortcut, only reads them
    instances = (quintic, calabi_yau_fivefold(), non_calabi_yau_fivefold())
    for inst in instances:
        build_report(inst)
    calls = counted_ring_work(monkeypatch)
    for inst in instances:
        build_report(inst)
    assert calls == []


def test_refused_c2_report_does_no_ring_work(monkeypatch):
    # the c2 guard reads only the inputs, and the instance builds its
    # resolution and its pair's sequences on first read, so a library
    # report or c2_numbers that the guard refuses builds neither
    calls = counted_ring_work(monkeypatch)
    for rows_f in ([[1], [1]], [[2], [2], [2]]):
        inst = Instance.from_rows([4], [[0]] * len(rows_f), rows_f, [1])
        with pytest.raises(GuardError, match="Calabi-Yau condition fails"):
            build_report(inst)
        with pytest.raises(GuardError, match="Calabi-Yau condition fails"):
            c2_numbers(inst)
        assert "resolution" not in vars(inst)
    assert not {"total_chern", "divide_by_roots", "proj_bundle"} & set(calls)


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


@pytest.mark.parametrize(
    "E, F, nodes",
    [([0, 0], [1, 2], 4), ([0, 0, 0], [1, 1, 1], 6)],
    ids=["O^2->O(1)+O(2)", "O^3->O(1)^3"],
)
def test_odp_count_of_an_explicit_cubic_determinant(E, F, nodes):
    # the paper's theorem on one general matrix: det of a random matrix of
    # forms from O(E) to O(F) on P^4, over GF(32003) with seed 0, is a cubic
    # whose singular points are A1 points, as many as the report's ODP
    # count; none lies off the chart x0 = 1.  For O^3 -> O(1)^3 the count
    # is k^2 (k^2 - 1) / 12 with k = 3 (Harris, Example 19.10)
    count, non_a1, boundary = oracles.determinantal_singularities(E, F, 4, 0)
    assert non_a1 == 0 and boundary is not None
    inst = Instance.from_rows([4], [[e] for e in E], [[f] for f in F])
    count_by_class = inst.ambient.integrate(porteous_class(inst))
    assert count == build_report(inst).odp_count == count_by_class == nodes


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
    the instance's ring (the block ring when the inputs are constant on a
    block of P^1 factors), and check the report's chi(Z), the pushed
    cycles L^j . [Z] with their intersection numbers and, on fourfolds, the
    c2 direct cycle."""
    res, d = inst.resolution, inst.d
    pair, hyper = inst.pair, inst.polarization
    bundle = proj_bundle(inst.ambient, pair.F)
    xi = bundle.fiber_class()
    roots = [xi - bundle.pullback(e) for e in pair.E.roots]
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
            inst.ambient.integrate(bundle.pushforward(cycle * xi))
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
    # [Z] the series 1 / (1 + xi)^p, and E = O^r divides c(T_P) by nothing
    res, p = inst.resolution, rows_e.count([0] * len(dims))
    product = list(res.series)
    for _ in range(p):
        product = [a + b for a, b in zip(product, [0] + product)]
    assert product == [1] + [0] * (inst.d - 1 if p else 0)
    whole = res.space.tangent_chern.parts(inst.d - 1)
    assert (res.tangent == whole) == (p == len(rows_e))


def test_build_report_refuses_c2_before_any_invariant(monkeypatch, quartic):
    # a polarized fourfold off the Calabi-Yau condition, without the opt-in,
    # is refused by c2_numbers before the Euler numbers, the shortcut or the
    # intersection numbers are computed
    assert quartic.polarization is not None and not quartic.calabi_yau
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    order = [
        "c2_numbers",
        "euler_numbers",
        "ih_milnor_number_small_dim",
        "intersection_numbers",
    ]
    for name in order:
        monkeypatch.setattr(invariants, name, counted(name, getattr(invariants, name)))
    with pytest.raises(GuardError, match="Calabi-Yau condition fails"):
        build_report(quartic)
    assert calls == ["c2_numbers"]
    # the counters do see the work once the report is opted in
    calls.clear()
    build_report(quartic, allow_non_cy_c2=True)
    assert calls == order


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
    twice every cycle ``[Z] xi^j``, which every direct route reads and no
    other route does."""
    copy = Instance(inst.ambient, inst.pair, inst.polarization)
    res = copy.resolution
    copy.resolution = res._replace(cycles=[2 * cycle for cycle in res.cycles])
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


def e_trivial_instances(quartic):
    """Instances with E = O^r, whose resolution divides c(T_P) by no root:
    P^6 with F = O(1)^3 on a bundle with no relation, Table 2's row 3 on a
    bundle with one, and the quartic, a polarized fourfold."""
    return [
        make_instance(projective_space(6), [0, 0, 0], [1, 1, 1]),
        table2_row_3(),
        Instance(quartic.ambient, quartic.pair, quartic.polarization),
    ]


def test_report_reads_no_bundle_tangent_class_past_the_resolution(
    monkeypatch, quartic
):
    # the resolution holds the parts of Q that every direct route reads, those
    # of c(T_P) when nothing divides, so a report reads no c(T) of a bundle
    reads = []
    original = AmbientSpace.tangent_chern

    def counted(space):
        if space.base is not None:
            reads.append(space)
        return original.fget(space)

    monkeypatch.setattr(AmbientSpace, "tangent_chern", property(counted))
    for inst in e_trivial_instances(quartic):
        bundle = inst.resolution.space
        reads.clear()
        build_report(inst, allow_non_cy_c2=True)
        assert reads == []
        bundle.tangent_chern  # a read the patch does count
        assert reads == [bundle]


def doubled_tangent(inst):
    """A copy of ``inst`` whose resolution holds twice every part of ``Q``,
    which every direct route but the intersection numbers reads."""
    copy = Instance(inst.ambient, inst.pair, inst.polarization)
    res = copy.resolution
    copy.resolution = res._replace(tangent=[2 * t for t in res.tangent])
    return copy


def test_direct_routes_read_the_stored_tangent_parts_when_nothing_divides(quartic):
    for inst in e_trivial_instances(quartic):
        value = euler_numbers(inst).resolution
        assert value != 0
        with pytest.raises(ConsistencyError) as raised:
            euler_numbers(doubled_tangent(inst))
        shown = f"resolution Euler number: hooks {value}, direct {2 * value}"
        assert str(raised.value) == shown
        if inst.d == 4:
            assert c2_numbers(inst, allow_non_cy=True) != (0, 0)
            with pytest.raises(ConsistencyError, match="c2 pairings"):
                c2_numbers(doubled_tangent(inst), allow_non_cy=True)


def test_euler_numbers_compare_routes(quintic):
    # on relation-free bundles the quintic divides c(T_P) by every normal
    # root, the P^8 with E partly trivial by the one that is not xi, and the
    # dense P^8 and (P^1)^5 by none; with F = O(1) + O(1) + O(2) the bundle
    # has a relation, c_(d-1)(T_Z) is summed by Horner in xi and multiplied
    # by [Z], and E = O^3 divides none, E = O + O + O(-1) one.  On each the
    # direct chi(Z) integrates against the one stored [Z]: doubling the
    # cycles alone doubles it
    for inst in (
        quintic,
        partly_trivial_instance(),
        dense_instance(8),
        dense_product_instance([1] * 5),
        table2_row_3(),
        table2_row_3(d=5),
        partly_trivial_instance_with_relation(),
    ):
        value = euler_numbers(inst).resolution
        assert value != 0
        with pytest.raises(ConsistencyError) as raised:
            euler_numbers(doubled_locus(inst))
        shown = f"resolution Euler number: hooks {value}, direct {2 * value}"
        assert str(raised.value) == shown


def test_paired_resolution_divides_and_multiplies_nothing_on_the_bundle(
    monkeypatch, quintic, quartic
):
    # on every bundle, with a relation or without, building the instance
    # divides c(T_P) by exactly the normal roots that are not xi, so with
    # E = O^r it makes one call with no root, which divides nothing.  The
    # intersection numbers form no product on the bundle space: they read
    # the cycles the instance built
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
        bundle, xi, E = res.space, res.tautological, inst.pair.E
        assert bundle.has_relation == relation
        assert [e.is_zero() for e in E.roots].count(True) == xis
        others = [xi - bundle.pullback(e) for e in E.roots if not e.is_zero()]
        assert res.cycles[0] == prod(others, start=xi**xis)
        on_bundle = [roots for space, roots in divided if space is bundle]
        assert on_bundle == [others]
        whole = bundle.tangent_chern.parts(inst.d - 1)
        assert (res.tangent == whole) == (not others)
        multiplied.clear()
        intersection_numbers(inst)
        assert inst.ambient in multiplied  # the powers of the polarization
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


def _c2_direct_mismatch(monkeypatch, quintic, quartic):
    h, l = c2_numbers(quintic)
    routes = {"closed": (h, l), "direct": (2 * h, 2 * l)}
    return lambda: c2_numbers(doubled_locus(quintic)), "c2 pairings", routes


def _c2_direct_mismatch_off_calabi_yau(monkeypatch, quintic, quartic):
    # the same two routes, with no head check, off the Calabi-Yau condition
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
    # a library report, a direct call and a CLI report, which builds through
    # Instance.from_rows and build_report, run c2_numbers, its guard and its
    # route comparison once each
    calls = []
    original, agree = invariants.c2_numbers, invariants._agree

    def counted(*args):
        calls.append("c2_numbers")
        return original(*args)

    def counted_agree(quantity, **routes):
        if quantity == "c2 pairings":
            calls.append(quantity)
        return agree(quantity, **routes)

    monkeypatch.setattr(invariants, "c2_numbers", counted)
    monkeypatch.setattr(invariants, "_agree", counted_agree)
    for run in (
        lambda: build_report(quintic),
        lambda: invariants.c2_numbers(quintic),
        lambda: cli.report_from_config(TABLES["table1"].rows[0][1]),
    ):
        calls.clear()
        run()
        assert calls == ["c2_numbers", "c2 pairings"]


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
    inst = Instance(space, pair)  # on the block ring, when F and E allow
    res = inst.resolution
    cycle = res.cycles[0]
    for j in range(space.dim):
        assert res.space.pushforward(cycle) == inst.pair.schur_seq[j + 1], j
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
    # same order, so every cache filled on first read fills concurrently: an
    # instance's resolution, a pair's chern_diff and schur_seq, a base
    # space's c(T) and a bundle's _reduced; twenty rounds, each on fresh
    # instances
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


def meet_in_two_threads(monkeypatch, module, name, *reads):
    """Patch ``module.name`` to wait at a barrier of two before it runs, call
    the two ``reads`` in two threads and return what each read, in order.
    A first read that holds a lock the other needs breaks the barrier."""
    both = threading.Barrier(2, timeout=10)
    original = getattr(module, name)

    def meeting(*args):
        both.wait()
        return original(*args)

    monkeypatch.setattr(module, name, meeting)
    built, errors = {}, []

    def run(i):
        try:
            built[i] = reads[i]()
        except Exception as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return built[0], built[1]


def test_racing_reads_of_the_resolution_keep_the_first_stored(monkeypatch):
    # a first read takes no lock, so two threads that find no resolution
    # both build one P(F), held in proj_bundle until both have entered it;
    # the first stored wins, and both reads return it
    inst = make_instance(projective_space(5), [0, 0, -1], [1, 1, 2])
    read = lambda: inst.resolution
    first, second = meet_in_two_threads(
        monkeypatch, invariants, "proj_bundle", read, read
    )
    assert first is second
    assert inst.resolution is first  # stored: the barrier is not met again
    assert build_report(inst, allow_non_cy_c2=True).dim == 5


def test_first_reads_of_two_instances_run_at_once(monkeypatch):
    # one instance's first read of its resolution, or one pair's of its
    # sequence, does not wait for another's: both are inside proj_bundle,
    # or divide_by_roots, at once
    a, b = (make_instance(projective_space(5), [0, 0, -1], [1, 1, k]) for k in (2, 3))
    expected = [inst.pair.schur_seq for inst in (a, b)]
    reads = (lambda: a.resolution), (lambda: b.resolution)
    first, second = meet_in_two_threads(monkeypatch, invariants, "proj_bundle", *reads)
    assert a.resolution is first and b.resolution is second
    pairs = [VirtualPair(inst.pair.E, inst.pair.F) for inst in (a, b)]
    reads = (lambda: pairs[0].schur_seq), (lambda: pairs[1].schur_seq)
    first, second = meet_in_two_threads(monkeypatch, bundles, "divide_by_roots", *reads)
    assert [first, second] == expected
