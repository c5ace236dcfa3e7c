import random
import sys
import threading
from dataclasses import asdict
from math import comb

import pytest

from detcalc import invariants
from detcalc.bundles import BundleSpec, VirtualPair
from detcalc.chow import product_of_projective_spaces, proj_bundle, projective_space
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
    is_calabi_yau,
    odp_report,
    porteous_class,
    porteous_degree,
)
from detcalc.schur import schur
from oracles import series, series_inv, series_mul, series_pow


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


def test_euler_smooth_quartic_and_quintic():
    p4 = projective_space(4)
    h = p4.generator(0)
    assert euler_smooth_hypersurface(p4, 4 * h) == -56
    assert euler_smooth_hypersurface(p4, 5 * h) == -200
    assert euler_series_oracle(4, 5) == -200


def test_euler_smooth_on_the_line():
    line = projective_space(1)
    assert euler_smooth_hypersurface(line, line.generator(0)) == 1


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


# -- singular-locus degrees ---------------------------------------------------


def test_porteous_degrees_for_quartic_table(quartic_table):
    for inst, expected in quartic_table:
        assert porteous_degree(inst) == expected


def test_porteous_degree_of_quintic(quintic):
    assert porteous_degree(quintic) == 46


def test_porteous_class_defaults_to_square_shape(quintic):
    assert porteous_class(quintic) == schur((2, 2), quintic.pair.schur_seq)


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
    assert not is_calabi_yau(inst)
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
        assert is_calabi_yau(inst)
        assert euler_numbers(inst).ih_milnor == ih_milnor_number_small_dim(inst)


def test_calabi_yau_condition_examples(quintic, quartic, quartic_table):
    assert is_calabi_yau(quintic)
    assert not is_calabi_yau(quartic)
    assert not any(is_calabi_yau(inst) for inst, _ in quartic_table)


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
            smooth = euler_smooth_hypersurface(
                space, inst.pair.hypersurface_class()
            )
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
        divisor = inst.pair.hypersurface_class()
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
        tangent = p4.tangent_chern
        seq = inst.pair.schur_seq
        dual_diff = VirtualPair(
            inst.pair.E.dual(), inst.pair.F.dual()
        ).chern_diff
        general = tangent.part(2) + dual_diff[1] * tangent.part(1) + dual_diff[2]
        reduced = tangent.part(2) - seq[2]
        assert general == reduced


def test_dual_routes_on_random_instances(p4):
    # the closed-form/direct comparisons run inside the two functions
    rng = random.Random(26)
    for trial in range(20):
        inst = random_instance(rng, p4, calabi_yau=trial % 2 == 0)
        intersection_numbers(inst)
        c2_numbers(inst, allow_non_cy=not is_calabi_yau(inst))


def test_flipped_bundle_convention_is_detected(p4):
    # rebuilding the quotient bundle from the dualized fiber flips the sign
    # of the defining relation; the direct route then contradicts the
    # closed form, which is exactly what the dual-route comparison guards.
    inst = make_instance(p4, [0, 0], [2, 2])
    expected = intersection_numbers(inst)

    wrong_space = proj_bundle(p4, inst.pair.F.dual())
    xi = wrong_space.fiber_class()
    locus = (
        inst.pair.E.dual().pullback_to(wrong_space).twist(xi).chern(inst.pair.rank)
    )
    h = wrong_space.pullback(p4.generator(0))
    wrong = [
        wrong_space.integrate(xi ** (3 - k) * h**k * locus) for k in range(4)
    ]
    assert wrong != expected


# -- reports --------------------------------------------------------------------


def test_odp_report_quintic(quintic):
    count, warnings = odp_report(quintic)
    assert count == 46
    assert len(warnings) == 3


def test_odp_report_guard():
    p5 = projective_space(5)
    inst = make_instance(p5, [0, 0], [2, 2], polarized=False)
    with pytest.raises(GuardError):
        odp_report(inst)


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
    assert not is_calabi_yau(inst)  # c1(T) is nonzero while the divisor class is 0
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
    names = ("euler_numbers", "porteous_degree")
    counts = count_calls(monkeypatch, names)
    build_report(quintic)
    assert counts == dict.fromkeys(names, 1)
    counts.update(dict.fromkeys(names, 0))
    inst = calabi_yau_fivefold()
    assert is_calabi_yau(inst)
    build_report(inst)
    assert counts == {**dict.fromkeys(names, 1), "porteous_degree": 0}


@pytest.mark.parametrize(
    "name, mutate, message",
    [
        ("hook_schur", lambda value: 2 * value, "^weight 1:"),
        ("schur", lambda value: 2 * value, "^weight 4:"),
        ("syt_count", lambda value: value + 1, "^weight 4:"),
        ("ih_milnor_number_small_dim", lambda value: value + 1, "shortcut"),
    ],
    ids=[
        "hook_schur_doubled",
        "schur_doubled",
        "syt_count_plus_one",
        "ih_milnor_number_small_dim",
    ],
)
@pytest.mark.parametrize("dim", [4, 5])
def test_build_report_still_cross_checks(
    monkeypatch, quintic, name, mutate, message, dim
):
    # hooks enter the power identity in weight 1, shapes containing (2,2) in 4
    original = getattr(invariants, name)
    monkeypatch.setattr(invariants, name, lambda *args: mutate(original(*args)))
    inst = quintic if dim == 4 else calabi_yau_fivefold()
    with pytest.raises(ConsistencyError, match=message):
        build_report(inst)


@pytest.mark.parametrize("d", range(6, 17))
def test_dense_rank_three_ladder(d):
    # E = O(0)^3, F = O(1)^3: the Schur sequence 1/(1-h)^3 has no zero entry
    space = projective_space(d)
    inst = make_instance(space, [0, 0, 0], [1, 1, 1])
    report = build_report(inst)
    assert report.intersection_numbers == [comb(d - k + 2, 2) for k in range(d)]
    assert report.euler_smooth == euler_series_oracle(d, 3)


def test_instance_guards(p4):
    p3 = projective_space(3)
    with pytest.raises(GuardError):
        make_instance(p3, [0, 0], [1, 1])
    with pytest.raises(GuardError):
        make_instance(p4, [0], [1])
    with pytest.raises(ValueError):
        Instance(p4, VirtualPair(split(p4, [0, 0]), split(p4, [1, 1])), p4.one())


def doubled_locus(inst):
    """A copy of ``inst`` whose resolution has twice its fundamental class,
    which changes only the direct routes."""
    copy = Instance(inst.ambient, inst.pair, inst.polarization)
    copy.resolution = inst.resolution._replace(locus=2 * inst.resolution.locus)
    return copy


def test_intersection_numbers_compare_routes(quintic):
    with pytest.raises(ConsistencyError):
        intersection_numbers(doubled_locus(quintic))


def test_c2_numbers_compare_routes(quintic, quartic):
    with pytest.raises(ConsistencyError):
        c2_numbers(doubled_locus(quintic))
    with pytest.raises(ConsistencyError):
        c2_numbers(doubled_locus(quartic), allow_non_cy=True)


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
    # same order, so the lazy caches (_reduced, chern_diff/schur_seq,
    # resolution) fill concurrently; twenty rounds, each on fresh instances
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
