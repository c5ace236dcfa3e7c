import random
from math import comb

import pytest

import detcalc.schur as schur_module
from detcalc.bundles import BundleSpec, VirtualPair
from detcalc.chow import ChowClass, product_of_projective_spaces, projective_space
from detcalc.schur import hook_pairing, hook_sum
from oracles import (
    conjugate,
    covers_above,
    monomials_of_degree,
    partitions_of,
    s_from_c,
    schur,
    syt_count,
)


def random_sequence(rng, space):
    seq = [space.one()]
    for degree in range(1, space.dim + 1):
        terms = {
            exp: rng.randint(-4, 4)
            for exp in monomials_of_degree(space, degree)
        }
        seq.append(ChowClass(space, terms))
    return seq


def split_pair(space, e_degrees, f_degrees):
    return VirtualPair(
        BundleSpec.sum_of_line_bundles(space, [[d] for d in e_degrees]),
        BundleSpec.sum_of_line_bundles(space, [[d] for d in f_degrees]),
    )


def test_s_from_c_fixes_trivial_sequence():
    p4 = projective_space(4)
    trivial = [p4.one()] + [p4.zero()] * 4
    assert s_from_c(trivial) == trivial


def test_s_from_c_degree_one_entry_is_unchanged():
    rng = random.Random(1)
    space = projective_space(5)
    for _ in range(5):
        seq = random_sequence(rng, space)
        assert s_from_c(seq)[1] == seq[1]


def test_s_from_c_is_involution():
    rng = random.Random(2)
    for space in (projective_space(6), product_of_projective_spaces([2, 2])):
        for _ in range(8):
            seq = random_sequence(rng, space)
            assert s_from_c(s_from_c(seq)) == seq


def test_s_from_c_of_difference_gives_dual_segre_classes():
    # with a trivial first bundle the transform produces 1 / c(F dual)
    p4 = projective_space(4)
    h = p4.generator(0)
    pair = split_pair(p4, [0, 0], [2, 2])
    transformed = s_from_c(pair.chern_diff)
    for k in range(5):
        assert transformed[k] == (k + 1) * 2**k * h**k
    assert transformed == pair.schur_seq


def test_s_from_c_rejects_bad_head():
    p4 = projective_space(4)
    with pytest.raises(ValueError):
        s_from_c([p4.zero()])


def test_schur_single_row_is_sequence_entry():
    rng = random.Random(3)
    space = projective_space(6)
    seq = random_sequence(rng, space)
    for m in range(7):
        assert schur((m,) if m else (), seq) == seq[m]


def test_schur_square_is_two_by_two_determinant():
    rng = random.Random(4)
    space = projective_space(8)
    for _ in range(5):
        seq = random_sequence(rng, space)
        assert schur((2, 2), seq) == seq[2] * seq[2] - seq[1] * seq[3]


def test_schur_padding_with_zeros_is_harmless():
    rng = random.Random(5)
    space = projective_space(6)
    seq = random_sequence(rng, space)
    assert schur((3, 2, 0, 0), seq) == schur((3, 2), seq)
    assert schur((), seq) == space.one()


def test_schur_known_hook_expansion():
    # det [[s1, s2], [1, s1]] for the column pair
    rng = random.Random(6)
    space = projective_space(6)
    seq = random_sequence(rng, space)
    assert schur((1, 1), seq) == seq[1] * seq[1] - seq[2]
    assert schur((2, 1), seq) == seq[2] * seq[1] - seq[3]


def test_pieri_expand_known_values():
    assert covers_above(()) == [(1,)]
    assert covers_above((1,)) == [(2,), (1, 1)]
    assert covers_above((2, 2)) == [(3, 2), (2, 2, 1)]


def test_pieri_identity_on_split_bundle_over_p8():
    space = projective_space(8)
    pair = split_pair(space, [0, 0, 0, 0], [1, 2, 3, 5])
    seq = pair.schur_seq
    s1 = seq[1]
    for weight in range(7):
        for lam in partitions_of(weight):
            expected = space.zero()
            for mu in covers_above(lam):
                expected = expected + schur(mu, seq)
            assert s1 * schur(lam, seq) == expected


def test_pieri_identity_on_a_product_space():
    space = product_of_projective_spaces([3, 3])
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, [[0, 0], [0, 0]]),
        BundleSpec.sum_of_line_bundles(space, [[1, 2], [2, 1]]),
    )
    seq = pair.schur_seq
    s1 = seq[1]
    for weight in range(5):
        for lam in partitions_of(weight):
            expected = space.zero()
            for mu in covers_above(lam):
                expected = expected + schur(mu, seq)
            assert s1 * schur(lam, seq) == expected


def test_power_identity_up_to_weight_six():
    space = projective_space(8)
    pair = split_pair(space, [0, 0, 0, 0], [1, 2, 3, 5])
    seq = pair.schur_seq
    s1 = seq[1]
    for power in range(7):
        expansion = space.zero()
        for lam in partitions_of(power):
            expansion = expansion + syt_count(lam) * schur(lam, seq)
        assert s1**power == expansion


def test_square_schur_class_swap_symmetry():
    # the 2x2 determinant takes the same value on the pair's two sequences
    rng = random.Random(8)
    p5 = projective_space(5)
    for _ in range(10):
        pair = split_pair(
            p5,
            [rng.randint(-2, 2) for _ in range(3)],
            [rng.randint(-2, 2) for _ in range(3)],
        )
        assert schur((2, 2), pair.schur_seq) == schur((2, 2), pair.chern_diff)


def split_sequences(space, e_rows, f_rows):
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, e_rows),
        BundleSpec.sum_of_line_bundles(space, f_rows),
    )
    return pair.schur_seq, pair.chern_diff


def random_sequences(space):
    seq = random_sequence(random.Random(9), space)
    return seq, s_from_c(seq)


# (h, e) pairs: a split pair's two sequences, or a random unit-headed
# sequence and its transform; the products carry multi-monomial classes.
DUAL_CASES = {
    "p9-dense": lambda: split_sequences(projective_space(9), [[0]] * 3, [[1]] * 3),
    "p9-mixed": lambda: split_sequences(
        projective_space(9), [[-1], [0], [2], [0]], [[1], [3], [0], [2]]
    ),
    "p9-random": lambda: random_sequences(projective_space(9)),
    "p2xp3-split": lambda: split_sequences(
        product_of_projective_spaces([2, 3]),
        [[0, 0], [-1, 0], [0, -1]],
        [[1, 2], [2, 1], [1, 1]],
    ),
    "p2xp3-random": lambda: random_sequences(product_of_projective_spaces([2, 3])),
    "p1^5-split": lambda: split_sequences(
        product_of_projective_spaces([1] * 5),
        [[0] * 5] * 3,
        [[1] * 5, [1, 0, 1, 0, 1], [0, 1, 1, 1, 0]],
    ),
    "p1^5-random": lambda: random_sequences(product_of_projective_spaces([1] * 5)),
}


@pytest.mark.parametrize("case", DUAL_CASES)
def test_dual_jacobi_trudi_and_hook_closed_form(case):
    h, e = DUAL_CASES[case]()
    for weight in range(10):
        hooks = h[0].ambient.zero()  # sum_b C(w-1, b) s_(w-b, 1^b), cofactor side
        for lam in partitions_of(weight):
            expected = schur(lam, h)
            assert schur(conjugate(lam), e) == expected, lam
            if lam and lam[1:] == (1,) * (len(lam) - 1):
                hooks = hooks + comb(weight - 1, len(lam) - 1) * expected
        if weight:
            assert hook_sum(weight, h, e) == hooks, weight
        if weight >= 2:
            space = hooks.ambient
            for t in (space.tangent_chern, space.one()):
                paired = space.integrate(hooks * t)
                assert hook_pairing(weight, h, e, t) == paired, weight


def test_hook_sum_makes_no_kernel_call_for_a_zero_class(monkeypatch):
    # on P^14 with E = O^3 the dual sequence c(F)/c(E) = (1+h)^3 ends in
    # degree 3, so only the products h[a] e[w-a] with w-a <= 3 are made
    space = projective_space(14)
    pair = split_pair(space, [0, 0, 0], [1, 1, 1])
    h, e = pair.schur_seq, pair.chern_diff
    assert [k for k, x in enumerate(e) if not x.is_zero()] == [0, 1, 2, 3]
    calls = []
    original = schur_module.sum_of_products

    def counted(space, products):
        products = list(products)
        for _, x, y in products:
            assert not x.is_zero() and not y.is_zero()
            calls.append(1)
        return original(space, products)

    monkeypatch.setattr(schur_module, "sum_of_products", counted)
    for weight in range(2, 15):
        before = len(calls)
        expected = sum(
            comb(weight - 2, a - 1) * h[a] * e[weight - a] for a in range(1, weight)
        )
        assert hook_sum(weight, h, e) == expected
        assert len(calls) - before == min(weight - 1, 3)
    assert len(calls) == 36  # of the 91 products over weights 2..14
