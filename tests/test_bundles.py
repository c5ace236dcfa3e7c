import random

import pytest

from detcalc import bundles, chow
from detcalc.bundles import BundleSpec, VirtualPair
from detcalc.chow import (
    block_space,
    divide_by_roots,
    product_of_projective_spaces,
    proj_bundle,
    projective_space,
)
from oracles import (
    from_exponents,
    integer,
    monomials_of_degree,
    series,
    series_inv,
    series_mul,
    twisted_virtual_chern,
    unit_inverse,
)


def split(space, degrees):
    return BundleSpec.sum_of_line_bundles(space, [[d] for d in degrees])


def naive_total_chern(space, roots, sign=1):
    """``prod (1 + sign * root)`` with the ring operators, one full product
    per root: an oracle independent of ``BundleSpec.total_chern``."""
    out = one = space.one()
    for root in roots:
        out = out * (one + sign * root)
    return out


def test_total_chern_examples():
    p4 = projective_space(4)
    h, one = p4.generator(0), p4.one()
    assert split(p4, [0, 0]).total_chern() == one
    assert split(p4, [-1, -1, -1, -2]).total_chern() == (one - h) ** 3 * (one - 2 * h)
    assert split(p4, [1, 3]).total_chern() == one + 4 * h + 3 * h**2


def test_dual_examples():
    p4 = projective_space(4)
    h, one = p4.generator(0), p4.one()
    assert split(p4, [3]).dual().total_chern() == one - 3 * h
    B = split(p4, [-1, -1, -1, -2])
    assert B.dual().total_chern() == (one + h) ** 3 * (one + 2 * h)
    assert B.dual().dual().total_chern() == B.total_chern()


def test_twist_examples():
    p4 = projective_space(4)
    h = p4.generator(0)
    B = split(p4, [1, -1])
    assert B.twist(p4.zero()).total_chern() == B.total_chern()
    assert B.twist(p4.zero()) is B  # O changes nothing
    line = split(p4, [2])
    assert line.twist(3 * h).total_chern().parts()[1] == 5 * h


def test_top_chern_of_twist_expansion():
    # c_r(B tensor L) must equal sum_i c_i(B) * ell^(r - i)
    rng = random.Random(12)
    p5 = projective_space(5)
    h = p5.generator(0)
    for _ in range(8):
        rank = rng.randint(1, 4)
        B = split(p5, [rng.randint(-2, 2) for _ in range(rank)])
        ell = rng.randint(-2, 2) * h
        chern = B.total_chern().parts()
        expansion = p5.zero()
        for i in range(rank + 1):
            expansion = expansion + chern[i] * ell ** (rank - i)
        assert B.twist(ell).total_chern().parts()[rank] == expansion


def test_virtual_chern_trivial_and_degree_one():
    p4 = projective_space(4)
    B = split(p4, [1, 2])
    same = VirtualPair(B, B)
    assert same.chern_diff[0] == p4.one()
    for k in range(1, 5):
        assert same.chern_diff[k].is_zero()
    pair = VirtualPair(split(p4, [0, -1]), split(p4, [1, 2]))
    assert pair.chern_diff[1] == pair.hypersurface_class


def test_dual_difference_sequence_against_series_oracle():
    # trivial E, F = O(2)^2: the sequence is 1/(1-2h)^2, coefficients (k+1)2^k
    p4 = projective_space(4)
    h = p4.generator(0)
    pair = VirtualPair(split(p4, [0, 0]), split(p4, [2, 2]))
    expected = series_inv(series_mul(series([1, -2], 4), series([1, -2], 4), 4), 4)
    for k in range(5):
        assert pair.schur_seq[k] == integer(expected[k]) * h**k
        assert expected[k] == (k + 1) * 2**k


def test_sign_rule_relating_the_two_sequences():
    # s_k = (-1)^k  x  degree-k part of c(E)/c(F)
    rng = random.Random(13)
    p5 = projective_space(5)
    for _ in range(8):
        rank = rng.randint(1, 4)
        E = split(p5, [rng.randint(-2, 2) for _ in range(rank)])
        F = split(p5, [rng.randint(-2, 2) for _ in range(rank)])
        pair = VirtualPair(E, F)
        reverse = VirtualPair(F, E).chern_diff
        for k in range(6):
            signed = reverse[k] if k % 2 == 0 else -reverse[k]
            assert pair.schur_seq[k] == signed


def test_forward_and_backward_virtual_classes_invert():
    rng = random.Random(14)
    p5 = projective_space(5)
    for _ in range(8):
        rank = rng.randint(1, 4)
        E = split(p5, [rng.randint(-2, 2) for _ in range(rank)])
        F = split(p5, [rng.randint(-2, 2) for _ in range(rank)])
        forward = VirtualPair(E, F).chern_diff
        backward = VirtualPair(F, E).chern_diff
        product = p5.zero()
        for k in range(6):
            for i in range(k + 1):
                product = product + forward[i] * backward[k - i]
        assert product == p5.one()


@pytest.mark.parametrize("dims", [[1] * 5, [2] * 3], ids=["(P^1)^5", "(P^2)^3"])
def test_sequences_on_products_against_the_inverse_route(dims):
    # a truncated inverse followed by one full product of explicit (1 + root)
    # products is the oracle; E is trivial in trials 0 and 2 mod 4, F in
    # trials 1 and 2 mod 4, and the other rows carry zero rows at random
    rng = random.Random(16)
    space = product_of_projective_spaces(dims)
    zero = [0] * len(dims)
    for trial in range(8):
        rank = rng.randint(2, 4)
        rows_e, rows_f = (
            [
                zero if rng.random() < 0.25 else [rng.randint(-3, 3) for _ in dims]
                for _ in range(rank)
            ]
            for _ in range(2)
        )
        if trial % 4 in (0, 2):
            rows_e = [zero] * rank
        if trial % 4 in (1, 2):
            rows_f = [zero] * rank
        assert trial % 4 == 2 or any(
            min(row) < 0 < max(row) for row in rows_e + rows_f
        )
        E = BundleSpec.sum_of_line_bundles(space, rows_e)
        F = BundleSpec.sum_of_line_bundles(space, rows_f)
        pair = VirtualPair(E, F)
        c_e, c_f = (naive_total_chern(space, B.roots) for B in (E, F))
        assert pair.chern_diff == (c_f * unit_inverse(c_e)).parts()
        dual_e, dual_f = (naive_total_chern(space, B.roots, -1) for B in (E, F))
        assert pair.schur_seq == (dual_e * unit_inverse(dual_f)).parts()


def random_parts(rng, space):
    terms = {}
    for degree in range(space.dim + 1):
        for exp in monomials_of_degree(space, degree):
            terms[exp] = rng.randint(-4, 4)
    return from_exponents(space, terms).parts()


@pytest.mark.parametrize("case", ["P(P^2xP^2)", "(P^1)^5", "blocks of (P^1)^5"])
def test_divide_by_roots_round_trip(case):
    rng = random.Random(19)
    if case == "(P^1)^5":
        space = product_of_projective_spaces([1] * 5)
        rows = [[1, -1, 2, 0, -3], [-2, 1, 0, 1, 1], [0, 3, -1, -1, 2]]
    elif case == "blocks of (P^1)^5":
        # divided generators e for the first two factors and e' for the
        # last three: roots constant on the blocks
        space, _ = block_space([1] * 5, [0, 0, 1, 1, 1])
        rows = [[1, -2], [-3, 1], [2, 2]]
    else:
        base = product_of_projective_spaces([2, 2])
        space = proj_bundle(
            base, BundleSpec.sum_of_line_bundles(base, [[1, 0], [0, 1], [1, 1]])
        )
        rows = [[1, -2, 1], [-1, 0, 2], [2, 1, -1]]  # the last entry is xi
    # zero roots (trivial summands) and a repeated root mixed in
    zero = [0] * len(rows[0])
    rows = [zero, rows[0], rows[1], zero, rows[0], rows[2], zero]
    roots = [space.degree_one(row) for row in rows]
    for _ in range(4):
        parts = random_parts(rng, space)
        held = [dict(part.terms) for part in parts]
        divided = divide_by_roots(parts, roots)
        # the division writes into copies: no input class changes
        assert [part.terms for part in parts] == held
        assert divided[0] is parts[0]
        quotient = sum(divided, space.zero())
        for root in roots:  # multiply back, one root at a time
            quotient = quotient * (space.one() + root)
        assert quotient.parts() == parts


@pytest.mark.parametrize("case", ["P^1xP^2", "P(P^1xP^2)"])
def test_total_chern_against_naive_product(case):
    rng = random.Random(21)
    base = product_of_projective_spaces([1, 2])
    space = base
    if case == "P(P^1xP^2)":
        fiber = BundleSpec.sum_of_line_bundles(base, [[1, 0], [0, 0], [1, 2]])
        space = proj_bundle(base, fiber)
    zero = [0] * len(space.gens)
    mixed = [1, -2] + [1] * (len(zero) - 2)
    fixed = [zero, mixed, zero, mixed, [-1] + [2] * (len(zero) - 1)]
    cases = [fixed] + [
        [
            zero if rng.random() < 0.3 else [rng.randint(-2, 2) for _ in zero]
            for _ in range(rng.randint(1, 5))
        ]
        for _ in range(6)
    ]
    for rows in cases:
        bundle = BundleSpec.sum_of_line_bundles(space, rows)
        expected = naive_total_chern(space, bundle.roots)
        assert bundle.total_chern() == expected
        assert bundle.dual().total_chern() == naive_total_chern(space, bundle.roots, -1)


def test_derived_bundles_keep_degree_one_roots_on_their_space():
    # dual, twist and a pullback of the roots build them from classes, not
    # from degree rows: each must still be a degree-one class on the bundle's
    # own space, the class of its row of coefficients
    base = product_of_projective_spaces([1, 2])
    B = BundleSpec.sum_of_line_bundles(base, [[1, -1], [0, 0], [2, 1]])
    space = proj_bundle(base, B)
    ell = base.degree_one([1, -2])
    pulled = BundleSpec(space, tuple(space.pullback(r) for r in B.roots))
    derived = [
        (B.dual(), base),
        (B.twist(ell), base),
        (B.twist(base.zero()), base),
        (pulled, space),
        (pulled.dual().twist(space.fiber_class()), space),
    ]
    for bundle, where in derived:
        assert bundle.ambient is where
        assert bundle.rank == B.rank
        for root in bundle.roots:
            assert root.ambient is where
        # coefficients refuses a root that is not of degree one
        rows = [where.coefficients(root) for root in bundle.roots]
        assert BundleSpec.sum_of_line_bundles(where, rows).roots == bundle.roots
    with pytest.raises(ValueError, match="degree one"):
        B.twist(ell * ell)
    with pytest.raises(ValueError, match="degree one"):
        B.twist(base.one() + ell)
    with pytest.raises(ValueError):
        B.twist(projective_space(3).generator(0))
    with pytest.raises(ValueError):
        B.twist(pulled.roots[0])
    # a zero class is O, but only on the bundle's own space
    for foreign in (projective_space(3).zero(), space.zero()):
        with pytest.raises(ValueError, match="different space"):
            B.twist(foreign)


def test_divide_by_roots_refuses_a_foreign_class():
    # the space is checked before zero roots are dropped, so a zero class
    # from another space is refused too
    p4, p5 = projective_space(4), projective_space(5)
    parts = (p4.one() + p4.generator(0)).parts()
    for roots in ([p5.zero()], [p4.zero(), p5.zero()], [p5.generator(0)]):
        with pytest.raises(ValueError, match="different ambient spaces"):
            divide_by_roots(parts, roots)


def test_trivial_summands_make_no_kernel_calls(monkeypatch):
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(args)
            kernel(*args)

        return wrapper

    space = product_of_projective_spaces([2, 2])
    parts = random_parts(random.Random(22), space)  # built by ring products
    monkeypatch.setattr(chow, "_accumulate_terms", counted(chow._accumulate_terms))
    zero = space.zero()
    quotient = divide_by_roots(parts, [zero, zero])
    assert quotient == parts and quotient is not parts
    assert all(q is p for q, p in zip(quotient, parts))
    trivial = BundleSpec.sum_of_line_bundles(space, [[0, 0]] * 3)
    assert trivial.total_chern() == space.one()
    assert calls == []
    # the counter does see the kernel when a summand is not trivial
    BundleSpec.sum_of_line_bundles(space, [[0, 0], [1, 0]]).total_chern()
    assert len(calls) == 1
    # and one call per division step by the one nontrivial root
    divide_by_roots(parts, [zero, space.degree_one([1, 0]), zero])
    assert len(calls) == 1 + len(parts) - 1


def test_twisted_virtual_chern_closed_form_against_direct():
    rng = random.Random(15)
    p5 = projective_space(5)
    h = p5.generator(0)
    for _ in range(10):
        rank = rng.randint(1, 4)
        E = split(p5, [rng.randint(-2, 2) for _ in range(rank)])
        F = split(p5, [rng.randint(-2, 2) for _ in range(rank)])
        pair = VirtualPair(E, F)
        ell = rng.randint(-2, 2) * h
        twisted = VirtualPair(E.twist(ell), F.twist(ell))
        for k in range(1, 6):
            assert twisted_virtual_chern(pair, ell, k) == twisted.chern_diff[k]


def test_twisted_virtual_chern_special_cases():
    p4 = projective_space(4)
    h = p4.generator(0)
    pair = VirtualPair(split(p4, [0, -1]), split(p4, [1, 2]))
    # degree one is twist-invariant; zero twist reproduces the plain classes
    assert twisted_virtual_chern(pair, 2 * h, 1) == pair.chern_diff[1]
    for k in range(1, 5):
        assert twisted_virtual_chern(pair, p4.zero(), k) == pair.chern_diff[k]


def test_hypersurface_class(monkeypatch):
    p4 = projective_space(4)
    h = p4.generator(0)
    pair = VirtualPair(split(p4, [-1, -1, -1, -2]), split(p4, [0, 0, 0, 0]))
    assert pair.hypersurface_class == 5 * h
    # D is built in one term map over the nonzero roots of F and of E
    calls = []
    original = bundles.sum_of_products
    monkeypatch.setattr(
        bundles, "sum_of_products", lambda *a: calls.append(a) or original(*a)
    )
    pair = VirtualPair(split(p4, [0, -1]), split(p4, [1, 2]))
    assert pair.hypersurface_class == 4 * h
    assert len(calls) == 1


def test_calabi_yau_on_a_projective_bundle_reads_its_tangent_class():
    # on P(O + O(1)) over P^3, c1(T) = 2 xi + 3 h, part 1 of the c(T) that
    # proj_bundle sets, not the 2 xi + 4 h that the caps of a product give
    p3 = projective_space(3)
    bundle = proj_bundle(p3, split(p3, [0, 1]))
    xi, h = bundle.fiber_class(), bundle.pullback(p3.generator(0))
    assert bundle.tangent_c1 == bundle.tangent_chern.parts(1)[1] == 2 * xi + 3 * h
    # c1(T) is part 1 of c(T) on every space; one with no base reads it from
    # the caps (2 e on a block), before its c(T) is built
    for space in (
        projective_space(5),
        product_of_projective_spaces([1, 3, 2, 1]),
        block_space([1, 2, 1, 1], [0, 1, 0, 2])[0],
    ):
        c1 = space.tangent_c1
        assert space._tangent is None
        assert c1 == space.tangent_chern.parts(1)[1]
    E = BundleSpec.sum_of_line_bundles(bundle, [[0, 0], [0, 0]])
    for a, calabi_yau in [(3, True), (4, False)]:
        F = BundleSpec.sum_of_line_bundles(bundle, [[0, 1], [a, 1]])
        pair = VirtualPair(E, F)
        assert pair.hypersurface_class == 2 * xi + a * h
        assert pair.calabi_yau is calabi_yau


def test_pair_requires_matching_ranks_and_space():
    p4 = projective_space(4)
    p3 = projective_space(3)
    with pytest.raises(ValueError):
        VirtualPair(split(p4, [1]), split(p4, [1, 2]))
    with pytest.raises(ValueError):
        VirtualPair(split(p4, [1]), split(p3, [1]))
