import itertools
import random
import re
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcalc import chow
from detcalc.bundles import BundleSpec
from detcalc.chow import (
    ChowClass,
    _accumulate_terms,
    _finish,
    _pair,
    _pair3,
    block_space,
    product_of_projective_spaces,
    proj_bundle,
    projective_space,
    sum_of_products,
)
from detcalc.invariants import Instance
from detcalc.verify import _random_rows
from oracles import (
    degrees,
    from_exponents,
    integer,
    monomials_of_degree,
    naive_multiply,
    series,
    series_inv,
    series_mul,
    unit_inverse,
)


def random_class(rng, space, max_degree=None):
    if max_degree is None:
        max_degree = space.dim
    terms = {}
    for degree in range(max_degree + 1):
        for exp in monomials_of_degree(space, degree):
            if rng.random() < 0.5:
                terms[exp] = rng.randint(-5, 5)
    return from_exponents(space, terms)


def test_projective_space_tangent():
    line = projective_space(1)
    assert line.tangent_chern == line.one() + 2 * line.generator(0)
    p4 = projective_space(4)
    h = p4.generator(0)
    assert p4.tangent_chern.parts()[1] == 5 * h
    assert p4.tangent_chern.parts()[2] == 10 * h**2


@pytest.mark.parametrize(
    "dims", [[1], [7], [1, 2, 1], [1] * 6],
    ids=["P^1", "P^7", "P^1xP^2xP^1", "(P^1)^6"],
)
def test_closed_form_tangent_class_against_ring_products(dims):
    # c(T) is not built with the space; read, it is prod_i (1 + h_i)^(d_i + 1)
    # by ring products and by the naive reference, and it is built once
    space = product_of_projective_spaces(dims)
    assert space._tangent is None
    expected = space.one()
    for i, d in enumerate(dims):
        expected = expected * (space.one() + space.generator(i)) ** (d + 1)
    assert space.tangent_chern == expected
    n, naive = len(dims), {(0,) * len(dims): 1}
    for i, d in enumerate(dims):
        factor = {(0,) * n: 1, tuple(int(j == i) for j in range(n)): 1}
        for _ in range(d + 1):
            naive = naive_multiply(naive, factor, dims)
    assert space.tangent_chern == from_exponents(space, naive)
    assert space.tangent_chern is space.tangent_chern
    euler = 1
    for d in dims:
        euler *= d + 1
    assert space.integrate(space.tangent_chern) == euler



@st.composite
def bundle_cases(draw):
    """A base, P^1..P^6, a product of distinct factors or a block ring, and
    the degree rows, one per generator of the base, of a fiber of rank 2..5
    whose rows may repeat, be zero or be negative."""
    kind = draw(st.sampled_from(["projective", "product", "blocks"]))
    if kind == "projective":
        space = projective_space(draw(st.integers(1, 6)))
    elif kind == "product":
        space = product_of_projective_spaces(
            draw(st.lists(st.integers(1, 3), min_size=2, max_size=3, unique=True))
        )
    else:
        columns = draw(st.lists(st.integers(0, 1), min_size=2, max_size=5))
        space = block_space([1] * len(columns), columns)[0]
    width = len(space.caps)
    row = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=3)) + [[0] * width]
    rank = draw(st.integers(2, 5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=rank, max_size=rank))
    return space, rows


@settings(max_examples=60, deadline=None)
@given(bundle_cases())
def test_bundle_tangent_class_against_ring_products(case):
    # proj_bundle builds c(T) from the parts of c(F dual) with no product on
    # the bundle ring; the ring's products give pi^* c(T_B) prod (1 + xi + y)
    # over the roots y of F dual
    base, rows = case
    fiber = BundleSpec.sum_of_line_bundles(base, rows)
    bundle = proj_bundle(base, fiber)
    assert bundle._reduced == {}
    xi = bundle.fiber_class()
    expected = bundle.pullback(base.tangent_chern)
    for y in fiber.dual().roots:
        expected = expected * (bundle.one() + xi + bundle.pullback(y))
    assert bundle.tangent_chern == expected


def _times(a, b, scale, out):
    """Add ``scale a b`` into ``out``, polynomials in c_1, c_2, ... that map
    the sorted indices of each monomial to its coefficient."""
    for m, x in a.items():
        for n, y in b.items():
            key = tuple(sorted(m + n))
            out[key] = out.get(key, 0) + scale * x * y


@cache
def todd(d):
    """The degree-d Todd polynomial in c_1..c_d, ``exp(sum_k g_k p_k)``: the
    ``g_k`` are the coefficients of ``log q`` for ``q = x / (1 - e^-x)``, and
    the power sums ``p_k`` of the Chern roots come from Newton's identities,
    ``p_k = sum_(i<k) (-1)^(i-1) c_i p_(k-i) + (-1)^(k-1) k c_k``.  The
    logarithm and the exponential both read ``k f_k = sum_(j<=k) j g_j
    f_(k-j)`` for ``f = exp(sum_j g_j x^j)``."""
    q = series_inv([Fraction((-1) ** k, factorial(k + 1)) for k in range(d + 1)], d)
    g, p, td = [0], [{}], [{(): Fraction(1)}]
    for k in range(1, d + 1):
        g.append(q[k] - sum(Fraction(j, k) * g[j] * q[k - j] for j in range(1, k)))
        p.append({(k,): (-1) ** (k - 1) * k})
        for i in range(1, k):
            _times({(i,): 1}, p[k - i], (-1) ** (i - 1), p[k])
        td.append({})
        for j in range(1, k + 1):
            _times(p[j], td[k - j], Fraction(j, k) * g[j], td[k])
    return td[d]


def todd_integral(space):
    """``integrate(td(T))``: the Fraction coefficients of :func:`todd` times
    the ``int`` integrals of products of parts of ``c(T)``."""
    c = space.tangent_chern.parts()
    return sum(
        coeff * space.integrate(prod((c[i] for i in m), start=space.one()))
        for m, coeff in todd(space.dim).items()
    )


def test_todd_class_integrates_to_one():
    # chi(O) = 1 (Hirzebruch-Riemann-Roch) on P^2..P^6 and P^8, six products,
    # three block rings and P(F) with a relation over P^4, P^2 x P^2,
    # P^1 x P^1 x P^2 and a block ring: a check of c(T) that reads none of
    # the formulas that build it
    products = [[1, 1], [1, 2], [2, 2], [1] * 4, [1, 3], [2, 3]]
    blocks = [
        block_space(dims, columns)[0]
        for dims, columns in [([1] * 4, [0] * 4), ([1] * 5, [0] * 5),
                              ([1, 1, 1, 1, 2], [0, 0, 1, 1, 2])]
    ]
    fibers = [
        (projective_space(4), [[0], [1], [2]]),
        (product_of_projective_spaces([2, 2]), [[0, 1], [1, 1]]),
        (product_of_projective_spaces([1, 1, 2]), [[1, 0, 1], [0, 1, 2]]),
        (blocks[0], [[1], [2]]),
    ]
    spaces = [
        *map(projective_space, [2, 3, 4, 5, 6, 8]),
        *map(product_of_projective_spaces, products),
        *blocks,
        *(proj_bundle(b, BundleSpec.sum_of_line_bundles(b, r)) for b, r in fibers),
    ]
    assert [todd_integral(space) for space in spaces] == [1] * 19


def test_todd_integral_fails_on_a_wrong_tangent_binomial(monkeypatch):
    # c(T) is cached per space, so both spaces are built inside the patch
    monkeypatch.setattr(chow, "comb", lambda n, k: comb(n, k) + (k == 2))
    p4 = projective_space(4)
    bundle = proj_bundle(p4, BundleSpec.sum_of_line_bundles(p4, [[0], [1], [2]]))
    assert todd_integral(p4) != 1 and todd_integral(bundle) != 1


CLI_AMBIENTS = ([4], [5], [1, 3], [2, 2], [1, 1, 2], [1, 1, 1, 1])


def drawn_instances():
    """Instances of the shapes ``detcalc verify`` draws: P^4 and P^5, rank 2
    to 4, E rows in -2..1 and F rows in 0..2, half of them Calabi-Yau; then
    the same rows at rank 2 to 5 on the benchmark's six CLI ambients."""
    rng = random.Random(31)
    for trial in range(20):
        dim, calabi_yau = 4 + trial % 2, trial % 4 < 2
        rows = _random_rows(rng, dim, rng.randint(2, 4), calabi_yau)
        yield Instance.from_rows([dim], *rows)
    for trial in range(24):
        dims, rank = CLI_AMBIENTS[trial % 6], 2 + trial % 4
        E = [[rng.randint(-2, 1) for _ in dims] for _ in range(rank)]
        F = [[rng.randint(0, 2) for _ in dims] for _ in range(rank)]
        yield Instance.from_rows(dims, E, F)


def test_todd_class_integrates_to_one_on_drawn_instances():
    # chi(O) = 1 on the base and the resolution's bundle of each instance,
    # the rings a report builds and reads c(T) on
    spaces = [
        space
        for inst in drawn_instances()
        for space in (inst.ambient, inst.resolution.space)
    ]
    assert [todd_integral(space) for space in spaces] == [1] * len(spaces)


def degree_one_cases():
    """A product, a block ring, P(F) with a relation, and P(F) of a trivial F."""
    p2 = projective_space(2)
    return {
        "product": product_of_projective_spaces([2, 3, 1]),
        "blocks": block_space([1, 2, 1, 1], [0, 1, 0, 0])[0],
        "relation": proj_bundle(p2, BundleSpec.sum_of_line_bundles(p2, [[1], [2]])),
        "trivial": proj_bundle(p2, BundleSpec.sum_of_line_bundles(p2, [[0], [0]])),
    }


@pytest.mark.parametrize("name", list(degree_one_cases()))
def test_degree_one_is_the_sum_of_the_generators(name):
    space = degree_one_cases()[name]
    rng = random.Random(name)
    rows = [[0] * len(space.gens), [1] * len(space.gens)]
    rows += [[rng.randint(-3, 3) for _ in space.gens] for _ in range(6)]
    for row in rows:
        generators = (q * space.generator(i) for i, q in enumerate(row))
        assert space.degree_one(row) == sum(generators, space.zero())


def test_projective_space_truncation_and_integration():
    p4 = projective_space(4)
    h = p4.generator(0)
    assert (h**5).is_zero()
    assert p4.integrate(h**4) == 1
    assert p4.integrate(h**3) == 0
    assert p4.integrate(46 * h**4) == 46


def test_product_integration():
    pp = product_of_projective_spaces([4, 3])
    h1, h2 = pp.generator(0), pp.generator(1)
    assert pp.integrate(h1**4 * h2**3) == 1
    assert pp.integrate(h1**3 * h2**3) == 0
    assert (h2**4).is_zero()
    small = product_of_projective_spaces([1, 1])
    assert small.tangent_chern.parts()[1] == small.degree_one([2, 2])


@pytest.mark.parametrize(
    "build, size, bad",
    [
        (projective_space, 4.7, "4.7"),
        (projective_space, "4", "'4'"),
        (product_of_projective_spaces, [4.0], "4.0"),
        (product_of_projective_spaces, ["4"], "'4'"),
        (product_of_projective_spaces, [True, 3.9], "True"),
    ],
    ids=["float", "str", "float_factor", "str_factor", "bool_factor"],
)
def test_spaces_refuse_dimensions_that_are_not_integers(build, size, bad):
    # a float or a string was truncated or converted before, and True read as 1
    with pytest.raises(TypeError, match=f"got {re.escape(bad)}$"):
        build(size)


def test_single_factor_product_is_projective_space():
    single = product_of_projective_spaces([4])
    assert repr(single) == "P^4"
    assert single.gens == ("h",)


def test_ring_axioms_on_random_classes():
    rng = random.Random(7)
    for space in (projective_space(5), product_of_projective_spaces([2, 3])):
        for _ in range(10):
            a, b, c = (random_class(rng, space) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * space.one() == a
            assert (a - a).is_zero()


def test_part_and_homogeneity():
    p4 = projective_space(4)
    h = p4.generator(0)
    x = p4.scalar(3) + h + 2 * h**2
    assert x.parts()[1] == h
    assert degrees(x) == {0, 1, 2}
    assert degrees(h**2) == {2}
    assert degrees(p4.zero()) == set()


def test_parts_split_every_degree_in_one_pass():
    rng = random.Random(8)
    space = product_of_projective_spaces([2, 3])
    x = random_class(rng, space)
    # the homogeneous components are unique: each part has its degree, and
    # together they give back the class
    parts = x.parts()
    assert len(parts) == space.dim + 1
    assert all(degrees(part) <= {k} for k, part in enumerate(parts))
    assert sum(parts, space.zero()) == x
    assert x.parts(2) == parts[:3]


PAIRING_CASES = [[1], [5], [2, 3], [1, 1, 2], [1] * 5] + [
    "P(O^3) over P^2xP^1",
    "P(L^2 (x) L^-1) over (P^1)^3",
]


def pairing_space(case):
    """A base from its dims, or a bundle space whose relation is zero:
    P(O^3) over P^2 x P^1, or P(F (x) L^-1) over (P^1)^3 with F = L^2,
    L = O(1, 2, 1)."""
    if isinstance(case, list):
        return product_of_projective_spaces(case)
    if case == "P(O^3) over P^2xP^1":
        base = product_of_projective_spaces([2, 1])
        space = proj_bundle(base, BundleSpec.sum_of_line_bundles(base, [[0, 0]] * 3))
    else:
        base = product_of_projective_spaces([1, 1, 1])
        uniform = BundleSpec.sum_of_line_bundles(base, [[1, 2, 1]] * 2)
        space = proj_bundle(base, uniform.twist(-uniform.roots[0]))
    assert not space.has_relation
    return space


@pytest.mark.parametrize("case", PAIRING_CASES, ids=str)
def test_pairing_kernel_is_integral_of_product(case):
    rng = random.Random(sum(case) if isinstance(case, list) else 0)
    space = pairing_space(case)
    for _ in range(10):
        x, y = random_class(rng, space), random_class(rng, space)
        assert _pair(x, y) == space.integrate(x * y)
    tangent = space.tangent_chern
    assert _pair(tangent, space.one()) == space.integrate(tangent)


@pytest.mark.parametrize("case", PAIRING_CASES, ids=str)
def test_triple_pairing_kernel_is_integral_of_product(case):
    rng = random.Random(100 + (sum(case) if isinstance(case, list) else 0))
    space = pairing_space(case)
    for _ in range(10):
        x, y, z = (random_class(rng, space) for _ in range(3))
        expected = space.integrate(x * y * z)
        for args in itertools.permutations((x, y, z)):
            assert _pair3(*args) == expected
    tangent, one = space.tangent_chern, space.one()
    assert _pair3(tangent, one, one) == space.integrate(tangent)
    assert _pair3(tangent, space.zero(), one) == 0


def test_triple_pairing_kernel_refuses_bundles_and_foreign_classes():
    # a bundle whose relation is not zero; a relation-free one is paired
    p2 = projective_space(2)
    bundle = proj_bundle(p2, BundleSpec.sum_of_line_bundles(p2, [[0], [1]]))
    xi = bundle.fiber_class()
    with pytest.raises(ValueError):
        _pair3(xi, xi, bundle.one())
    other = projective_space(2).one()
    for args in itertools.permutations((p2.one(), p2.one(), other)):
        with pytest.raises(ValueError):
            _pair3(*args)


RELATION_CASES = [
    "P(O + O(1)) over P^2",
    "P(O(1)^2 + O(2)) over P^4",
    "P(O(-1) + O + O(2)) over the (P^1)^4 block ring",
]


def relation_space(case):
    """A bundle whose relation is not zero, built by ``proj_bundle`` with no
    twist: over P^2, over P^4, or over the block ring of (P^1)^4, one
    divided generator, with distinct rows."""
    if case == "P(O + O(1)) over P^2":
        base, rows = projective_space(2), [[0], [1]]
    elif case == "P(O(1)^2 + O(2)) over P^4":
        base, rows = projective_space(4), [[1], [1], [2]]
    else:
        base, rows = block_space([1] * 4, [0] * 4)[0], [[-1], [0], [2]]
    space = proj_bundle(base, BundleSpec.sum_of_line_bundles(base, rows))
    assert space.has_relation
    return space


@pytest.mark.parametrize("case", RELATION_CASES)
def test_pairing_kernel_integrates_a_product_on_bundles_with_a_relation(case):
    # _pair is the one integral of a product: on a bundle with a relation it
    # forms x * y, and it satisfies the projection formula with the base
    rng = random.Random(RELATION_CASES.index(case))
    space = relation_space(case)
    for _ in range(10):
        x, y = random_class(rng, space), random_class(rng, space)
        assert _pair(x, y) == space.integrate(x * y)
        a = random_class(rng, space.base)
        assert _pair(space.pullback(a), y) == _pair(a, space.pushforward(y))


def test_pairing_kernel_refuses_foreign_classes():
    # on a bundle whose relation is not zero the pairing is the integral of
    # the product; classes of two spaces are refused
    p2 = projective_space(2)
    bundle = proj_bundle(p2, BundleSpec.sum_of_line_bundles(p2, [[0], [1]]))
    xi = bundle.fiber_class()
    assert _pair(xi, xi**2) == bundle.integrate(xi**3) != 0
    with pytest.raises(ValueError):
        _pair(p2.one(), projective_space(2).one())


def test_classes_come_from_their_space_and_add_only_classes():
    # a class is made by its space and the ring operations: +, - and ==
    # take a class of the same space, * a class or an int
    p4 = projective_space(4)
    h, one = p4.generator(0), p4.one()
    for combine in (lambda: h + 1, lambda: 1 + h, lambda: h - 1, lambda: 1 - h):
        with pytest.raises(TypeError):
            combine()
    assert (p4.zero() == 0) is False and (one == 1) is False
    assert 2 * h == h * 2 == h + h
    assert h + one == one + h and repr(h + one) == "1 + h"
    with pytest.raises(TypeError):
        ChowClass(p4, {(1,): 1})
    with pytest.raises(TypeError):
        h * 1.0
    with pytest.raises(TypeError):
        p4.scalar(True)


def test_classes_on_different_spaces_do_not_mix():
    a = projective_space(4).generator(0)
    b = projective_space(4).generator(0)
    with pytest.raises(ValueError):
        a + b


# -- projective bundles ------------------------------------------------------


def test_proj_bundle_refuses_a_fiber_of_rank_below_2():
    # a rank-one fiber would give a fiber class outside normal form
    p4 = projective_space(4)
    for a in (-2, 0, 3):
        with pytest.raises(ValueError, match="fiber bundle must have rank at least 2"):
            proj_bundle(p4, BundleSpec.sum_of_line_bundles(p4, [[a]]))


def test_trivial_bundle_gives_product_ring():
    p4 = projective_space(4)
    F = BundleSpec.sum_of_line_bundles(p4, [[0]] * 4)
    bundle = proj_bundle(p4, F)
    assert bundle.dim == 7
    xi = bundle.fiber_class()
    assert (xi**4).is_zero()
    assert not (xi**3).is_zero()
    h = bundle.pullback(p4.generator(0))
    assert bundle.integrate(h**4 * xi**3) == 1
    # tangent class matches the product of projective spaces
    one = bundle.one()
    assert bundle.tangent_chern == (one + h) ** 5 * (one + xi) ** 4


def test_pushforward_segre_law_against_series_oracle():
    # pushing down xi^(r-1+m) must produce the m-th coefficient of 1/c(F dual)
    p4 = projective_space(4)
    h = p4.generator(0)
    rng = random.Random(3)
    for _ in range(6):
        degrees = [[rng.randint(-2, 2)] for _ in range(rng.randint(2, 4))]
        F = BundleSpec.sum_of_line_bundles(p4, degrees)
        bundle = proj_bundle(p4, F)
        xi = bundle.fiber_class()
        cap = 4
        dual = series([1], cap)
        for (a,) in degrees:
            dual = series_mul(dual, series([1, -a], cap), cap)
        segre = series_inv(dual, cap)
        for m in range(cap + 1):
            pushed = bundle.pushforward(xi ** (F.rank - 1 + m))
            assert pushed == integer(segre[m]) * h**m
        for e in range(F.rank - 1):
            assert bundle.pushforward(xi**e).is_zero()


def test_trivial_bundle_pushforward_vanishes_above_fiber_top():
    p4 = projective_space(4)
    bundle = proj_bundle(p4, BundleSpec.sum_of_line_bundles(p4, [[0]] * 4))
    xi = bundle.fiber_class()
    assert bundle.pushforward(xi**3) == p4.one()
    for m in range(1, 4):
        assert bundle.pushforward(xi ** (3 + m)).is_zero()


def test_projection_formula_and_integral_compatibility():
    rng = random.Random(5)
    p3 = projective_space(3)
    F = BundleSpec.sum_of_line_bundles(p3, [[1], [0], [-1]])
    bundle = proj_bundle(p3, F)
    for _ in range(8):
        x = random_class(rng, bundle)
        y = random_class(rng, p3)
        assert bundle.pushforward(x * bundle.pullback(y)) == bundle.pushforward(x) * y
        assert p3.integrate(bundle.pushforward(x)) == bundle.integrate(x)


def test_proj_bundle_rejects_bad_input():
    p4 = projective_space(4)
    other = projective_space(3)
    with pytest.raises(ValueError):
        proj_bundle(other, BundleSpec.sum_of_line_bundles(p4, [[1]]))
    with pytest.raises(ValueError):
        p4.pushforward(p4.generator(0))
    # P(O + O(1)) over P^1 carries xi^2 = h*xi, which a bundle over it
    # would drop: the pullback of xi squares to 0, not to h*xi
    p1 = projective_space(1)
    surface = proj_bundle(p1, BundleSpec.sum_of_line_bundles(p1, [[0], [1]]))
    xi, h = surface.fiber_class(), surface.pullback(p1.generator(0))
    assert xi**2 == h * xi
    with pytest.raises(ValueError, match="projective bundle"):
        proj_bundle(surface, BundleSpec.sum_of_line_bundles(surface, [[0, 0]] * 2))


def test_integrate_rejects_foreign_classes():
    p4 = projective_space(4)
    p3 = projective_space(3)
    with pytest.raises(ValueError):
        p4.integrate(p3.one())


# -- integer core against the naive reference ----------------------------------


def random_terms(rng, space):
    terms = {}
    for degree in range(space.dim + 1):
        for exp in monomials_of_degree(space, degree):
            if rng.random() < 0.5:
                terms[exp] = rng.randint(-5, 5)
    return terms


def split_dual_relation(base_caps, degree_rows):
    """The rewrite of ``xi^r`` on the bundle of quotients of a split bundle,
    built from the docstring convention ``sum_i c_i(F dual) xi^(r-i) = 0``."""
    n, r = len(base_caps), len(degree_rows)
    dual = {(0,) * n: 1}
    for row in degree_rows:
        factor = {(0,) * n: 1}
        for i, a in enumerate(row):
            if a:
                factor[tuple(int(j == i) for j in range(n))] = -a
        dual = naive_multiply(dual, factor, base_caps)
    return {e + (r - sum(e),): -c for e, c in dual.items() if sum(e) >= 1}


def naive_reference_cases():
    """Three spaces with no relation and five projective bundles, with the
    relation the naive reference needs for each.  The bundles cover mixed
    and negative degree rows, a base of four fields, a fiber rank above the
    base dimension, and a trivial bundle, whose relation is zero."""
    cases = [
        (projective_space(5), {}),
        (product_of_projective_spaces([2, 3]), {}),
        (product_of_projective_spaces([1, 1, 1, 1]), {}),
    ]
    for dims, rows in [
        ([2, 2], [[1, 0], [0, 1], [1, 1]]),
        ([1, 1, 1, 1], [[1, 0, -1, 2], [0, 1, 1, 0], [-1, 2, 0, 1]]),
        ([4], [[1], [2], [0], [-1]]),
        ([2, 3], [[2, 1], [-1, -2]]),
        ([3], [[0], [0], [0]]),
    ]:
        base = product_of_projective_spaces(dims)
        bundle = proj_bundle(base, BundleSpec.sum_of_line_bundles(base, rows))
        cases.append((bundle, {len(dims): split_dual_relation(base.caps, rows)}))
    return cases


def test_multiply_matches_naive_reference():
    rng = random.Random(13)
    for space, relations in naive_reference_cases():
        for _ in range(12):
            a, b = random_terms(rng, space), random_terms(rng, space)
            expected = naive_multiply(a, b, space.caps, relations)
            product = from_exponents(space, a) * from_exponents(space, b)
            assert product == from_exponents(space, expected)
            assert len(product.terms) == len(expected)


def test_accumulate_kernel_matches_naive_reference():
    rng = random.Random(17)
    for space, relations in naive_reference_cases():
        one = space.one()
        for _ in range(8):
            a, b, held = (random_terms(rng, space) for _ in range(3))
            x, y = from_exponents(space, a), from_exponents(space, b)
            scale = rng.choice([-3, -1, 2, 7])
            product = naive_multiply(a, b, space.caps, relations)
            # after a product that already put terms in the accumulator
            held_x1 = (1, from_exponents(space, held), one)
            result = sum_of_products(space, [held_x1, (scale, x, y)])
            expected = dict(held)
            for e, c in product.items():
                expected[e] = expected.get(e, 0) + scale * c
            expected = {e: c for e, c in expected.items() if c}
            assert result == from_exponents(space, expected)
            assert len(result.terms) == len(expected)
            # the same sum, cancelled exactly to zero by its negative
            negated = -scale * from_exponents(space, product)
            cancelled = sum_of_products(space, [(1, negated, one), (scale, x, y)])
            assert cancelled.terms == {}
            # a product and its negative leave the held terms alone
            result = sum_of_products(space, [held_x1, (scale, x, y), (-scale, y, x)])
            assert result.terms == from_exponents(space, held).terms
        # the empty sum is the zero class, and a class from another space
        # is refused wherever it stands
        assert sum_of_products(space, []) == space.zero()
        foreign = projective_space(space.dim + 1).one()
        for bad in [(1, foreign, one), (1, one, foreign), (1, foreign, foreign)]:
            with pytest.raises(ValueError, match="different ambient spaces"):
                sum_of_products(space, [(1, one, one), bad])


def test_finish_adopts_the_accumulator():
    # the kernel's term map becomes the class's own, without a copy, unless
    # zero coefficients have to go
    space = product_of_projective_spaces([1, 2])
    one, h1, h2 = space.one(), space.generator(0), space.generator(1)
    out = dict((one + h2).terms)
    _accumulate_terms(space, out, h1.terms, (one - h2).terms)
    assert 0 not in out.values()
    result = _finish(space, out)
    assert result.terms is out
    assert result == one + h1 + h2 - h1 * h2
    # 1 + h2 - h2 leaves a zero coefficient, which the finished class drops
    out = dict((one + h2).terms)
    _accumulate_terms(space, out, h2.terms, one.terms, -1)
    assert 0 in out.values()
    result = _finish(space, out)
    assert result.terms == one.terms


class _Scans(tuple):
    """A relation that records, on each scan, the code being reduced."""

    def __iter__(self):
        self.log.append(self.stack[-1])
        return super().__iter__()


def _count_relation_scans(space):
    """Empty the reduction cache of ``space`` and log, from now on, the code
    whose reduction scans the relation."""
    space._reduced.clear()
    scans = _Scans(space._relation)
    scans.log, scans.stack = [], []
    reduce = space._reduce

    def logged(raw):
        scans.stack.append(raw)
        try:
            return reduce(raw)
        finally:
            scans.stack.pop()

    space._relation, space._reduce = scans, logged
    return scans.log


def test_only_pure_fiber_powers_read_the_relation():
    # every other cache entry is a cached one shifted by a base monomial
    rng = random.Random(19)
    for bundle, relations in naive_reference_cases():
        if not bundle._relation:
            continue
        log = _count_relation_scans(bundle)
        for _ in range(4):
            a, b = random_terms(rng, bundle), random_terms(rng, bundle)
            expected = naive_multiply(a, b, bundle.caps, relations)
            product = from_exponents(bundle, a) * from_exponents(bundle, b)
            assert product == from_exponents(bundle, expected)
        shift = bundle._shifts[-1]
        pure = [raw for raw in bundle._reduced if raw == raw >> shift << shift]
        assert len(bundle._reduced) > len(pure) > 0
        assert sorted(log) == sorted(pure)  # each pure fiber power scans once


def test_trivial_bundle_truncates_its_fiber_class():
    # c(F dual) = 1 leaves xi^r = 0 a truncation: no reduction is cached
    p4 = projective_space(4)
    bundle = proj_bundle(p4, BundleSpec.sum_of_line_bundles(p4, [[0]] * 3))
    xi, h = bundle.fiber_class(), bundle.pullback(p4.generator(0))
    one = bundle.one()
    assert bundle.tangent_chern == (one + h) ** 5 * (one + xi) ** 3
    assert (xi**3).is_zero() and (h * xi**2 * xi**2).is_zero()
    assert bundle.integrate(h**4 * xi**2) == 1
    assert bundle._reduced == {}


def test_rank_thirty_bundle_reduces_every_fiber_power():
    # pushing xi^(r-1+m) down gives the m-th part of 1/c(F dual), which is
    # zero past the base dimension; the reduction recurses field by field
    # and fiber power by fiber power, within the default recursion limit
    base = product_of_projective_spaces([1, 1, 1, 1])
    rng = random.Random(30)
    rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(30)]
    F = BundleSpec.sum_of_line_bundles(base, rows)
    bundle = proj_bundle(base, F)
    segre = unit_inverse(F.dual().total_chern()).parts(29)
    xi = bundle.fiber_class()
    top = xi**29
    assert bundle.pushforward(top) == base.one()
    power = top
    for m in range(1, 30):
        power = power * xi
        assert bundle.pushforward(power) == segre[m], m
    # from an empty cache, xi^58 reduces through every lower fiber power
    bundle._reduced.clear()
    assert (top * top).is_zero()  # degree 58 exceeds the dimension, 33
    assert bundle.pushforward(top * xi**4) == segre[4]


def test_non_integral_coefficients_are_refused():
    p4 = projective_space(4)
    h = p4.generator(0)
    # coefficients are plain ints: a Fraction is refused even when integral,
    # and a bool, which would read as 0 or 1
    for bad in (Fraction(1, 2), Fraction(4, 2), 2.0, True, False):
        with pytest.raises(TypeError):
            p4.scalar(bad)
        with pytest.raises(TypeError):
            p4.degree_one([bad])
        with pytest.raises(TypeError):
            h * bad
        with pytest.raises(TypeError):
            bad * h
        with pytest.raises(TypeError):
            h + bad


def test_large_caps():
    p40 = projective_space(40)
    h = p40.generator(0)
    assert p40.integrate(h**40) == 1
    assert (h**41).is_zero()
    assert (h**20 * h**21).is_zero()
    assert p40.integrate(p40.tangent_chern) == 41

    p12 = projective_space(12)
    h = p12.generator(0)
    trivial = proj_bundle(p12, BundleSpec.sum_of_line_bundles(p12, [[0]] * 5))
    xi = trivial.fiber_class()
    pulled = trivial.pullback(h)
    assert (xi**5).is_zero()
    assert not (xi**4).is_zero()
    assert trivial.integrate(pulled**12 * xi**4) == 1
    one = trivial.one()
    assert trivial.tangent_chern == (one + pulled) ** 13 * (one + xi) ** 5

    degrees = [[2], [-1], [1], [0], [3]]
    bundle = proj_bundle(p12, BundleSpec.sum_of_line_bundles(p12, degrees))
    xi = bundle.fiber_class()
    dual = series([1], 12)
    for (a,) in degrees:
        dual = series_mul(dual, series([1, -a], 12), 12)
    segre = series_inv(dual, 12)
    for m in range(13):
        assert bundle.pushforward(xi ** (4 + m)) == integer(segre[m]) * h**m
