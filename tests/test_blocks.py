"""The block ring of repeated P^1 factors (``chow.block_space``) against the
monomial ring.

An instance whose roots and polarization are constant on a block of P^1
factors is built on the block ring.  With the block rule patched off where
the constructor reads it (``invariants._blocks`` giving every factor its
own generator) the same hand-built instance stays on the 2^n-monomial
ring, and every report field must be equal; so
must the reports of ``Instance.from_rows`` and of the command line's path,
which build the block ring straight from the rows' columns.
"""

import json
from dataclasses import asdict
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcalc import bundles, chow, cli, invariants
from detcalc.bundles import BundleSpec, VirtualPair
from detcalc.chow import (
    _pair,
    _pair3,
    block_space,
    product_of_projective_spaces,
    proj_bundle,
    projective_space,
)
from detcalc.invariants import GuardError, Instance, build_report
from oracles import unit_inverse
from tables import instance as config_instance

GOLDEN = Path(__file__).parent / "golden"


def library_inputs(dims, rows_e, rows_f, polarization):
    """The product space, pair and polarization a library caller passes."""
    space = product_of_projective_spaces(dims)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, rows_e),
        BundleSpec.sum_of_line_bundles(space, rows_f),
    )
    return space, pair, space.degree_one(polarization)


def library_instance(dims, rows_e, rows_f, polarization):
    return Instance(*library_inputs(dims, rows_e, rows_f, polarization))


def config(dims, rows_e, rows_f, polarization):
    kind = "projective_space" if len(dims) == 1 else "product"
    return cli.parse_config({
        "ambient": {"kind": kind, "dims": dims},
        "E": rows_e,
        "F": rows_f,
        "polarization": polarization,
        "flags": {"allow_non_cy_c2": True},
    })


def monomial_report(dims, rows_e, rows_f, polarization):
    """The report on the 2^n-monomial ring: the block rule patched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            invariants, "_blocks", lambda dims, columns: (dims, range(len(dims)))
        )
        inst = library_instance(dims, rows_e, rows_f, polarization)
        assert not any(inst.ambient.divided)
        return asdict(build_report(inst, allow_non_cy_c2=True))


@st.composite
def block_cases(draw):
    """Factor dims and the rows of E, F and the polarization: (P^1)^n with
    n <= 7 split into blocks at random, sometimes with one more factor
    P^1..P^3, the factors shuffled, and every row constant on each block.
    E has no, some or all rows zero; F repeats a root or has distinct
    ones; in some draws the last row of F makes the instance Calabi-Yau."""
    extra = draw(st.sampled_from([[], [1], [2], [3]]))
    ones = draw(st.integers(max(2, 4 - sum(extra)), 7))
    sizes = []
    while sum(sizes) < ones:
        sizes.append(draw(st.integers(1, ones - sum(sizes))))
    groups = [(1, size) for size in sizes] + [(d, 1) for d in extra]
    rank = draw(st.integers(2, 3))
    row = st.lists(st.integers(-2, 2), min_size=len(groups), max_size=len(groups))
    zero = [0] * len(groups)
    zeros = draw(st.integers(0, rank))
    rows_e = [zero] * zeros + draw(
        st.lists(row.filter(any), min_size=rank - zeros, max_size=rank - zeros)
    )
    positive = st.lists(st.integers(0, 2), min_size=len(groups), max_size=len(groups))
    if draw(st.booleans()):  # F repeats a root
        rows_f = [draw(positive)] * 2 + draw(
            st.lists(positive, min_size=rank - 2, max_size=rank - 2)
        )
    else:
        rows_f = draw(
            st.lists(positive, min_size=rank, max_size=rank, unique_by=tuple)
        )
    if draw(st.booleans()):  # c1(F) - c1(E) = c1(T), factor by factor
        rows_f[-1] = [
            d + 1 + sum(r[g] for r in rows_e) - sum(r[g] for r in rows_f[:-1])
            for g, (d, _) in enumerate(groups)
        ]
    polarization = draw(
        st.lists(st.integers(1, 2), min_size=len(groups), max_size=len(groups))
    )
    factors = [g for g, (_, size) in enumerate(groups) for _ in range(size)]
    factors = draw(st.permutations(factors))
    dims = [groups[g][0] for g in factors]

    def spread(rows):
        return [[r[g] for g in factors] for r in rows]

    return dims, spread(rows_e), spread(rows_f), spread([polarization])[0]


@settings(max_examples=60, deadline=None)
@given(block_cases())
def test_block_ring_reports_equal_the_monomial_ring(case):
    dims, rows_e, rows_f, polarization = case
    expected = monomial_report(*case)
    inst = library_instance(*case)
    columns = [
        (d, *(r[i] for r in rows_e + rows_f + [polarization]))
        for i, d in enumerate(dims)
    ]
    repeated = any(d == 1 and columns.count(c) > 1 for d, c in zip(dims, columns))
    assert any(inst.ambient.divided) == repeated
    assert asdict(build_report(inst, allow_non_cy_c2=True)) == expected
    doc = config(*case)
    from_config = config_instance(doc)
    assert any(from_config.ambient.divided) == repeated
    assert repr(inst.ambient) == repr(from_config.ambient)
    assert inst.ambient.gens == from_config.ambient.gens
    assert asdict(build_report(from_config, allow_non_cy_c2=True)) == expected
    assert asdict(cli.report_from_config(doc)) == expected
    # _pair on the block ring, divided loop included, is the integral of the
    # product and the monomial ring's value
    assert pairings(from_config) == pairings(inst)


def pairings(inst):
    """``_pair(x, y)`` of ``H^k`` and ``D^(d-k)``, and of ``c(T) (1 + H)`` and
    ``(1 + D)^3``, each checked against ``integrate(x * y)``."""
    space, h = inst.ambient, inst.polarization
    d, divisor = space.dim, inst.pair.hypersurface_class
    hs, ds = [space.one()], [space.one()]
    for _ in range(d):
        hs.append(hs[-1] * h)
        ds.append(ds[-1] * divisor)
    classes = [(hs[k], ds[d - k]) for k in range(d + 1)]
    one = space.one()
    classes.append((space.tangent_chern * (one + h), (one + divisor) ** 3))
    values = [_pair(x, y) for x, y in classes]
    assert values == [space.integrate(x * y) for x, y in classes]
    return values


def test_a_restricted_instance_divides_nothing_on_the_callers_space(monkeypatch):
    # the p1n_dense (P^1)^8 op is built on the block ring, where the
    # instance divides its own pair's sequences; the caller's pair divides
    # none
    n = 8
    spaces = []
    original = chow.divide_by_roots

    def recording(parts, roots):
        spaces.extend(part.ambient for part in parts[:1])
        return original(parts, roots)

    for module in (chow, bundles, invariants):
        monkeypatch.setattr(module, "divide_by_roots", recording)
    caller, pair, polarization = library_inputs(
        [1] * n, [[0] * n] * 3, [[1] * n] * 3, [1] * n
    )
    inst = Instance(caller, pair, polarization)
    build_report(inst)
    assert inst.pair is not pair and spaces
    assert all(space is not caller for space in spaces)
    assert not {"chern_diff", "schur_seq"} & vars(pair).keys()
    # read afterwards, on the caller's space, they are the quotients
    one = caller.one()
    c_e, c_f = (prod(one + r for r in B.roots) for B in (pair.E, pair.F))
    assert pair.chern_diff == (c_f * unit_inverse(c_e)).parts()
    dual_e, dual_f = (prod(one - r for r in B.roots) for B in (pair.E, pair.F))
    assert pair.schur_seq == (dual_e * unit_inverse(dual_f)).parts()


def test_golden_p1_12_config_runs_on_two_blocks():
    # the golden (P^1)^12 config, whose report was recorded on the monomial
    # ring, runs on the block ring of its two column types: 7 x 7 elements
    inst = config_instance(cli.load_config(str(GOLDEN / "p1_12_mixed.json")))
    assert inst.ambient.caps == (6, 6) and inst.ambient.divided == (True, True)
    assert repr(inst.ambient) == "(P^1)^6 x (P^1)^6"


def test_p1_40_report_finishes_on_the_block_ring():
    # (P^1)^40 has 2^40 monomials; its two blocks of 20 have 21 x 21
    config = cli.load_config(str(GOLDEN / "p1_40_mixed.json"))
    report = cli.report_from_config(config)
    assert report.dim == 40 and len(report.intersection_numbers) == 40
    # the library constructor builds the same ring from the same rows
    assert asdict(build_report(config_instance(config))) == asdict(report)


def test_hand_built_p1_40_reports_as_from_rows_without_its_tangent_class():
    # a library caller's (P^1)^40 product ring costs its 40 generators: the
    # instance is built on the block ring, and the caller's c(T), 2^40
    # terms, is never built; a small product shows that first, as the
    # (P^1)^40 one would otherwise fill memory
    assert product_of_projective_spaces([1] * 4)._tangent is None
    doc = json.loads((GOLDEN / "p1_40_mixed.json").read_text(encoding="utf-8"))
    dims, rows = doc["ambient"]["dims"], (doc["E"], doc["F"], doc["polarization"])
    caller = library_inputs(dims, *rows)
    inst = Instance(*caller)
    assert inst.ambient is not caller[0]
    report = build_report(inst)
    assert asdict(report) == asdict(build_report(Instance.from_rows(dims, *rows)))
    assert caller[0]._tangent is None


def test_divided_powers_multiply_by_binomials():
    # e_k e_m = C(k+m, k) e_(k+m) makes e^k = k! e_k, so e^k e^m = e^(k+m)
    # holds exactly when e^k shows as k! e_k, and e^5 = 5! e_5 integrates
    # to 5!, the orders of the five factors
    space, firsts = block_space([1] * 5, [0] * 5)
    assert firsts == [0] and space.caps == (5,) and space.divided == (True,)
    e = space.generator(0)
    for k in range(6):
        assert repr(e**k) == {0: "1", 1: "e1"}.get(k, f"{factorial(k)}*e1[{k}]")
        for m in range(6 - k):
            assert e**k * e**m == e ** (k + m)
    assert space.integrate(e**5) == factorial(5)
    parts = space.tangent_chern.parts()  # 2^k on e_k
    scaled = [factorial(k) * part for k, part in enumerate(parts)]
    assert scaled == [2**k * e**k for k in range(6)]
    assert repr(3 * e**2 + e) == "e1 + 6*e1[2]"


def test_block_ring_integrals_equal_the_monomial_ring():
    # every product of degree-one classes constant on the blocks, and the
    # tangent class, integrates to the same number on both rings
    dims, columns = [1, 2, 1, 1, 1], ["a", "p", "b", "a", "b"]
    blocks, firsts = block_space(dims, columns)
    assert firsts == [0, 1, 2] and blocks.caps == (2, 2, 2)
    full = product_of_projective_spaces(dims)
    rows = [[1, 2, -1, 1, -1], [0, 1, 3, 0, 3], [2, 0, 1, 2, 1]]
    x, y, z = (full.degree_one(row) for row in rows)
    u, v, w = (blocks.degree_one([row[i] for i in firsts]) for row in rows)
    assert full.integrate(x**2 * y**3 * z) == blocks.integrate(u**2 * v**3 * w)
    assert _pair(x**3, y**3) == _pair(u**3, v**3)
    assert _pair3(x**2, y * z, x * y**2) == _pair3(u**2, v * w, u * v**2)
    assert _pair(full.tangent_chern, x**4) == _pair(blocks.tangent_chern, u**4)
    # the same on a bundle with a relation over each ring
    pair = [[1, 0, 2, 1, 2], [0, 1, 1, 0, 1]]
    over_full = proj_bundle(full, BundleSpec.sum_of_line_bundles(full, pair))
    f = BundleSpec.sum_of_line_bundles(blocks, [[r[i] for i in firsts] for r in pair])
    over_blocks = proj_bundle(blocks, f)
    assert over_full.has_relation and over_blocks.has_relation
    left = over_full.fiber_class() ** 3 * over_full.pullback(x * y) ** 2
    right = over_blocks.fiber_class() ** 3 * over_blocks.pullback(u * v) ** 2
    assert over_full.integrate(left * over_full.tangent_chern) == (
        over_blocks.integrate(right * over_blocks.tangent_chern)
    )


def test_calabi_yau_and_ample_tests_read_blocks():
    # c1(T) is 2 e on a block, not (n + 1) e; an ample class has degree at
    # least 1 on a line of each factor of a block, whose coefficient it is
    p1_5 = config_instance(cli.load_config(str(GOLDEN / "p1_5.json")))
    assert p1_5.ambient.divided == (True, True) and p1_5.calabi_yau
    space, _ = block_space([1] * 4, [0] * 4)
    pair = VirtualPair(
        BundleSpec.sum_of_line_bundles(space, [[0], [0]]),
        BundleSpec.sum_of_line_bundles(space, [[1], [1]]),
    )
    assert pair.calabi_yau
    assert Instance(space, pair, space.degree_one([1])).polarization is not None
    with pytest.raises(ValueError, match="not ample: degree below 1 on factor 1"):
        Instance(space, pair, space.degree_one([0]))


def test_inputs_without_a_repeated_p1_column_build_no_block_ring(monkeypatch):
    # the name the package calls: invariants imports block_space from chow;
    # the last case, with a repeated column, shows that the patch is seen
    built = []
    original = invariants.block_space
    monkeypatch.setattr(
        invariants, "block_space", lambda *a: built.append(a) or original(*a)
    )
    p1_4 = product_of_projective_spaces([1] * 4)
    cases = [
        (projective_space(6), [[0], [0], [0]], [[1], [1], [1]], False),
        (product_of_projective_spaces([2, 2]), [[0, 0]] * 2, [[1, 1]] * 2, False),
        (p1_4, [[0] * 4] * 2, [[1, 2, 3, 0]] * 2, False),
        (p1_4, [[0] * 4] * 2, [[1, 2, 1, 0]] * 2, True),  # factors 1 and 3
    ]
    for space, rows_e, rows_f, repeated in cases:
        built.clear()
        pair = VirtualPair(
            BundleSpec.sum_of_line_bundles(space, rows_e),
            BundleSpec.sum_of_line_bundles(space, rows_f),
        )
        inst = Instance(space, pair, space.degree_one([1] * len(space.caps)))
        assert (inst.ambient is not space) == repeated
        assert bool(built) == repeated


def test_hand_built_instance_builds_its_block_ring_in_the_constructor(monkeypatch):
    # the constructor builds the block ring once, and no report builds
    # another; a report the c2 guard refuses builds neither the resolution
    # nor a sequence of the pair
    built = []
    original = invariants.block_space
    monkeypatch.setattr(
        invariants, "block_space", lambda *a: built.append(a) or original(*a)
    )
    inst = library_instance([1] * 4, [[0] * 4] * 2, [[1] * 4, [2] * 4], [1] * 4)
    assert len(built) == 1 and repr(inst.ambient) == "(P^1)^4"
    with pytest.raises(GuardError, match="Calabi-Yau condition fails"):
        build_report(inst)
    assert "resolution" not in vars(inst)
    assert not {"chern_diff", "schur_seq"} & vars(inst.pair).keys()
    for _ in range(2):
        build_report(inst, allow_non_cy_c2=True)
        assert len(built) == 1


def test_block_space_refuses_columns_that_do_not_match_the_factors(monkeypatch):
    built = []
    original = chow.AmbientSpace
    monkeypatch.setattr(
        chow, "AmbientSpace", lambda *a, **k: built.append(a) or original(*a, **k)
    )
    with pytest.raises(ValueError, match="expected 3 columns, got 2"):
        block_space([2, 1, 1], zip(*[[0, 0]] * 4))
    with pytest.raises(ValueError, match="expected 3 columns, got 0"):
        block_space([2, 1, 1], zip(*[]))
    with pytest.raises(ValueError, match="expected 2 columns, got 3"):
        block_space([1, 1], [0, 0, 0])
    assert built == []
    space, firsts = block_space([2, 1, 1], [(0,), (1,), (1,)])
    assert space.dim == 4 and firsts == [0, 1] and len(built) == 1


def test_block_space_and_from_rows_refuse_a_factor_p0(monkeypatch):
    # every generator starts in normal form, so a P^0 factor, whose
    # hyperplane class would truncate, is refused before any ring is built
    built = []
    original = chow.AmbientSpace
    monkeypatch.setattr(
        chow, "AmbientSpace", lambda *a, **k: built.append(a) or original(*a, **k)
    )
    refused = "dimensions must be at least 1: a factor P\\^0 is refused"
    for dims in ([0], [4, 0], [1, 0, 1]):
        with pytest.raises(ValueError, match=refused):
            block_space(dims, range(len(dims)))
    with pytest.raises(ValueError, match=refused):
        product_of_projective_spaces([0, 4])
    with pytest.raises(ValueError, match=refused):
        Instance.from_rows([0, 4], [[0, 0]] * 2, [[0, 1]] * 2)
    assert built == []


@pytest.mark.parametrize(
    "E, F, polarization, message",
    [
        ([[0, 0, 0], [0, 0]], [[1, 1, 1]] * 2, None, r"in row \[0, 0\]"),
        ([[0, 0, 0]] * 2, [[1, 1, 1], [1, 1, 1, 1]], None, r"in row \[1, 1, 1, 1\]"),
        ([[0, 0, 0]] * 2, [[1, 1, 1]] * 2, [1, 1], r"in row \[1, 1\]"),
        ([], [[1, 1, 1]] * 2, None, "at least one row"),
        ([[0, 0, 0]] * 2, [], [1, 1, 1], "at least one row"),
        ([[0, 0, 0]] * 2, [[1, 1, 1]] * 3, None, "bundles must have the same rank"),
    ],
    ids=[
        "short-E-row", "long-F-row", "short-polarization", "no-E-rows", "no-F-rows",
        "unequal-ranks",
    ],
)
def test_from_rows_refuses_malformed_rows_before_building_a_ring(
    E, F, polarization, message, monkeypatch
):
    built = []
    monkeypatch.setattr(invariants, "block_space", lambda *a: built.append(a))
    with pytest.raises(ValueError, match=message):
        Instance.from_rows([2, 1, 1], E, F, polarization)
    assert built == []


def test_from_rows_names_the_callers_factor_of_a_non_ample_polarization(monkeypatch):
    # factors 1 and 3 form one block and 2 and 4 another, so factor 5 is the
    # ring's third generator; the zero degree is on the caller's factor 5,
    # and no ring is built
    built = []
    monkeypatch.setattr(invariants, "block_space", lambda *a: built.append(a))
    rows_f = [[1, 0, 1, 0, 1], [1] * 5]
    with pytest.raises(ValueError, match="degree below 1 on factor 5$"):
        Instance.from_rows([1, 1, 1, 1, 2], [[0] * 5] * 2, rows_f, [1, 2, 1, 2, 0])
    assert built == []


def test_from_rows_refuses_a_bool_degree():
    # a bool would read as 0 or 1; block_space refuses it as a dimension and
    # the command line as an entry, and the rows refuse it as a degree
    with pytest.raises(TypeError, match="got False$"):
        Instance.from_rows([4], [[False], [0]], [[1], [1]])
    with pytest.raises(TypeError, match="got True$"):
        Instance.from_rows([4], [[0], [0]], [[1], [1]], [True])


def test_from_rows_refuses_a_degree_that_is_not_an_int_before_the_ring(monkeypatch):
    # the entry types are tested beside the row widths, so a bool or a float
    # degree, of E or of the polarization, builds no ring
    built = []
    monkeypatch.setattr(invariants, "block_space", lambda *a: built.append(a))
    for E, polarization, bad in [
        ([[False], [0]], None, "False"),
        ([[0.5], [0]], None, "0.5"),
        ([[0], [0]], [True], "True"),
    ]:
        with pytest.raises(TypeError, match=f"^expected an integer, got {bad}$"):
            Instance.from_rows([4], E, [[1], [1]], polarization)
    assert built == []


def test_from_rows_reads_no_degree_back_from_a_class(monkeypatch):
    # from_rows builds its ring, pair and polarization from the rows, so no
    # ample test or block restriction reads a class's coefficients; a
    # hand-built instance on the same product reads each of its four roots
    # and its polarization exactly once, which also shows that the patch is
    # seen.  The dimension and rank guards still hold.
    calls = []
    original = chow.AmbientSpace.coefficients
    monkeypatch.setattr(
        chow.AmbientSpace,
        "coefficients",
        lambda self, x: calls.append(x) or original(self, x),
    )
    rows_e, rows_f = [[0, 0, 0]] * 2, [[1, 2, 1], [2, 1, 1]]
    for dims, E, F, polarization in [
        ([1, 1, 2], rows_e, rows_f, [1, 1, 1]),
        ([1, 1, 2], rows_e, rows_f, None),
        ([1, 1, 2], rows_e, [[1, 1, 2], [2, 2, 1]], [1, 1, 1]),  # one block
        ([4], [[0]] * 3, [[1], [2], [2]], [1]),
    ]:
        Instance.from_rows(dims, E, F, polarization)
    assert calls == []
    library_instance([1, 1, 2], rows_e, rows_f, [1, 1, 1])
    assert len(calls) == 5
    with pytest.raises(GuardError, match="dimension at least 4"):
        Instance.from_rows([1, 2], [[0, 0]] * 2, [[1, 1]] * 2)
    with pytest.raises(GuardError, match="rank must be at least 2"):
        Instance.from_rows([1, 1, 2], [[0, 0, 0]], [[1, 1, 1]])
