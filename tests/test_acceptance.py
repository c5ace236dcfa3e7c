"""Acceptance gate: every criterion below must hold at exact integer equality.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them;
``-v`` shows the same information through test outcomes).  The whole module
is also required to finish well inside a ten-second budget.
"""

import functools
import time
from math import comb, factorial

from detcalc.bundles import BundleSpec, VirtualPair
from detcalc.chow import projective_space
from detcalc.invariants import (
    GuardError,
    Instance,
    build_report,
    c2_numbers,
    euler_numbers,
    euler_smooth_hypersurface,
    ih_milnor_number_small_dim,
    porteous_degree,
)
from detcalc.verify import run_all
from oracles import hook_product, partitions_of, syt_count, syt_count_by_removal

_START = time.monotonic()


def criterion(name):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            print(f"ACCEPTANCE {name}: PASS")

        return wrapper

    return decorate


def split(space, degrees):
    return BundleSpec.sum_of_line_bundles(space, [[d] for d in degrees])


@criterion("table-1 reproduction")
def test_table1_reproduction(p4):
    inst = Instance(
        p4,
        VirtualPair(split(p4, [-1, -1, -1, -2]), split(p4, [0, 0, 0, 0])),
        p4.generator(0),
    )
    report = build_report(inst)
    assert report.intersection_numbers == [2, 7, 9, 5]
    assert report.c2_against_tautological == 44
    assert report.c2_against_polarization == 50
    assert report.odp_count == 46


@criterion("table-2 reproduction")
def test_table2_reproduction(quartic_table):
    counts = [porteous_degree(inst) for inst, _ in quartic_table]
    assert counts == [9, 12, 17, 16, 20]


@criterion("quartic invariant chain")
def test_quartic_chain(p4):
    inst = Instance(p4, VirtualPair(split(p4, [0, 0]), split(p4, [2, 2])))
    assert porteous_degree(inst) == 16
    euler = euler_numbers(inst)
    gap = euler.ih_milnor
    assert gap == 32
    smooth = euler_smooth_hypersurface(p4, inst.pair.hypersurface_class)
    assert smooth == euler.smooth == -56
    by_pushforward = euler.resolution
    by_identity = smooth + (-1) ** 4 * gap
    assert by_pushforward == by_identity == -24


@criterion("quintic invariant chain")
def test_quintic_chain(p4):
    inst = Instance(
        p4, VirtualPair(split(p4, [-1, -1, -1, -2]), split(p4, [0, 0, 0, 0]))
    )
    smooth = euler_smooth_hypersurface(p4, inst.pair.hypersurface_class)
    euler = euler_numbers(inst)
    assert smooth == euler.smooth == -200
    gap = euler.ih_milnor
    assert gap == 92
    by_pushforward = euler.resolution
    by_identity = smooth + (-1) ** 4 * gap
    assert by_pushforward == by_identity == -108


@criterion("tableau combinatorics")
def test_tableau_combinatorics():
    assert syt_count((3, 2)) == 5
    assert hook_product((3, 2)) == 24
    assert syt_count((2, 2)) == 2
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert syt_count((k,) + (1,) * (n - k)) == comb(n - 1, k - 1)
    for n in range(13):
        for lam in partitions_of(n):
            assert syt_count(lam) == syt_count_by_removal(lam)
    for n in range(9):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


@criterion("algebraic identity suites")
def test_identity_suites():
    results = run_all(depth=6)
    by_name = {r.name: r for r in results}
    assert by_name["euler-consistency"].cases == 100  # 50 instances, 2 checks
    assert by_name["dual-routes"].cases == 20
    failures = [f for r in results for f in r.failures]
    assert not failures, failures


@criterion("guard behavior")
def test_guards(p4):
    p6 = projective_space(6)
    sixfold = Instance(p6, VirtualPair(split(p6, [0, 0]), split(p6, [3, 4])))
    try:
        ih_milnor_number_small_dim(sixfold)
        raise AssertionError("the singular-gap shortcut must refuse dim M = 6")
    except GuardError:
        pass

    non_cy_fourfold = Instance(
        p4, VirtualPair(split(p4, [0, 0]), split(p4, [2, 2])), p4.generator(0)
    )
    try:
        c2_numbers(non_cy_fourfold)
        raise AssertionError("c2 pairings must refuse a non-CY instance without opt-in")
    except GuardError:
        pass

    p5 = projective_space(5)
    fivefold = Instance(p5, VirtualPair(split(p5, [0, 0]), split(p5, [3, 3])))
    try:
        porteous_degree(fivefold)
        raise AssertionError("the point count must refuse a non-fourfold ambient")
    except GuardError:
        pass


@criterion("runtime budget")
def test_runtime_budget():
    assert time.monotonic() - _START < 10.0
