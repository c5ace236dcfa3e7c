import re

import pytest

from detcalc import bundles, chow, invariants, verify
from detcalc.verify import run_all


def test_all_suites_pass_at_default_depth():
    results = run_all(depth=4)
    assert all(r.passed for r in results), [
        f for r in results for f in r.failures
    ]
    assert {r.name for r in results} == {
        "euler-consistency",
        "dual-routes",
        "block-ring",
    }


def test_required_case_counts():
    results = {r.name: r for r in run_all(depth=6)}
    assert results["euler-consistency"].cases == 100  # 50 instances, 2 checks each
    assert results["dual-routes"].cases == 20


def test_runs_are_deterministic():
    first = run_all(depth=4, seed=5)
    second = run_all(depth=4, seed=5)
    assert [(r.name, r.cases, r.failures) for r in first] == [
        (r.name, r.cases, r.failures) for r in second
    ]


def test_euler_suite_records_a_broken_identity_as_failures(monkeypatch):
    from detcalc import invariants, verify

    original = invariants.hook_sum
    monkeypatch.setattr(invariants, "hook_sum", lambda *a: 2 * original(*a))
    result = verify.suite_euler_consistency(depth=4, seed=1)
    assert not result.passed
    assert all("resolution Euler number: hooks" in f for f in result.failures)



def test_euler_suite_compares_the_smooth_divisor_formula(monkeypatch):
    from detcalc import verify

    original = verify.euler_smooth_hypersurface
    monkeypatch.setattr(
        verify, "euler_smooth_hypersurface", lambda *a: original(*a) + 1
    )
    # as `detcalc verify --depth 6` runs it: each of the 50 instances fails
    # its smooth comparison, and only that one
    result = {r.name: r for r in verify.run_all(depth=6)}["euler-consistency"]
    assert result.cases == 100 and len(result.failures) == 50
    assert all("smooth Euler number" in f for f in result.failures)

def _twice(original):
    return lambda *a: 2 * original(*a)


def _twice_the_twist(original):
    return lambda bundle, ell: original(bundle, 2 * ell)


# package mutations, at least one per suite: the number of cases each fails
# at depth 6 and seed 2024, and the form of every failure: the quantity, each
# route with its value, and the inputs
_MUTATIONS = [
    pytest.param(
        verify.suite_euler_consistency, invariants, "porteous_class", _twice, 42,
        r"singular Euler gap: euler -?\d+, shortcut -?\d+ \(trial \d+, dim [45]\)",
        id="euler_consistency",
    ),
    # a twist by 2 ell puts the resolution in the wrong class, so its direct
    # chi(Z) disagrees on every trial with the hooks, which read the pair
    pytest.param(
        verify.suite_euler_consistency, bundles.BundleSpec, "twist",
        _twice_the_twist, 50,
        r"resolution Euler number: hooks -?\d+, direct -?\d+ \(trial \d+, dim [45]\)",
        id="euler_consistency_twist",
    ),
    pytest.param(
        verify.suite_dual_routes, invariants, "porteous_class", _twice, 10,
        r"c2 pairings: closed \(.+\), reduced \(.+\), direct \(.+\) \(trial \d+\)",
        id="dual_routes",
    ),
    pytest.param(
        verify.suite_block_ring, chow, "_pair3", _twice, 3,
        r"products x\^k x\^\(n-k\): monomial \[.+\], blocks \[.+\] \(columns \(.+\)\)",
        id="block_ring",
    ),
]


@pytest.mark.parametrize("suite, owner, attribute, mutate, failing, form", _MUTATIONS)
def test_every_suite_fails_on_a_mutation_and_says_why(
    monkeypatch, suite, owner, attribute, mutate, failing, form
):
    monkeypatch.setattr(owner, attribute, mutate(getattr(owner, attribute)))
    result = suite(depth=6, seed=2024)
    assert len(result.failures) == failing, result.failures
    for failure in result.failures:
        assert re.fullmatch(form, failure), failure
