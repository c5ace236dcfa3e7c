import re

import pytest

from detcalc import bundles, chow, invariants, verify
from detcalc.schur import schur
from detcalc.verify import run_all


def test_all_suites_pass_at_default_depth():
    results = run_all(depth=4)
    assert all(r.passed for r in results), [
        f for r in results for f in r.failures
    ]
    assert {r.name for r in results} == {
        "schur-identities",
        "sequence-transforms",
        "twist-formulas",
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

def test_schur_suite_is_not_vacuous_at_the_default_seed(monkeypatch):
    # at seed 2024 the first draw gives F the summands of E, whose sequence
    # is 1; the suite redraws F, so some s_lam with |lam| > 0 is nonzero
    from detcalc import verify

    evaluated = []

    def recorded(lam, seq):
        value = schur(lam, seq)
        evaluated.append((lam, value))
        return value

    monkeypatch.setattr(verify, "schur", recorded)
    result = verify.suite_schur_identities(depth=6, seed=2024)
    assert result.passed and result.cases == 37
    assert any(sum(lam) > 0 and not value.is_zero() for lam, value in evaluated)
    # each shape is evaluated once
    shapes = [lam for lam, _ in evaluated]
    assert len(shapes) == len(set(shapes))


def _plus_one(original):
    return lambda *a: original(*a) + 1


def _twice(original):
    return lambda *a: 2 * original(*a)


def _degree_two_negated(original):
    def mutated(seq):
        out = original(seq)
        out[2] = -out[2]
        return out

    return mutated


def _twice_the_twist(original):
    return lambda bundle, ell: original(bundle, 2 * ell)


# one package mutation per suite, the number of cases it fails at depth 6 and
# seed 2024, and the form of every failure: the quantity, each route with its
# value, and the inputs
_MUTATIONS = [
    (
        verify.suite_schur_identities, verify, "syt_count", _plus_one, 7,
        r"power identity: power .+, tableaux .+ \(power \d\)",
    ),
    (
        verify.suite_sequence_transforms, verify, "s_from_c", _degree_two_negated, 14,
        r"(transform involution: sequence \[.+\], twice"
        r"|dual-difference sequence: transform \[.+\], pair) \[.+\] \(trial \d\)",
    ),
    (
        verify.suite_twist_formulas, bundles.BundleSpec, "twist", _twice_the_twist, 35,
        r"twisted virtual class: closed .+, direct .+ \(trial \d, k=\d\)"
        r"|top twisted Chern class: direct .+, expansion .+ \(trial \d\)",
    ),
    (
        verify.suite_euler_consistency, invariants, "porteous_class", _twice, 42,
        r"singular Euler gap: euler -?\d+, shortcut -?\d+ \(trial \d+, dim [45]\)",
    ),
    (
        verify.suite_dual_routes, invariants, "porteous_class", _twice, 10,
        r"c2 pairings: closed \(.+\), reduced \(.+\), direct \(.+\) \(trial \d+\)",
    ),
    (
        verify.suite_block_ring, chow, "_pair3", _twice, 3,
        r"products x\^k x\^\(n-k\): monomial \[.+\], blocks \[.+\] \(columns \(.+\)\)",
    ),
]


@pytest.mark.parametrize(
    "suite, owner, attribute, mutate, failing, form",
    _MUTATIONS,
    ids=[suite.__name__.removeprefix("suite_") for suite, *_ in _MUTATIONS],
)
def test_every_suite_fails_on_a_mutation_and_says_why(
    monkeypatch, suite, owner, attribute, mutate, failing, form
):
    monkeypatch.setattr(owner, attribute, mutate(getattr(owner, attribute)))
    result = suite(depth=6, seed=2024)
    assert len(result.failures) == failing, result.failures
    for failure in result.failures:
        assert re.fullmatch(form, failure), failure
