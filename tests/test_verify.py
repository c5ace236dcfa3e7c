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

    original = invariants.hook_schur
    monkeypatch.setattr(invariants, "hook_schur", lambda *a: 2 * original(*a))
    result = verify.suite_euler_consistency(depth=4, seed=1)
    assert not result.passed
    assert all("Euler numbers raised" in f for f in result.failures)
