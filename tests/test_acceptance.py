"""Acceptance gate: every verification criterion, one pass/fail line each.

The whole suite runs once (cached at module scope); each test then asserts
its own criterion and prints the PASS/FAIL line with the measured margins,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from skewflow import verify
from skewflow.classify import CriticalType, TypeExtractionError
from skewflow.verify import SUITES, run_suite

ALL_CHECKS = [
    (suite, name) for suite, checks in SUITES.items() for name, _ in checks
]

_cache = {}


def _results():
    if "r" not in _cache:
        _cache["r"] = {(r.suite, r.name): r for r in run_suite()}
    return _cache["r"]


def test_every_criterion_is_covered():
    assert len(ALL_CHECKS) == 12
    assert set(_results()) == set(ALL_CHECKS)


@pytest.mark.parametrize(
    "suite,name", ALL_CHECKS, ids=[f"{s}/{n}" for s, n in ALL_CHECKS]
)
def test_criterion(suite, name):
    result = _results()[(suite, name)]
    print(result.line)
    assert result.passed, result.line


# (check that must fail, builder it reads, entry to corrupt, wrong metadata)
WRONG_LIMITS = [
    ("strata", "stratum-representatives", "dim4_family", "g6", {"expected_F": Fraction(4)}),
    ("strata", "stratum-representatives", "dim4_family", "n4",
     {"expected_type": CriticalType((2, 3, 4), (2, 1, 1))}),
    ("closed-forms", "closed-form-energies", "mu_hy", "mu_hy", {"expected_F": Fraction(5)}),
    ("semisimple", "orbit-minimum", "sl2_compact", "sl2_compact", {"expected_F": Fraction(3, 2)}),
    ("abelian-ideal", "normality-law", "mu_A", "mu_A",
     {"expected_type": CriticalType((0, 1), (2, 1))}),
]


@pytest.mark.parametrize(
    "suite,check,builder,entry,wrong", WRONG_LIMITS,
    ids=[f"{s}/{e}/{next(iter(w))}" for s, _, _, e, w in WRONG_LIMITS],
)
def test_checks_read_their_limits_from_the_catalog(
    monkeypatch, suite, check, builder, entry, wrong
):
    # a wrong recorded limit must fail the check that compares against it
    real = getattr(verify, builder)

    def corrupted(*args, **kwargs):
        built = real(*args, **kwargs)
        return replace(built, **wrong) if built.name == entry else built

    monkeypatch.setattr(verify, builder, corrupted)
    results = {r.name: r for r in run_suite(only=suite)}
    assert not results[check].passed, results[check].line


def test_boundary_flows_read_the_excluded_orbits(monkeypatch):
    # the g5 limit type is checked as the catalog records it
    orbits = tuple(
        replace(o, limit_type=CriticalType((0, 1, 2), (1, 2, 1))) if o.name == "g5" else o
        for o in verify.EXCLUDED_ORBITS
    )
    monkeypatch.setattr(verify, "EXCLUDED_ORBITS", orbits)
    [result] = run_suite(only="excluded-orbits")
    assert not result.passed and "g5 type (0<1;1,3) != (0<1<2;1,2,1)" in result.detail


# the checks of each suite that label a certificate by its type
LABELING_CHECKS = {
    "abelian-ideal": {"normality-law", "nilpotent-normal-forms"},
    "abelian-factor": {"abelian-composition"},
    "semidirect": {"derivation-extensions"},
}


@pytest.mark.parametrize("suite", sorted(LABELING_CHECKS))
def test_a_type_extraction_failure_fails_its_check(monkeypatch, suite):
    # a type that cannot be extracted is a mismatch, not an abort of the run
    def failing(d_mu):
        raise TypeExtractionError("no rational type")

    monkeypatch.setattr(verify, "extract_type", failing)
    results = run_suite(only=suite)
    assert {r.name for r in results if not r.passed} == LABELING_CHECKS[suite]


@pytest.mark.parametrize("only, flows", [(None, 6 + 3), ("monotonicity", 6)])
def test_each_run_flows_the_stratum_representatives_once(monkeypatch, only, flows):
    # strata and monotonicity share the six flows within a run (a full run
    # adds three boundary flows), and the next run flows them again
    calls, real = [], verify.flow

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "flow", counted)
    for _ in range(2):
        calls.clear()
        run_suite(only=only)
        assert len(calls) == flows
        assert verify._flow_strata.cache_info().currsize == 0


@pytest.mark.parametrize("seed", [535, 2008])
def test_gradient_check_has_no_truncation_error(seed):
    # central differences miss the 1e-6 tolerance on these seeds, by O(h^2)
    # truncation along directions nearly orthogonal to the gradient
    [result] = run_suite(only="gradient", seed=seed)
    assert result.passed, result.line
