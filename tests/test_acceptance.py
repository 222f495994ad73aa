"""Acceptance gate: every verification criterion, one pass/fail line each.

The whole suite runs once (cached at module scope); each test then asserts
its own criterion and prints the PASS/FAIL line with the measured margins,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from skewflow import verify
from skewflow.classify import CriticalType
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
