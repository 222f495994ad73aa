#!/usr/bin/env python3
"""
Flow every four-dimensional family to its critical point and tabulate where
each one lands.  Sixteen families go in; the limits take only six values,

    4/3 < 2 < 3 < 4 < 6 < 12,

each with a fixed rational type, so the families organize into six strata
ordered by the limit energy.  The semisimple one (sl2+C) sits at the bottom,
the "most nilpotent" one (n3+C, a heisenberg bracket plus a line) at the top.
The zero bracket C4 is skipped: the functional is undefined there.

Run time is a couple of seconds; every flow certifies its limit by the
residual test, so a FAILED row would mean a real regression.
"""
from skewflow import (
    DEFAULT_PARAMS,
    DIM4_FAMILY_NAMES,
    critical_value,
    dim4_family,
    flow,
)

print(f"{'family':<8} {'params':<12} {'steps':>6} {'limit F':>12} "
      f"{'exact':>6}  type")
print("-" * 64)

by_value = {}
expected = set()  # the limit values the catalog records for these families
for name in DIM4_FAMILY_NAMES:
    entry = dim4_family(name, DEFAULT_PARAMS.get(name, ()))
    if entry.tensor.is_zero():
        print(f"{name:<8} {'':<12} {'-':>6} {'(zero bracket)':>12}")
        continue
    expected.add(entry.expected_F)
    trace = flow(entry.tensor)
    assert trace.converged, f"{name} did not certify"
    f_limit = trace.limit_report.F_value
    exact = critical_value(trace.stratum)
    p = ",".join(f"{x.real:g}" for x in entry.params)
    print(f"{name:<8} {p:<12} {trace.samples[-1][0]:>6} {f_limit:>12.8f} "
          f"{str(exact):>6}  {trace.stratum}")
    by_value.setdefault(exact, []).append(name)

print()
print("strata by limit value:")
for value in sorted(by_value):
    members = ", ".join(by_value[value])
    print(f"  F = {str(value):>4}: {members}")

assert sorted(by_value) == sorted(expected), "stratification changed!"
print("\nsix strata, as expected.")
