#!/usr/bin/env python3
"""
At generic parameters each four-dimensional family flows to the same limit
energy; at a few special parameter values the orbit slips out of its own
family's stratum and the flow lands somewhere cheaper.  This script runs the
four known crossings next to a generic member of the same family, so you can
watch the limit value drop:

    g8(1/4)        3        (same value as generic g8, but the approach is
                             along a flat valley: the certificate residual
                             stalls near 1e-8 instead of machine precision)
    g3(27/4)       4        (limit leaves g3, lands in a g1 orbit)
    g5             4        (the whole family is one orbit of this kind)
    g2 on a curve  4        (a one-parameter curve of crossings)

The interesting part is not the value but the *orbit*: the catalog records
the family whose orbit each limit should lie in.  We check each limit's
type and energy against the recorded limit and print that target orbit
beside it (whether the limit lies in the target orbit is not checked), and
for the g2 curve we sweep the curve parameter to show it is really a curve,
not a point.
"""
from skewflow import (
    EXCLUDED_ORBITS,
    dim4_family,
    flow,
    g2_curve_params,
)

print("the four recorded crossings")
print(f"{'start':<22} {'steps':>7} {'limit F':>12} {'residual':>10}  "
      f"type           target orbit")
print("-" * 84)
for orbit in EXCLUDED_ORBITS:
    entry = dim4_family(orbit.name, orbit.params)
    trace = flow(entry.tensor)
    assert trace.converged
    assert trace.stratum == orbit.limit_type
    f_limit = trace.limit_report.F_value
    assert abs(f_limit - float(orbit.limit_F)) < 1e-6
    p = ",".join(f"{x.real:g}" for x in orbit.params)
    start = f"{orbit.name}({p})" if p else orbit.name
    tp = ",".join(f"{x.real:g}" for x in orbit.target_params)
    target = f"{orbit.target_name}({tp})" if tp else orbit.target_name
    print(f"{start:<22} {trace.samples[-1][0]:>7} {f_limit:>12.8f} "
          f"{trace.limit_report.residual:>10.2e}  {str(trace.stratum):<14} {target}")

# generic members of the same families, for contrast
print("\ngeneric members of the same families")
for name, p in (("g8", (2.0,)), ("g3", (2.0,)), ("g2", (2.0, 1.0))):
    trace = flow(dim4_family(name, p).tensor)
    print(f"{name}{p}: {trace.samples[-1][0]} steps, "
          f"F = {trace.limit_report.F_value:.8f}, type {trace.stratum}")

# the g2 crossing is a whole curve: gamma -> (gamma/(gamma+2)^3,
# (2 gamma+1)/(gamma+2)^2).  every point of it flows to the g1 stratum.
print("\nsweeping the g2 curve")
for gamma in (0.5, 1.0, 3.0, -0.75):
    a, b = g2_curve_params(gamma)
    trace = flow(dim4_family("g2", (a, b)).tensor)
    assert trace.converged
    print(f"gamma = {gamma:>5}: params = ({a.real:.6g}, {b.real:.6g}), "
          f"F -> {trace.limit_report.F_value:.8f}, type {trace.stratum}")

# g8 at the degenerate parameter 1/4: same limit value as generic g8, but
# the approach is along a quartic valley, so the certificate stalls around
# 1e-8 where the generic members reach machine precision.
print("\ng8 near the degenerate parameter")
for alpha in (2.0, 0.5, 0.3, 0.25):
    trace = flow(dim4_family("g8", (alpha,)).tensor)
    rep = trace.limit_report
    print(f"alpha = {alpha:>4}: {trace.samples[-1][0]:>5} steps, "
          f"residual {rep.residual:.2e}, F = {rep.F_value:.10f}")
