#!/usr/bin/env python3
"""
The cheapest way to manufacture critical points in any dimension: take an
n x n matrix A, adjoin a line that acts on C^n by A, and look at the bracket
[x0, v] = Av.  Three experiments with that construction:

  1. normality decides criticality.  A normal (AA* = A*A) gives a critical
     point on the nose, of type (0<1; 1, n) and energy 4; a non-normal A
     does not, and the flow has to move it before the certificate fires.

  2. nilpotent A come with scaled Jordan normal forms that are critical for
     every partition, and the type is computable from the partition alone.
     We tabulate all partitions of size <= 4 and check the prediction.

  3. critical points breed: a nilpotent critical point plus a suitable
     reductive algebra of derivations glues into a critical point one
     dimension up (a semidirect extension); the heisenberg bracket extended
     by diag(1,1,2) reproduces the (0<1<2; 1,2,1) stratum at energy 3.
"""
import numpy as np

from skewflow import (
    criticality,
    critical_value,
    extract_type,
    flow,
    mu_A,
    mu_he,
    nilpotent_normal_form,
    nilpotent_partition_type,
    semidirect_extension,
)

rng = np.random.default_rng(0)

# --- 1. normal vs non-normal ------------------------------------------------
print("1. normality decides criticality (n = 3)")
u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
normal = u @ np.diag([1.0, -2.0, 0.5 + 1.0j]) @ u.conj().T
non_normal = normal + np.triu(rng.standard_normal((3, 3)), k=1)

for label, a in (("normal", normal), ("non-normal", non_normal)):
    rep = criticality(mu_A(a).tensor)
    line = f"   {label:<11} residual {rep.residual:.2e}  critical={rep.is_critical}"
    if rep.is_critical:
        line += f"  type {extract_type(rep.D_mu)}  F = {rep.F_value:.6f}"
    print(line)

trace = flow(mu_A(non_normal).tensor)
print(f"   ... after flowing the non-normal one: {trace.samples[-1][0]} steps, "
      f"type {trace.stratum}, F = {trace.limit_report.F_value:.6f}")

# --- 2. nilpotent partitions ------------------------------------------------
print("\n2. Jordan partitions up to size 4 (block sizes are part+1)")


def partitions_upto(total):
    out = []

    def rec(remaining, cap, acc):
        if acc:
            out.append(tuple(acc))
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(total, total, [])
    return sorted(set(out), key=lambda p: (sum(p), p))


print(f"   {'partition':<12} {'dim':>4} {'residual':>10}  {'type':<18} value")
for p in partitions_upto(4):
    a = nilpotent_normal_form(p)
    rep = criticality(mu_A(a).tensor)
    t = nilpotent_partition_type(p)
    assert rep.is_critical
    assert abs(rep.F_value - float(critical_value(t))) < 1e-8
    print(f"   {str(p):<12} {a.shape[0] + 1:>4} {rep.residual:>10.2e}  "
          f"{str(t):<18} {critical_value(t)}")

# --- 3. semidirect extensions -----------------------------------------------
print("\n3. extending the heisenberg bracket by derivations")
he = mu_he(3).tensor.normalized()
c_he = criticality(he).c_mu
print(f"   base: heisenberg on C^3, c_mu = {c_he:.6f}")
for diag in ([1.0, 1.0, 2.0], [1.0, -1.0, 0.0]):
    ext = semidirect_extension(he, [np.diag(diag).astype(complex)], c_he)
    rep = criticality(ext)
    t = extract_type(rep.D_mu)
    print(f"   + diag{tuple(diag)}: dim {ext.dim}, residual {rep.residual:.2e}, "
          f"type {t}, F = {rep.F_value:.6f} (exact {critical_value(t)})")
