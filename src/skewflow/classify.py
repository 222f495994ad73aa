"""Critical types: extraction from hermitian spectra, exact values, composition.

A critical point's derivation part D determines its *type*: the ascending
coprime nonnegative integers (k_1 < ... < k_r; d_1, ..., d_r) proportional to
the clustered eigenvalues of D with their multiplicities.  Rationalization
uses the additive relations c_i + c_j = c_k among the eigenvalue clusters:
with E the matrix of the relation vectors e_i + e_j - e_k and W =
diag(1/d_i), the direction (1/alpha) (c_1, ..., c_r) is the projection of 1
onto ker E in the metric of W^-1,

    W^(1/2) N^t N W^(-1/2) 1,   N orthonormal rows spanning ker(E W^(1/2)),

which is 1 - W E^t (E W E^t)^{-1} 1 when the relations are independent
(each relation sums to 1).  N comes from the package's one rank rule.  The
direction is a rational vector, reconstructed exactly by continued
fractions and scaled to coprime integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import _null_rows, hermitian_part

__all__ = [
    "CriticalType",
    "TypeExtractionError",
    "extract_type",
    "critical_value",
    "abelian_sum_type",
    "predicted_partition_ks",
    "nilpotent_partition_type",
]


class TypeExtractionError(ValueError):
    """Eigenvalue data inconsistent with a rational critical type."""


@dataclass(frozen=True)
class CriticalType:
    """Type data (k_1 < ... < k_r; d_1, ..., d_r) of a critical point."""

    ks: tuple
    ds: tuple

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        ds = tuple(int(d) for d in self.ds)
        if len(ks) != len(ds) or not ks:
            raise ValueError("ks and ds must be equal-length nonempty tuples")
        if any(k < 0 for k in ks) or any(d <= 0 for d in ds):
            raise ValueError("need nonnegative ks and positive ds")
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValueError("ks must be strictly increasing")
        nonzero = [k for k in ks if k]
        if nonzero and math.gcd(*nonzero) != 1:
            raise ValueError("nonzero ks must be coprime")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "ds", ds)

    @property
    def n(self) -> int:
        return sum(self.ds)

    @property
    def r(self) -> int:
        return len(self.ks)

    def __str__(self) -> str:
        return "({};{})".format(
            "<".join(str(k) for k in self.ks), ",".join(str(d) for d in self.ds)
        )

    @classmethod
    def parse(cls, text: str) -> "CriticalType":
        body = text.strip().lstrip("(").rstrip(")")
        kpart, dpart = body.split(";")
        return cls(
            tuple(int(k) for k in kpart.split("<")),
            tuple(int(d) for d in dpart.split(",")),
        )

    def weights(self) -> np.ndarray:
        """Eigenvalues with multiplicity, ascending: diag of D_alpha."""
        return np.repeat(np.asarray(self.ks, dtype=float), self.ds)


def _cluster(values: np.ndarray, gap: float):
    """Single-linkage clustering of sorted reals with an absolute gap."""
    groups = [[values[0]]]
    for v in values[1:]:
        if v - groups[-1][-1] <= gap:
            groups[-1].append(v)
        else:
            groups.append([v])
    means = np.array([np.mean(g) for g in groups])
    mults = [len(g) for g in groups]
    return means, mults


def extract_type(d: np.ndarray, tol: float = 1e-6) -> CriticalType:
    """Cluster the spectrum of D and rationalize it to a coprime integer type.

    Relations c_i + c_j = c_k are collected with additive tolerance
    tol*max|c|; the multiplicity-weighted projection recovers the rational
    direction, reconstructed by continued fractions (denominators <= 1e6).
    Raises TypeExtractionError when the spectrum admits no consistent type.

    The zero-type floor max|c| <= tol stays absolute, unlike the residual
    tests' scale rule: the input is D of a unit-norm tensor, and of the zero
    type only rounding is left.
    """
    d = np.asarray(d, dtype=complex)
    evals = np.linalg.eigvalsh(hermitian_part(d))
    n = evals.size
    scale = float(np.max(np.abs(evals))) if n else 0.0
    if scale <= tol:
        return CriticalType((0,), (n,))

    means, mults = _cluster(np.sort(evals), tol * scale)
    r = means.size

    rels = []
    for i in range(r):
        for j in range(i, r):
            for k in range(r):
                if abs(means[i] + means[j] - means[k]) <= tol * scale:
                    v = np.zeros(r)
                    v[i] += 1.0
                    v[j] += 1.0
                    v[k] -= 1.0
                    rels.append(v)

    w_half = 1.0 / np.sqrt(np.asarray(mults, dtype=float))
    e = np.array(rels).reshape(-1, r)
    kernel = _null_rows(e * w_half)
    direction = w_half * (kernel.T @ (kernel @ (1.0 / w_half)))

    fracs = [Fraction(x).limit_denominator(10**6) for x in direction]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    if any(i < 0 for i in ints):
        raise TypeExtractionError(
            f"negative entries in rationalized direction {ints}; input not critical"
        )
    nonzero = [i for i in ints if i]
    if not nonzero:
        raise TypeExtractionError("rationalized direction vanished")
    g = math.gcd(*nonzero)
    ks = [i // g for i in ints]

    # cross-check: ks must be parallel to the cluster means
    karr = np.asarray(ks, dtype=float)
    t = float(karr @ means) / float(karr @ karr)
    if np.max(np.abs(means - t * karr)) > tol * scale * 10.0:
        raise TypeExtractionError(
            f"rationalized ks {ks} not parallel to eigenvalue clusters {means}"
        )
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise TypeExtractionError(f"rationalized ks {ks} not strictly increasing")
    return CriticalType(tuple(ks), tuple(mults))


def critical_value(t: CriticalType) -> Fraction:
    """Exact value of the functional at a critical point of type t.

    4*(n - (sum k d)^2 / (sum k^2 d))^{-1}, and 4/n for the zero type.
    """
    n = t.n
    skd = sum(k * d for k, d in zip(t.ks, t.ds))
    sk2d = sum(k * k * d for k, d in zip(t.ks, t.ds))
    if sk2d == 0:
        return Fraction(4, n)
    denom = n * sk2d - skd * skd
    if denom <= 0:
        raise ValueError(f"type {t} admits no finite critical value")
    return Fraction(4 * sk2d, denom)


def abelian_sum_type(t: CriticalType, m: int) -> CriticalType:
    """Type of a critical point direct-summed with an m-dim abelian factor.

    With d = gcd(sum kd, sum k^2 d) and a = (sum kd)/d, the old eigenvalues
    rescale to a*k_i and a new eigenvalue (sum k^2 d)/d of multiplicity m
    appears, merging with a coinciding a*k_i.  For the all-zero type the new
    type is (0<1; n, m).
    """
    if m <= 0:
        raise ValueError("need a positive abelian dimension")
    skd = sum(k * d for k, d in zip(t.ks, t.ds))
    sk2d = sum(k * k * d for k, d in zip(t.ks, t.ds))
    if sk2d == 0:
        return CriticalType((0, 1), (t.n, m))
    g = math.gcd(skd, sk2d)
    a, new_k = skd // g, sk2d // g
    pairs = {a * k: d for k, d in zip(t.ks, t.ds)}
    pairs[new_k] = pairs.get(new_k, 0) + m
    ks = sorted(pairs)
    ds = [pairs[k] for k in ks]
    nonzero = [k for k in ks if k]
    red = math.gcd(*nonzero) if nonzero else 1
    return CriticalType(tuple(k // red for k in ks), tuple(ds))


def predicted_partition_ks(partition) -> tuple:
    """The k-sequence for the nilpotent normal form of a Jordan partition.

    Weight set {2} joined with the runs {2*theta - n_i + 2j : j = 0..n_i},
    theta = 1 + sum n_i(n_i+1)(n_i+2)/12, reduced to coprime integers.  The
    runs of equal parity nest, so this reproduces the same-parity and
    mixed-parity case rules (largest even and odd parts dominate); the
    partition (1, 0, ..., 0) yields (2, 3, 4).
    """
    parts = [int(x) for x in partition]
    if any(x < 0 for x in parts) or any(
        a < b for a, b in zip(parts, parts[1:])
    ):
        raise ValueError("partition must be nonincreasing and nonnegative")
    if not any(parts):
        raise ValueError("partition must have a positive entry")
    two_theta = 2 + sum(x * (x + 1) * (x + 2) for x in parts) // 6
    weights = {2}
    for x in parts:
        weights.update(two_theta - x + 2 * j for j in range(x + 1))
    g = math.gcd(*weights)
    return tuple(sorted(w // g for w in weights))


def nilpotent_partition_type(partition) -> CriticalType:
    """Verified type of the critical normal form attached to a Jordan partition.

    Predicts the k-sequence from the weight-set rule, then builds the normal
    form, runs the criticality test, extracts the type numerically, and
    returns it after checking the k-sequences agree.
    """
    from .catalog import mu_A, nilpotent_normal_form  # deferred, avoids a cycle
    from .moment import criticality

    ks_pred = predicted_partition_ks(partition)
    a = nilpotent_normal_form(partition)
    report = criticality(mu_A(a).tensor)
    if not report.is_critical:
        raise TypeExtractionError(
            f"normal form of {tuple(partition)} not critical "
            f"(residual {report.residual:.3g})"
        )
    t = extract_type(report.D_mu)
    if t.ks != ks_pred:
        raise TypeExtractionError(
            f"extracted ks {t.ks} differ from predicted {ks_pred}"
        )
    return t
