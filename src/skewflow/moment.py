"""Moment-map matrix, the squared-norm functional, and criticality tests.

For a structure tensor mu the moment map is the hermitian matrix

    R = -2 herm(delta*_mu(mu)),

the derivative at the identity of the basis-change energy g -> ||g.mu||^2:
it is dual to the infinitesimal action, tr(R A) = -2 Re<delta_mu(A), mu>,
so it is the polarized moment map delta*_mu(lam) at lam = mu.  In the
structure constants,

    R[r, p] = -4 sum_{ij} c[p,i,j] conj(c[r,i,j])
              + 2 sum_{ij} conj(c[i,j,p]) c[i,j,r].

The functional minimized by the flow is the scale-invariant

    scalar_F(mu) = 4 tr(R^2) / (tr R)^2,

which equals tr(R^2) on the unit sphere because tr R = -2 ||mu||^2 always.
A point is critical exactly when R = c I + D with c real and D a hermitian
derivation of mu; we certify this by orthogonal projection of R onto
span_R{I} + (hermitian derivations) and measuring the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    StructureTensor,
    _delta_star_coeff,
    _hermitian_coords,
    _negligible,
    delta,
    derivation_algebra,
)

__all__ = [
    "CriticalReport",
    "moment_map",
    "scalar_F",
    "gradient",
    "criticality",
]


def moment_map(mu: StructureTensor) -> np.ndarray:
    """Hermitian moment-map matrix of mu; tr = -2||mu||^2."""
    return _moment_coeff(mu.coeff)


def _moment_coeff(c: np.ndarray) -> np.ndarray:
    """Array kernel of moment_map on a coefficient array c: -2 herm(delta*_c(c))."""
    d = _delta_star_coeff(c, c)
    return -(d + d.conj().T)


def scalar_F(mu: StructureTensor) -> float:
    """Scale-invariant functional 4 tr(R^2) / (tr R)^2; equals tr(R^2) at ||mu||=1."""
    if mu.is_zero():
        raise ValueError("scalar_F is undefined at the zero tensor")
    r = moment_map(mu)
    tr = float(np.trace(r).real)
    tr2 = float(np.vdot(r, r).real)  # tr(R^2) = ||R||_F^2, as R is hermitian
    return 4.0 * tr2 / tr**2


def gradient(mu: StructureTensor) -> StructureTensor:
    """Ambient gradient of mu -> tr(R_mu^2): -8 delta_mu(R_mu)."""
    return StructureTensor(-8.0 * delta(mu, moment_map(mu)).coeff)


@dataclass(frozen=True)
class CriticalReport:
    """Criticality certificate at the normalized tensor.

    residual is the Frobenius distance from R to span_R{I} + hermitian
    derivations; c_mu = tr(R^2)/tr(R); D_mu = R - c_mu I (meaningful when
    critical); F_value = tr(R^2) at unit norm.
    """

    c_mu: float
    D_mu: np.ndarray
    residual: float
    F_value: float
    is_critical: bool

    def d_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.D_mu)


def criticality(mu: StructureTensor) -> CriticalReport:
    """Project R onto span_R{I} + hermitian derivations; report the remainder.

    The input is normalized internally, so residual and F_value refer to the
    unit-sphere representative.  The point is critical when the residual is
    negligible against ||R|| by the package's one scale rule
    (algebra._negligible).
    """
    if mu.is_zero():
        raise ValueError("criticality is undefined at the zero tensor")
    nu = mu.normalized()
    r = moment_map(nu)
    tr = float(np.trace(r).real)
    tr2 = float(np.vdot(r, r).real)
    c_mu = tr2 / tr
    d_mu = r - c_mu * np.eye(nu.dim)  # exactly hermitian, as R is

    ders = derivation_algebra(nu).hermitian_basis
    eye = np.eye(nu.dim, dtype=complex)[None]
    basis = _hermitian_coords(np.concatenate([eye, ders])).T
    target = _hermitian_coords(r)
    sol = np.linalg.lstsq(basis, target, rcond=None)[0]
    residual = float(np.linalg.norm(target - basis @ sol))

    rnorm = float(np.linalg.norm(r))
    return CriticalReport(
        c_mu=c_mu,
        D_mu=d_mu,
        residual=residual,
        F_value=tr2,
        is_critical=bool(_negligible(residual, rnorm, 1.0)),
    )
