"""Descent of the moment-map energy along its negative gradient on the sphere,
handed over once to a Newton polish that certifies the limit.

Explicit first-order steps with accept/reject control: a trial point is kept
when the sphere-restricted energy tr(R^2) does not increase (up to a tiny
absolute slack for floating-point rounding); the step size grows by 1.2 on
acceptance and halves on rejection.  A trial costs one moment map
(_moment_coeff), which gives the energy; only a kept point adds one
coboundary (_delta_coeff) for its gradient.  Near a critical point a
Newton polish of the stationarity equation, using the exact second
derivative, converges quadratically where the descent converges linearly,
so the descent stops as soon as the tangential gradient is below
_NEWTON_GATE (1e-5), or after _FIRST_POLISH (512) accepted steps once it is
below _POLISH_GATE (1e-2), and the flow polishes once.  A polish that
certifies nothing ends the flow unconverged.

The gradient is the infinitesimal action of a hermitian matrix,
g_tan = delta_mu(-8 R - lambda I), so each polish starts with one orbit
round: a Newton step in the n^2 hermitian directions delta_mu(A) (64
unknowns at n = 8).  Where that round certifies nothing, as on the
approaches to limits in an orbit's closure, the polish falls back to
ambient rounds in all n^2 (n-1) tangent directions of the sphere (448 at
n = 8), in the real coordinates _to_coords of the i < j half of the
antisymmetric tensors.  Both rounds restrict the one Hessian (_hessian) to
the span of their directions b, as b^T H b.  It is built from the
coboundaries delta_v(R) along the directions and 32 L L^T, with L the real
matrix of A -> delta_mu(A) on hermitian A (algebra._hermitian_delta_matrix),
which holds because the moment map is dual to the infinitesimal action.

Convergence is decided by the criticality residual of the final point,
which is what certifies membership in a critical set; converged limits are
labeled by their extracted type.  A certificate cannot pass where
||g_tan|| is not negligible against 32 ||R|| by the package's one scale
rule (_may_certify), so the flow's start and the orbit round's candidates
are certified only below that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import (
    StructureTensor,
    _delta_coeff,
    _hermitian_delta_matrix,
    _negligible,
    _to_coords,
    _upper_pairs,
)
from .classify import CriticalType, TypeExtractionError, extract_type
from .moment import CriticalReport, _moment_coeff, criticality

__all__ = [
    "FlowTrace",
    "flow",
    "flow_batch",
]

_GROWTH = 1.2
_SHRINK = 0.5
_F_SLACK = 1e-13  # absolute; accepted-step monotonicity still holds at 1e-12
_MIN_STEP = 1e-16
_MAX_STEPS = 200_000  # a guard: no default flow measured went past step 642
_INITIAL_STEP = 1e-3
_NEWTON_GATE = 1e-5  # polish once the tangential gradient is this small
_POLISH_GATE = 1e-2  # no polish with a larger gradient
_POLISH_ROUNDS = 40
_FIRST_POLISH = 512  # accepted steps after which _POLISH_GATE suffices


@dataclass
class FlowTrace:
    """Record of one trajectory.

    samples holds (step index, F value, tangential gradient norm) at the
    start and at every accepted descent step; limit is the final unit-norm
    point; stratum is the limit's type when converged and extraction
    succeeds; error carries per-item failures from flow_batch.
    """

    samples: list = field(default_factory=list)
    limit: StructureTensor | None = None
    converged: bool = False
    limit_report: CriticalReport | None = None
    stratum: CriticalType | None = None
    error: str | None = None


class _State(NamedTuple):
    mu: np.ndarray  # unit-norm coefficient array
    f: float  # tr(R^2)
    r: np.ndarray  # moment-map matrix
    radial: float  # Re<mu, g_amb>, g_amb the ambient gradient of tr(R^2)
    g_tan: np.ndarray  # tangential component at mu
    gnorm: float


def _energy(mu: np.ndarray) -> tuple[np.ndarray, float]:
    """Moment map R of unit mu and tr(R^2) = ||R||_F^2, as R is hermitian."""
    r = _moment_coeff(mu)
    return r, float(np.vdot(r, r).real)


def _state(mu: np.ndarray, r: np.ndarray, f: float) -> _State:
    """The gradient at a point whose _energy is (r, f)."""
    g_amb = _delta_coeff(mu, -8.0 * r)  # -8 is a power of two: exact
    radial = np.vdot(mu, g_amb).real
    g_tan = g_amb - radial * mu
    return _State(mu, f, r, radial, g_tan, float(np.linalg.norm(g_tan)))


def _normalized(c: np.ndarray) -> np.ndarray:
    return c / np.linalg.norm(c)


def _from_coords(y: np.ndarray, n: int) -> np.ndarray:
    """The antisymmetric (n, n, n) tensors with _to_coords y, along the last axis."""
    iu, ju = _upper_pairs(n)
    m = y.shape[-1] // 2
    half = np.sqrt(0.5) * (y[..., :m] + 1j * y[..., m:])
    half = half.reshape(*y.shape[:-1], len(iu), n)
    x = np.zeros((*y.shape[:-1], n, n, n), dtype=complex)
    x[..., iu, ju, :] = half
    x[..., ju, iu, :] = -half
    return x


def _hessian(s: _State, b: np.ndarray, lmat: np.ndarray) -> np.ndarray:
    """Hessian of a -> tr(R^2) at normalize(s.mu + _from_coords(b a)).

    b holds tangent directions at unit s.mu as columns of _to_coords
    coordinates, and lmat is L = _hermitian_delta_matrix(s.mu).  Along a
    tangent v the ambient second derivative is -8 (delta_v(R) +
    delta_mu(dR[v])), and the sphere adds -lambda |v|^2, lambda = s.radial.
    As tr(R A) = -2 Re<delta_mu(A), mu> for hermitian A (R is a moment
    map), tr(dR[v] A) = -4 Re<delta_mu(A), v>, so the second term is
    32 L L^T.  With V_c = _from_coords(b[:, c]) the Hessian is the
    restriction b^T H b of the sphere Hessian H,

        -8 b^T coords(delta_{V_c}(R)) + 32 (b^T L)(b^T L)^T - lambda b^T b,

    and the coboundaries delta_{V_c}(R) are one _delta_coeff batched over
    the tensor.
    """
    v = _from_coords(b.T, s.mu.shape[0])
    g = b.T @ lmat
    h = -8.0 * (b.T @ _to_coords(_delta_coeff(v, s.r)).T) + 32.0 * (g @ g.T)
    h -= s.radial * (b.T @ b)
    return 0.5 * (h + h.T)


def _may_certify(s: _State) -> bool:
    """Whether the gradient at s leaves its certificate a chance to pass.

    A certificate passes when its residual ||E||, E = R - c I - D and D a
    hermitian derivation, is negligible against ||R|| (moment.criticality),
    and gives g_tan = -8 P delta_mu(E), as delta_mu(I) = mu is radial and
    delta_mu(D) = 0; with ||delta_mu(A)|| <= 3 ||A|| at unit mu, ||g_tan||
    is then negligible against 24 ||R||.  The factor 32 leaves room for the
    rounding of the computed derivations, and scaling by it is exact.
    ||R||_F = sqrt(tr(R^2)) as R is hermitian.
    """
    return _negligible(s.gnorm, 32.0 * np.sqrt(s.f), 1.0)


def _newton_trials(s: _State, b: np.ndarray, lmat: np.ndarray):
    """The states of one Newton round from s in the span of b, lazily, in
    ladder order.

    The Newton equation _hessian(s, b, lmat) sol = b^T coords(-g_tan) is
    solved by truncated pseudoinverses over a ladder of spectral cutoffs,
    and the step is _from_coords(b sol).  Cuts that keep the same
    eigenvalues give the same step, which is tried once; a step is
    shortened to the trust radius 0.1, as the polish is a local correction;
    and a step that raises the energy above s.f + _F_SLACK is skipped.
    """
    evals, q = np.linalg.eigh(_hessian(s, b, lmat))
    rhs = q.T @ (b.T @ _to_coords(-s.g_tan))
    big = float(np.max(np.abs(evals))) or 1.0
    tried = []
    for rcond in (1e-4, 1e-5, 1e-6, 1e-8):
        inv = np.where(np.abs(evals) > rcond * big, evals, np.inf)
        sol = q @ (rhs / inv)
        if any(np.array_equal(sol, prev) for prev in tried):
            continue
        tried.append(sol)
        step = _from_coords(b @ sol, s.mu.shape[0])
        norm = np.linalg.norm(step)
        if not np.isfinite(norm) or norm == 0.0:
            continue
        if norm > 0.1:
            step = step * (0.1 / norm)
        mu_t = _normalized(s.mu + step)
        r_t, f_t = _energy(mu_t)
        if f_t <= s.f + _F_SLACK:
            yield _state(mu_t, r_t, f_t)


def _newton_polish(s: _State, report_fn):
    """Sharpen a near-stationary point by Newton steps on the gradient.

    The descent's energy comparisons go blind once tr(R^2) reaches its
    rounding floor, which leaves the point a few orders of magnitude away
    from the critical set; solving the linearized stationarity equation
    closes that gap.  The Hessian is rank-deficient along the unitary-orbit
    directions, and on degenerate approaches the curvature of the slow
    directions itself decays toward zero, so each round tries the cut
    ladder of _newton_trials.

    Both rounds are _newton_trials with the one _hessian; they differ only
    in the basis b of their directions and in which candidates they
    certify.  With x = _to_coords(mu), L = _hermitian_delta_matrix(mu) and
    P = I - x x^T the tangent projection of the sphere:

    - The orbit round comes first, with b = PL: the n^2 hermitian
      directions delta_mu(A).  The gradient -8 delta_mu(R) - lambda mu lies
      in their span, so the round's gradient (PL)^T g vanishes only where
      g_tan does.  A candidate is certified only when _may_certify allows
      it, as report_fn(t, gated=True) returns None otherwise; the first
      certified one ends the polish.  A round that certifies nothing is
      dropped.
    - The ambient rounds run from the same entry point, with b = P: all
      n^2 (n-1) tangent directions.  Every candidate is certified up to the
      first that passes, which ends the polish.  A round that certifies
      none moves to the candidate with the smallest residual if that is
      below 0.9 times the current point's, and ends the polish otherwise.

    The current point's own certificate is computed only where it is read:
    after an ambient round that certifies nothing, or on return.  Returns
    the refined state and its report.
    """
    if s.gnorm > 1e-13:
        lmat = _hermitian_delta_matrix(s.mu)
        x = _to_coords(s.mu)
        for t in _newton_trials(s, lmat - np.outer(x, x @ lmat), lmat):
            rep_t = report_fn(t, gated=True)
            if rep_t is not None and rep_t.is_critical:
                return t, rep_t
    report = None
    for _ in range(_POLISH_ROUNDS):
        if s.gnorm <= 1e-13:
            break
        chosen = None
        x = _to_coords(s.mu)
        p = np.eye(len(x)) - np.outer(x, x)
        for t in _newton_trials(s, p, _hermitian_delta_matrix(s.mu)):
            rep_t = report_fn(t)
            if rep_t.is_critical:
                return t, rep_t
            if chosen is None or rep_t.residual < chosen[1].residual:
                chosen = (t, rep_t)
        if report is None:
            report = report_fn(s)
        if chosen is None or chosen[1].residual >= 0.9 * report.residual:
            break
        s, report = chosen
    if report is None:
        report = report_fn(s)
    return s, report


def flow(mu0: StructureTensor) -> FlowTrace:
    """Integrate the negative gradient flow from mu0 (normalized internally).

    A start that certifies as critical is its own limit.  Otherwise the
    descent runs until the tangential gradient is below _NEWTON_GATE, or
    below _POLISH_GATE after _FIRST_POLISH accepted steps; it also stops at
    the _MAX_STEPS guard, which no measured default flow reaches, and where
    its step size underflows.  The point it reaches gets one Newton polish
    if its gradient is below _POLISH_GATE and one certificate otherwise,
    and that certificate alone decides converged: a polish that certifies
    nothing ends the flow, and the descent does not resume.  Apart from the
    polish's candidates, only the start is certified, and only where
    _may_certify allows it.
    """
    if mu0.is_zero():
        raise ValueError("cannot flow the zero tensor")

    mu = _normalized(mu0.coeff)
    s = _state(mu, *_energy(mu))
    samples = [(0, s.f, s.gnorm)]

    def _report(state: _State, gated: bool = False) -> CriticalReport | None:
        if gated and not _may_certify(state):
            return None  # the gradient rules the certificate out
        return criticality(StructureTensor(state.mu))

    report = _report(s, gated=True)
    if report is None or not report.is_critical:
        h = _INITIAL_STEP
        for step in range(1, _MAX_STEPS + 1):
            mu_t = _normalized(s.mu - h * s.g_tan)
            r_t, f_t = _energy(mu_t)
            if f_t <= s.f + _F_SLACK:
                s = _state(mu_t, r_t, f_t)
                samples.append((step, s.f, s.gnorm))
                h *= _GROWTH
                # Newton can finish the descent; slowly converging
                # trajectories hand over after _FIRST_POLISH accepted steps
                if s.gnorm < _NEWTON_GATE or (
                    len(samples) > _FIRST_POLISH and s.gnorm < _POLISH_GATE
                ):
                    break
            else:
                h *= _SHRINK
                if h < _MIN_STEP:
                    break
        if s.gnorm < _POLISH_GATE:
            s, report = _newton_polish(s, _report)
        else:
            report = _report(s)

    trace = FlowTrace(
        samples=samples,
        limit=StructureTensor(s.mu),
        converged=report.is_critical,
        limit_report=report,
    )
    if trace.converged:
        try:
            trace.stratum = extract_type(report.D_mu)
        except TypeExtractionError as exc:
            trace.error = f"type extraction failed at the limit: {exc}"
    return trace


def flow_batch(inputs) -> list:
    """Run flow on each input independently; order matches the input order.

    Per-item failures (for example a zero tensor) are recorded in the
    corresponding trace's error field rather than raised.
    """
    out = []
    for mu0 in inputs:
        try:
            out.append(flow(mu0))
        except (ValueError, np.linalg.LinAlgError) as exc:
            out.append(FlowTrace(limit=mu0, error=str(exc)))
    return out
