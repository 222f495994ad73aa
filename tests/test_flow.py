import sys

import numpy as np
import pytest

from skewflow import (
    DEFAULT_PARAMS,
    DIM4_FAMILY_NAMES,
    EXCLUDED_ORBITS,
    CriticalType,
    FlowTrace,
    StructureTensor,
    act,
    criticality,
    critical_value,
    derivation_algebra,
    dim4_family,
    flow,
    flow_batch,
    jacobi_residual,
    mu_A,
    mu_he,
    nilpotent_normal_form,
    random_tensor,
    resolve,
)
from skewflow.algebra import _hermitian_delta_matrix, _to_coords, _upper_pairs
from skewflow.flow import _energy, _from_coords, _hessian, _normalized, _state
from skewflow.moment import _moment_coeff

def test_zero_tensor_rejected():
    with pytest.raises(ValueError):
        flow(StructureTensor.zero(4))


def test_critical_start_converges_immediately():
    trace = flow(mu_he(4).tensor)
    assert trace.converged
    assert trace.samples[-1][0] == 0  # no descent steps accepted
    assert trace.stratum == CriticalType((2, 3, 4), (2, 1, 1))
    assert trace.limit_report.F_value == pytest.approx(12.0, abs=1e-9)


def test_limit_is_unit_norm():
    for name in ("g6", "r2+r2", "g4"):
        trace = flow(dim4_family(name).tensor)
        assert trace.converged
        assert trace.limit.norm() == pytest.approx(1.0, abs=1e-12)


def test_f_decreases_along_flow():
    trace = flow(dim4_family("g7").tensor)
    fs = [f for _, f, _ in trace.samples]
    diffs = np.diff(fs)
    assert np.all(diffs <= 1e-12)
    assert fs[-1] < fs[0]


def test_samples_start_at_zero_and_increase():
    trace = flow(dim4_family("r3+C").tensor)
    steps = [s for s, _, _ in trace.samples]
    assert steps[0] == 0
    assert all(a < b for a, b in zip(steps, steps[1:]))


def test_limit_value_matches_stratum():
    # self-consistency: numeric limit value agrees with the exact value of
    # the extracted type
    for name, params in (("g6", ()), ("r3l+C", (0.5,)), ("sl2+C", ())):
        trace = flow(dim4_family(name, params).tensor)
        assert trace.converged and trace.stratum is not None
        exact = float(critical_value(trace.stratum))
        assert trace.limit_report.F_value == pytest.approx(exact, abs=1e-6)


def test_derivation_dimension_never_drops():
    # the limit sits in the closure of the orbit, so Der can only grow
    for name in ("n4", "g6", "g2"):
        e = resolve(name)
        d0 = derivation_algebra(e.tensor.normalized()).dim_complex
        trace = flow(e.tensor)
        d1 = derivation_algebra(trace.limit).dim_complex
        assert d1 >= d0, name


def test_limit_of_lie_start_is_lie():
    for name in ("g4", "g7", "r2+C2"):
        trace = flow(dim4_family(name).tensor)
        assert jacobi_residual(trace.limit) <= 1e-6, name


def test_nilpotent_starts_get_positive_smallest_weight():
    # nilpotent brackets flow to strata whose smallest weight is positive
    for entry in (dim4_family("n3+C"), dim4_family("n4"), mu_he(4)):
        trace = flow(entry.tensor)
        assert trace.converged
        assert trace.stratum.ks[0] > 0
    # solvable non-nilpotent ones keep k_1 = 0
    trace = flow(dim4_family("r3+C").tensor)
    assert trace.stratum.ks[0] == 0


def test_tiny_budget_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(sys.modules["skewflow.flow"], "_MAX_STEPS", 2)
    trace = flow(dim4_family("g7").tensor)
    assert not trace.converged
    assert trace.stratum is None
    assert trace.limit_report is not None
    assert trace.limit_report.residual > 0.0
    assert trace.limit.norm() == pytest.approx(1.0, abs=1e-12)


def test_flow_is_deterministic():
    a = flow(dim4_family("g8", (2.0,)).tensor)
    b = flow(dim4_family("g8", (2.0,)).tensor)
    assert a.samples == b.samples
    assert a.limit == b.limit


def test_perturbed_starts_land_on_consistent_strata():
    # jitter a critical point; wherever the flow lands, the extracted type
    # must reproduce the numeric limit value
    base = mu_he(4).tensor.normalized()
    rng = np.random.default_rng(1)
    for _ in range(6):
        noise = rng.standard_normal(base.coeff.shape) + 1j * rng.standard_normal(
            base.coeff.shape
        )
        start = StructureTensor(base.coeff + 1e-3 * noise)
        trace = flow(start)
        assert trace.converged
        assert trace.stratum is not None
        exact = float(critical_value(trace.stratum))
        assert trace.limit_report.F_value == pytest.approx(exact, abs=1e-6)


def test_random_starts_converge():
    for seed in range(3):
        trace = flow(random_tensor(3, seed=seed))
        assert trace.converged
        rep = criticality(trace.limit)
        assert rep.is_critical


class TestFlowBatch:
    def test_order_preserved(self):
        inputs = [dim4_family("g6").tensor, mu_he(4).tensor]
        traces = flow_batch(inputs)
        assert len(traces) == 2
        assert traces[0].stratum == CriticalType((0, 1, 2), (1, 2, 1))
        assert traces[1].stratum == CriticalType((2, 3, 4), (2, 1, 1))

    def test_bad_item_recorded_not_raised(self):
        inputs = [StructureTensor.zero(3), dim4_family("r2+r2").tensor]
        traces = flow_batch(inputs)
        assert traces[0].error is not None
        assert not traces[0].converged
        assert traces[1].converged

    def test_empty(self):
        assert flow_batch([]) == []


def test_trace_dataclass_defaults():
    t = FlowTrace()
    assert t.samples == [] and t.limit is None and not t.converged


def _antisymmetric(rng, n):
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    return x - x.transpose(1, 0, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polish_coordinates_are_an_isometry(n):
    rng = np.random.default_rng(n)
    x, w = _antisymmetric(rng, n), _antisymmetric(rng, n)
    cx, cw = _to_coords(x), _to_coords(w)
    assert cx.shape == (n * n * (n - 1),)
    # Re<x, w> = cx . cw, to rounding
    assert cx @ cw == pytest.approx(np.vdot(w, x).real, rel=1e-14, abs=1e-14)
    back = _from_coords(cx, n)
    assert np.array_equal(back, -back.transpose(1, 0, 2))
    # one rounding of the sqrt(2) scale each way
    assert np.all(np.abs(back - x) <= 4e-16 * np.abs(x))
    y = rng.standard_normal(n * n * (n - 1))
    assert np.all(np.abs(_to_coords(_from_coords(y, n)) - y) <= 4e-16 * np.abs(y))
    # both directions work along leading batch axes, entry by entry
    assert np.array_equal(_from_coords(np.stack([cx, y]), n), [back, _from_coords(y, n)])
    assert np.array_equal(_to_coords(np.stack([x, w])), [cx, cw])


def _kron_hessian(s):
    """Reference sphere Hessian of tr(R^2) at unit s.mu, in all n^2 (n-1)
    coordinates of _to_coords, assembled entry by entry.

    The first term of the ambient second derivative -8 (delta_v(R) +
    delta_mu(dR[v])) is the linear map Lambda^2(R^T) (x) I - I (x) R of
    v[i < j, k], written out with Kronecker products and taken to real
    coordinates; the second is 32 L L^T.  The tangent projection
    P = I - x x^T and the sphere term -lambda P are rank-one updates.
    """
    mu, r = s.mu, s.r
    n = mu.shape[0]
    iu, ju = _upper_pairs(n)
    eye = np.eye(n)
    ij, ji = iu * n + ju, ju * n + iu
    pair = np.kron(r.T, eye) + np.kron(eye, r.T)  # R^T on both slots
    wedge = pair[np.ix_(ij, ij)] - pair[np.ix_(ij, ji)]  # on the i < j pairs
    k = np.kron(wedge, eye) - np.kron(np.eye(len(iu)), r)
    h = -8.0 * np.block([[k.real, -k.imag], [k.imag, k.real]])
    lmat = _hermitian_delta_matrix(mu)
    h += 32.0 * (lmat @ lmat.T)
    x = _to_coords(mu)
    u = h @ x
    h -= np.outer(x, u) + np.outer(u, x)
    h += (x @ u + s.radial) * np.outer(x, x)
    h[np.diag_indices_from(h)] -= s.radial
    return 0.5 * (h + h.T)


def _bases(s):
    """L, and the direction bases P and PL of the ambient and orbit rounds."""
    lmat = _hermitian_delta_matrix(s.mu)
    x = _to_coords(s.mu)
    p = np.eye(len(x)) - np.outer(x, x)
    return lmat, p, lmat - np.outer(x, x @ lmat)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_polish_hessian_matches_second_difference(n):
    # x^T H x is the second derivative of tr(R^2) along the great circle
    # cos(t) mu + sin(t) v through mu in the unit tangent direction v
    rng = np.random.default_rng(40 + n)
    mu = random_tensor(n, seed=40 + n).normalized().coeff
    s = _state(mu, *_energy(mu))
    lmat, p, _ = _bases(s)
    hess = _hessian(s, p, lmat)

    def energy(t, v):
        r = _moment_coeff(np.cos(t) * mu + np.sin(t) * v)
        return np.trace(r @ r).real

    h = 1e-4
    for _ in range(3):
        v = _from_coords(rng.standard_normal(n * n * (n - 1)), n)
        v -= np.vdot(mu, v).real * mu
        v /= np.linalg.norm(v)
        x = _to_coords(v)
        second = (energy(h, v) - 2.0 * energy(0.0, v) + energy(-h, v)) / h**2
        assert x @ hess @ x == pytest.approx(second, rel=1e-6)


def test_polish_hessian_vanishes_in_dimension_two():
    # at n = 2, R has eigenvalues -4|c01|^2 and 0 for every c, so tr(R^2) is
    # constant on the sphere and a second difference is only rounding
    for seed in range(3):
        mu = random_tensor(2, seed=seed).normalized().coeff
        s = _state(mu, *_energy(mu))
        lmat, p, pl = _bases(s)
        for b in (p, pl):
            assert np.abs(_hessian(s, b, lmat)).max() <= 1e-13


ORBIT_HESSIAN_POINTS = {
    **{f"random n={n}": random_tensor(n, seed=40 + n) for n in range(3, 9)},
    "g6": dim4_family("g6").tensor,  # critical: the gradient vanishes
}


def _unit_state(mu):
    c = mu.normalized().coeff
    return _state(c, *_energy(c))


@pytest.mark.parametrize("name", list(ORBIT_HESSIAN_POINTS))
def test_ambient_hessian_is_the_kron_reference(name):
    s = _unit_state(ORBIT_HESSIAN_POINTS[name])
    lmat, p, _ = _bases(s)
    hess, ref = _hessian(s, p, lmat), _kron_hessian(s)
    assert np.abs(hess - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("name", list(ORBIT_HESSIAN_POINTS))
def test_orbit_hessian_is_the_ambient_one_on_the_orbit_directions(name):
    s = _unit_state(ORBIT_HESSIAN_POINTS[name])
    lmat, _, pl = _bases(s)
    hess = _hessian(s, pl, lmat)
    ref = pl.T @ _kron_hessian(s) @ pl
    assert np.abs(hess - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("name", list(ORBIT_HESSIAN_POINTS))
def test_orbit_hessian_matches_second_difference(name):
    # a^T H a is the second derivative of tr(R^2) along
    # t -> normalize(mu + t PL a), the orbit direction's tangent part
    s = _unit_state(ORBIT_HESSIAN_POINTS[name])
    n = s.mu.shape[0]
    lmat, _, pl = _bases(s)
    hess = _hessian(s, pl, lmat)
    rng = np.random.default_rng(n)

    def energy(t, a):
        return _energy(_normalized(s.mu + t * _from_coords(pl @ a, n)))[1]

    h = 1e-4
    for _ in range(3):
        a = rng.standard_normal(n * n)
        a /= np.linalg.norm(pl @ a)
        second = (energy(h, a) - 2.0 * energy(0.0, a) + energy(-h, a)) / h**2
        assert a @ hess @ a == pytest.approx(second, rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("name", list(ORBIT_HESSIAN_POINTS))
def test_gradient_lies_in_the_orbit_directions(name):
    # g_tan = -8 delta_mu(R - c I) for real c, so the orbit round's gradient
    # (PL)^T g vanishes only where g_tan does
    s = _unit_state(ORBIT_HESSIAN_POINTS[name])
    lmat = _hermitian_delta_matrix(s.mu)
    g = _to_coords(s.g_tan)
    coef = np.linalg.lstsq(lmat, g, rcond=None)[0]
    assert np.linalg.norm(g - lmat @ coef) <= 1e-12 * max(s.gnorm, 1e-300)


# (family, parameters): g6, g7, g5 and g2(1/27, 1/3) end on the polish their
# small gradient triggers, and n4 is critical at the start
CERTIFY_STARTS = {
    "g6": ("g6", ()),
    "g7": ("g7", ()),
    "n4": ("n4", ()),
    "g5": ("g5", ()),
    "g2": ("g2", (1 / 27, 1 / 3)),
}


def _certify_flow(key):
    name, params = CERTIFY_STARTS[key]
    return flow(dim4_family(name, params).tensor)


@pytest.mark.parametrize("name", ["g7", "g2"])
def test_iterates_and_limit_stay_exactly_antisymmetric(name, monkeypatch):
    # every point whose energy the flow evaluates: the start, each descent
    # trial, rejected ones included, and each polish candidate
    flow_module = sys.modules["skewflow.flow"]
    energy = flow_module._energy
    seen = []

    def recording(mu):
        seen.append(mu)
        return energy(mu)

    monkeypatch.setattr(flow_module, "_energy", recording)
    trace = _certify_flow(name)
    assert trace.converged and len(seen) >= len(trace.samples)
    for mu in seen:
        assert np.array_equal(mu, -mu.transpose(1, 0, 2))
    # so antisymmetrizing the limit into a StructureTensor leaves it as is
    assert any(np.array_equal(trace.limit.coeff, mu) for mu in seen)


@pytest.mark.parametrize("name", list(CERTIFY_STARTS))
def test_each_point_is_certified_once(name, monkeypatch):
    # the polish certifies its entry point only when a round certifies no
    # candidate, so no point, the polish's entry point included, is
    # certified twice
    flow_module = sys.modules["skewflow.flow"]
    seen = []

    def recording(mu, **kwargs):
        seen.append(mu.coeff.tobytes())
        return criticality(mu, **kwargs)

    monkeypatch.setattr(flow_module, "criticality", recording)
    assert _certify_flow(name).converged
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("name", list(CERTIFY_STARTS))
def test_certificates_only_where_the_flow_can_stop(name, monkeypatch):
    # outside the polish the flow certifies only its start, as a flow that
    # polishes takes the polish's certificate for its end; the polish
    # certifies its own entry point where it reads that certificate
    flow_module = sys.modules["skewflow.flow"]
    polish = flow_module._newton_polish
    counts = {"outside": 0, "polishes": 0}
    in_polish = []

    def recording(mu, **kwargs):
        if not in_polish:
            counts["outside"] += 1
        return criticality(mu, **kwargs)

    def wrapped(*args, **kwargs):
        counts["polishes"] += 1
        in_polish.append(True)
        try:
            return polish(*args, **kwargs)
        finally:
            in_polish.pop()

    monkeypatch.setattr(flow_module, "criticality", recording)
    monkeypatch.setattr(flow_module, "_newton_polish", wrapped)
    assert _certify_flow(name).converged
    assert counts["outside"] <= 1


POLISH_STARTS = {
    **{name: dim4_family(name).tensor for name in ("g6", "g7", "sl2+C")},
    **{f"random n={n}": random_tensor(n, seed=0) for n in range(5, 9)},
}


@pytest.mark.parametrize("name", list(POLISH_STARTS))
def test_certifying_round_stops_at_first_certified_candidate(name, monkeypatch):
    # is_critical of each certificate, one list per _newton_polish call
    flow_module = sys.modules["skewflow.flow"]
    polish = flow_module._newton_polish
    polishes, active = [], []

    def recording(mu):
        rep = criticality(mu)
        if active:
            active[-1].append(rep.is_critical)
        return rep

    def wrapped(*args, **kwargs):
        active.append([])
        try:
            return polish(*args, **kwargs)
        finally:
            polishes.append(active.pop())

    monkeypatch.setattr(flow_module, "criticality", recording)
    monkeypatch.setattr(flow_module, "_newton_polish", wrapped)
    assert flow(POLISH_STARTS[name]).converged
    assert any(True in checks for checks in polishes)
    for checks in polishes:
        assert True not in checks[:-1]


# each of these rejects at least one descent trial before its polish (g7
# rejects none)
KEPT_POINT_STARTS = {
    **{name: dim4_family(name).tensor for name in ("g6", "sl2+C")},
    "g3(2)": dim4_family("g3", (2.0,)).tensor,
    **{f"random n={n}": random_tensor(n, seed=0) for n in range(5, 9)},
}


@pytest.mark.parametrize("name", list(KEPT_POINT_STARTS))
def test_gradient_only_at_kept_points(name, monkeypatch):
    # outside the polish the flow builds the gradient at its start and at
    # each accepted trial, which are exactly its samples; a rejected trial
    # costs one moment map and no coboundary
    flow_module = sys.modules["skewflow.flow"]
    delta_coeff, energy, polish = (
        flow_module._delta_coeff, flow_module._energy, flow_module._newton_polish
    )
    counts = {"gradients": 0, "trials": 0}
    in_polish = []

    def counting_delta(*args):
        if not in_polish:
            counts["gradients"] += 1
        return delta_coeff(*args)

    def counting_energy(mu):
        if not in_polish:
            counts["trials"] += 1
        return energy(mu)

    def wrapped(*args, **kwargs):
        in_polish.append(True)
        try:
            return polish(*args, **kwargs)
        finally:
            in_polish.pop()

    monkeypatch.setattr(flow_module, "_delta_coeff", counting_delta)
    monkeypatch.setattr(flow_module, "_energy", counting_energy)
    monkeypatch.setattr(flow_module, "_newton_polish", wrapped)
    trace = flow(KEPT_POINT_STARTS[name])
    assert trace.converged
    assert counts["gradients"] == len(trace.samples)
    assert counts["trials"] > len(trace.samples)  # so some trials were rejected


@pytest.mark.parametrize("n", range(5, 9))
def test_random_flow_certifies_its_start_and_one_candidate(n, monkeypatch):
    # each of these polishes once, when its gradient falls below
    # _NEWTON_GATE, and a candidate of its orbit round certifies; the start
    # is not certified, as its gradient rules a pass out, so only that
    # candidate is
    flow_module = sys.modules["skewflow.flow"]
    calls = []

    def recording(mu, **kwargs):
        calls.append(mu)
        return criticality(mu, **kwargs)

    monkeypatch.setattr(flow_module, "criticality", recording)
    for seed in range(3):
        calls.clear()
        assert flow(random_tensor(n, seed=seed)).converged
        assert len(calls) == 1


def _gl_images(mu, count, seed):
    rng = np.random.default_rng(seed)
    n = mu.dim
    for _ in range(count):
        g = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        yield act(g, mu)


# the normal forms of the flow-scale benchmark at n >= 6, with blocks summing
# to n - 1, and two GL images of each
LARGE_IMAGES = {
    f"nf{p} GL#{k}": image
    for p in ((2, 1), (3, 1), (3, 2))
    for k, image in enumerate(_gl_images(mu_A(nilpotent_normal_form(p)).tensor, 2, sum(p)))
}
CLOSURE_PINS = [("r3+C", ()), ("g5", ()), ("g8", (0.25,)), ("g2", (1 / 27, 1 / 3))]


def _count_ambient_hessians(monkeypatch):
    # the Hessians of the ambient rounds: those in all n^2 (n - 1) directions
    flow_module = sys.modules["skewflow.flow"]
    hessian = flow_module._hessian
    calls = []

    def counting(s, b, lmat):
        n = s.mu.shape[0]
        if b.shape[1] == n * n * (n - 1):
            calls.append(n)
        return hessian(s, b, lmat)

    monkeypatch.setattr(flow_module, "_hessian", counting)
    return calls


@pytest.mark.parametrize("name", list(LARGE_IMAGES))
def test_large_images_need_no_ambient_hessian(name, monkeypatch):
    # the orbit round certifies these: no n^2 (n - 1) square matrix is formed
    calls = _count_ambient_hessians(monkeypatch)
    assert flow(LARGE_IMAGES[name]).converged
    assert calls == []


@pytest.mark.parametrize("n", range(5, 9))
def test_random_flows_need_no_ambient_hessian(n, monkeypatch):
    calls = _count_ambient_hessians(monkeypatch)
    for seed in range(3):
        assert flow(random_tensor(n, seed=seed)).converged
    assert calls == []


@pytest.mark.parametrize("name, params", CLOSURE_PINS)
def test_closure_pins_fall_back_to_the_ambient_polish(name, params, monkeypatch):
    # the orbit round certifies nothing on these closure-limit approaches, so
    # the ambient rounds run; the pinned outcomes of FLOW_PINS still hold
    calls = _count_ambient_hessians(monkeypatch)
    assert flow(dim4_family(name, params).tensor).converged
    assert calls and set(calls) == {4}


TRIGGER_STARTS = {**POLISH_STARTS, "g8(2)": dim4_family("g8", (2.0,)).tensor}


@pytest.mark.parametrize("name", list(TRIGGER_STARTS))
def test_first_polish_when_the_gradient_is_small(name, monkeypatch):
    # the descent hands over to Newton as soon as the tangential gradient is
    # below _NEWTON_GATE, long before the 512 accepted steps of the count
    # trigger
    flow_module = sys.modules["skewflow.flow"]
    state, polish = flow_module._state, flow_module._newton_polish
    kept, entries = [], []

    def counting_state(*args):
        if not entries:  # the start and the accepted trials before a polish
            kept.append(True)
        return state(*args)

    def recording(s, *args, **kwargs):
        entries.append((s.gnorm, len(kept) - 1))
        return polish(s, *args, **kwargs)

    monkeypatch.setattr(flow_module, "_state", counting_state)
    monkeypatch.setattr(flow_module, "_newton_polish", recording)
    assert flow(TRIGGER_STARTS[name]).converged
    gnorm, accepted = entries[0]
    assert gnorm < flow_module._NEWTON_GATE
    assert accepted < 64


@pytest.mark.parametrize("name", ["g7", "random n=5"])
def test_a_polish_that_certifies_nothing_ends_the_flow(name, monkeypatch):
    # the polish is made to certify nothing and to return its entry point;
    # the flow ends there, unconverged, and the descent does not resume
    flow_module = sys.modules["skewflow.flow"]
    entries = []

    def failing(s, report_fn):
        entries.append(s)
        rep = report_fn(s)
        assert not rep.is_critical
        return s, rep

    monkeypatch.setattr(flow_module, "_newton_polish", failing)
    trace = flow(POLISH_STARTS[name])
    assert not trace.converged and trace.stratum is None
    assert len(entries) == 1
    assert entries[0].gnorm < flow_module._NEWTON_GATE
    assert np.array_equal(trace.limit.coeff, entries[0].mu)
    fs = [f for _, f, _ in trace.samples]
    assert np.all(np.diff(fs) <= 1e-12)


@pytest.mark.parametrize("name, params", [("g8", (0.25,)), ("r3+C", ()), ("g5", ())])
def test_closure_approaches_at_a_tight_crit_tol_end_unconverged(name, params, monkeypatch):
    # the polish cannot certify these approaches to their closure limits at
    # a residual cut of 1e-9; the flow reports that, with no label, rather
    # than a wrong one
    monkeypatch.setattr(sys.modules["skewflow.algebra"], "_RESIDUAL_TOL", 1e-9)
    trace = flow(dim4_family(name, params).tensor)
    assert not trace.converged and trace.stratum is None


# (len(samples), converged, stratum, F) of the default-parameter flow from
# each nonzero four-dimensional family at DEFAULT_PARAMS and from the start
# of each excluded orbit (g5 is both); where the flow computes its
# criticality certificate must not change any of them
FLOW_PINS = {
    ("n3+C", ()): (1, True, "(2<3<4;2,1,1)", 12.0),
    ("r2+C2", ()): (1, True, "(0<1;1,3)", 4.0),
    ("r3+C", ()): (62, True, "(0<1;1,3)", 4.0),
    ("r3l+C", (0.5,)): (1, True, "(0<1;1,3)", 4.0),
    ("r2+r2", ()): (1, True, "(0<1;2,2)", 2.0),
    ("sl2+C", ()): (25, True, "(0<1;3,1)", 4 / 3),
    ("n4", ()): (1, True, "(1<2<3<4;1,1,1,1)", 6.0),
    ("g1", (2.0,)): (1, True, "(0<1;1,3)", 4.0),
    ("g2", (2.0, 1.0)): (26, True, "(0<1;1,3)", 4.0),
    ("g3", (2.0,)): (37, True, "(0<1;1,3)", 4.0),
    ("g4", ()): (1, True, "(0<1;1,3)", 4.0),
    ("g5", ()): (62, True, "(0<1;1,3)", 4.0),
    ("g6", ()): (27, True, "(0<1<2;1,2,1)", 3.0),
    ("g7", ()): (25, True, "(0<1<2;1,2,1)", 3.0),
    ("g8", (2.0,)): (25, True, "(0<1<2;1,2,1)", 3.0),
    ("g8", (0.25,)): (513, True, "(0<1<2;1,2,1)", 3.0),
    ("g3", (6.75,)): (267, True, "(0<1;1,3)", 4.0),
    ("g2", (1 / 27, 1 / 3)): (62, True, "(0<1;1,3)", 4.0),
}


def test_flow_pins_cover_families_and_excluded_orbits():
    families = {
        (name, DEFAULT_PARAMS.get(name, ())) for name in DIM4_FAMILY_NAMES if name != "C4"
    }
    excluded = {(o.name, o.params) for o in EXCLUDED_ORBITS}
    assert len(families) == 15 and len(excluded) == 4
    assert set(FLOW_PINS) == families | excluded


@pytest.mark.parametrize(
    "name, params",
    list(FLOW_PINS),
    ids=[name + (f"({','.join(f'{p:.4g}' for p in params)})" if params else "")
         for name, params in FLOW_PINS],
)
def test_pinned_flow_outcome(name, params):
    steps, converged, stratum, value = FLOW_PINS[name, params]
    trace = flow(dim4_family(name, params).tensor)
    assert (len(trace.samples), trace.converged, str(trace.stratum)) == (
        steps, converged, stratum,
    )
    assert trace.limit_report.F_value == pytest.approx(value, abs=1e-9)
    # the certificate returned is the limit's own, not that of another point
    assert trace.limit_report.residual == criticality(trace.limit).residual


GATE_STARTS = {
    **{f"{name}{params}": dim4_family(name, params).tensor for name, params in FLOW_PINS},
    **{f"random n={n} #{seed}": random_tensor(n, seed=seed)
       for n in range(3, 9) for seed in range(2)},
}


@pytest.mark.parametrize("name", list(GATE_STARTS))
def test_gate_admits_every_certified_point(name, monkeypatch):
    # a certified point has ||g_tan|| <= 24 _RESIDUAL_TOL ||R|| up to
    # rounding, so the gate at 32 _RESIDUAL_TOL ||R|| never skips a
    # certificate that could pass; checked on the start and on each point
    # the flow certifies
    flow_module = sys.modules["skewflow.flow"]
    certified = []

    def recording(mu, **kwargs):
        rep = criticality(mu, **kwargs)
        if rep.is_critical:
            certified.append(mu)
        return rep

    monkeypatch.setattr(flow_module, "criticality", recording)
    start = GATE_STARTS[name]
    if criticality(start).is_critical:
        certified.append(start)
    assert flow(start).converged
    assert certified
    for mu in certified:
        s = _unit_state(mu)
        assert s.gnorm <= 24 * sys.modules["skewflow.algebra"]._RESIDUAL_TOL * np.sqrt(s.f)
        assert flow_module._may_certify(s)


@pytest.mark.parametrize("name", list(GATE_STARTS))
def test_at_most_one_polish(name, monkeypatch):
    # the descent hands over to Newton once, whatever the polish certifies
    flow_module = sys.modules["skewflow.flow"]
    polish = flow_module._newton_polish
    calls = []

    def counting(*args):
        calls.append(True)
        return polish(*args)

    monkeypatch.setattr(flow_module, "_newton_polish", counting)
    flow(GATE_STARTS[name])
    assert len(calls) <= 1
