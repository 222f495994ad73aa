import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow import (
    StructureTensor,
    act,
    criticality,
    dim4_family,
    delta,
    gradient,
    hermitian_part,
    inner_product,
    moment_map,
    mu_he,
    random_tensor,
    scalar_F,
)
from skewflow.moment import _moment_coeff


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_moment_map_hermitian():
    for seed in range(5):
        r = moment_map(random_tensor(4, seed=seed))
        assert np.allclose(r, r.conj().T)


def _moment_reference(c):
    """R of the module docstring, sum by sum."""
    cbar = np.conj(c)
    r = -4.0 * np.einsum("pij,rij->rp", c, cbar) + 2.0 * np.einsum("ijp,ijr->rp", cbar, c)
    return hermitian_part(r)


def _unit_tensor(rng, n):
    mu = StructureTensor(rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)))
    return mu if mu.is_zero() else mu.normalized()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_moment_kernel_matches_einsum_reference(n, seed):
    c = _unit_tensor(np.random.default_rng(seed), n).coeff
    r = _moment_coeff(c)
    assert np.allclose(r, _moment_reference(c), rtol=0, atol=1e-13)
    assert np.array_equal(r, r.conj().T)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_squared_frobenius_norm_is_trace_of_square(n, seed):
    # scalar_F, criticality and the flow take tr(R^2) as ||R||_F^2
    mu = _unit_tensor(np.random.default_rng(seed), n)
    r = moment_map(mu)
    tr2 = np.trace(r @ r).real
    approx = pytest.approx(tr2, rel=1e-13, abs=1e-14 if n == 1 else 0.0)
    assert np.vdot(r, r).real == approx
    if n > 1:  # the zero tensor has no F
        assert scalar_F(mu) == approx
        assert criticality(mu).F_value == approx


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_moment_map_is_dual_to_delta(n, seed):
    # tr(R A) = -2 Re<delta_mu(A), mu> for hermitian A: the identity behind
    # the curvature term of the polish Hessian
    rng = np.random.default_rng(seed)
    mu = _unit_tensor(rng, n)
    a = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lhs = np.trace(moment_map(mu) @ a).real
    rhs = -2.0 * inner_product(delta(mu, a), mu).real
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_trace_identity():
    # tr R = -2 ||mu||^2, for arbitrary (non-Lie) tensors too
    for seed in range(8):
        mu = random_tensor(3 + seed % 3, seed=100 + seed)
        tr = np.trace(moment_map(mu)).real
        assert tr == pytest.approx(-2.0 * mu.norm() ** 2, rel=1e-12)


def test_moment_map_quadratic_scaling():
    mu = random_tensor(4, seed=1)
    scaled = StructureTensor(3.0 * mu.coeff)
    assert np.allclose(moment_map(scaled), 9.0 * moment_map(mu))


def test_scalar_F_scale_invariant():
    mu = random_tensor(4, seed=2)
    for s in (0.1, 2.0, 17.0):
        assert scalar_F(StructureTensor(s * mu.coeff)) == pytest.approx(
            scalar_F(mu), rel=1e-12
        )


def test_scalar_F_unitary_invariant():
    rng = np.random.default_rng(7)
    mu = random_tensor(4, seed=3)
    for _ in range(5):
        u = _unitary(rng, 4)
        assert scalar_F(act(u, mu)) == pytest.approx(scalar_F(mu), rel=1e-10)


def test_scalar_F_lower_bound():
    # tr(R^2) >= (tr R)^2 / n by Cauchy-Schwarz, so scalar_F >= 4/n
    for seed in range(10):
        n = 3 + seed % 4
        mu = random_tensor(n, seed=200 + seed)
        assert scalar_F(mu) >= 4.0 / n - 1e-12


def test_scalar_F_undefined_at_zero():
    with pytest.raises(ValueError):
        scalar_F(StructureTensor.zero(3))
    with pytest.raises(ValueError):
        criticality(StructureTensor.zero(3))


def test_gradient_matches_finite_differences():
    mu = random_tensor(3, seed=4).normalized()
    g = gradient(mu)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(4):
        v = rng.standard_normal(mu.coeff.shape) + 1j * rng.standard_normal(
            mu.coeff.shape
        )
        v = StructureTensor(v).normalized()  # antisymmetrize, unit norm

        def raw_f(t):
            r = moment_map(StructureTensor(mu.coeff + t * v.coeff))
            return np.trace(r @ r).real

        fd = (raw_f(h) - raw_f(-h)) / (2.0 * h)
        exact = np.vdot(g.coeff, v.coeff).real
        assert fd == pytest.approx(exact, rel=1e-6)


def test_tangential_gradient_orthogonal_to_point():
    mu = random_tensor(4, seed=5).normalized()
    g = gradient(mu)
    tg = StructureTensor(g.coeff - inner_product(g, mu).real * mu.coeff)
    assert abs(inner_product(tg, mu).real) <= 1e-10 * tg.norm()


class TestCriticality:
    def test_heisenberg_is_critical(self):
        rep = criticality(mu_he(3).tensor)
        assert rep.is_critical
        assert rep.residual <= 1e-10
        # at a unit-norm critical point F = tr(R^2) and c_mu = F / tr R
        assert rep.F_value == pytest.approx(12.0, abs=1e-10)
        assert rep.c_mu == pytest.approx(-6.0, abs=1e-10)

    def test_D_eigenvalues_nonneg_at_nilpotent_critical(self):
        rep = criticality(dim4_family("n4").tensor)
        assert rep.is_critical
        evals = rep.d_eigenvalues()
        assert np.all(evals >= -1e-8)
        assert np.allclose(rep.D_mu, rep.D_mu.conj().T)

    def test_random_tensor_not_critical(self):
        rep = criticality(random_tensor(4, seed=6))
        assert not rep.is_critical
        assert rep.residual > 1e-3

    def test_unitary_images_stay_critical(self):
        rng = np.random.default_rng(3)
        base = dim4_family("r2+r2").tensor
        for _ in range(3):
            rep = criticality(act(_unitary(rng, 4), base))
            assert rep.is_critical
            assert rep.F_value == pytest.approx(2.0, abs=1e-9)

    def test_generic_gl_image_not_critical(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rep = criticality(act(g, dim4_family("r2+r2").tensor))
        assert not rep.is_critical

    def test_input_normalized_internally(self):
        big = StructureTensor(25.0 * mu_he(3).tensor.coeff)
        rep = criticality(big)
        assert rep.F_value == pytest.approx(12.0, abs=1e-9)


def test_gradient_vanishes_tangentially_at_critical_point():
    mu = mu_he(4).tensor.normalized()
    g = gradient(mu)
    tg = StructureTensor(g.coeff - inner_product(g, mu).real * mu.coeff)
    assert tg.norm() <= 1e-10
