import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

import skewflow.algebra as algebra
from skewflow import (
    StructureTensor,
    all_entries,
    act,
    commutator,
    criticality,
    delta,
    derivation_algebra,
    direct_sum,
    dim4_family,
    extract_type,
    hermitian_part,
    inner_product,
    jacobi_residual,
    mu_A,
    mu_he,
    mu_hy,
    nilpotent_normal_form,
    random_tensor,
    semidirect_extension,
    sl2_compact,
    structure_invariants,
)
from skewflow.verify import _partitions_upto


def _rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestStructureTensor:
    def test_antisymmetry_enforced(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 1, 0] = 1.0
        c[1, 0, 0] = -1.0
        t = StructureTensor(c)
        assert np.array_equal(t.coeff, -t.coeff.transpose(1, 0, 2))

    def test_symmetric_part_projected_out(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 1, 0] = 1.0
        c[1, 0, 0] = 1.0  # symmetric in the first two slots
        assert StructureTensor(c).is_zero()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            StructureTensor(np.zeros((2, 3, 2), dtype=complex))

    def test_nonfinite_rejected(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 1, 0], c[1, 0, 0] = np.nan, -np.nan
        with pytest.raises(ValueError):
            StructureTensor(c)

    def test_from_brackets_mirrors(self):
        t = StructureTensor.from_brackets(3, {(0, 1): {2: 2.5}})
        assert t.coeff[0, 1, 2] == 2.5
        assert t.coeff[1, 0, 2] == -2.5

    def test_zero_and_norm(self):
        z = StructureTensor.zero(4)
        assert z.is_zero() and z.norm() == 0.0
        he = mu_he(3).tensor
        # two mirrored unit entries
        assert he.norm() == pytest.approx(np.sqrt(2.0))
        assert inner_product(he, he).real == pytest.approx(2.0)

    def test_normalized(self):
        t = random_tensor(4, seed=3)
        assert t.normalized().norm() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            StructureTensor.zero(3).normalized()

    def test_eq_hash(self):
        a = mu_he(3).tensor
        b = StructureTensor.from_brackets(3, {(0, 1): {2: 1}})
        assert a == b and hash(a) == hash(b)
        assert a != mu_he(4).tensor


def test_jacobi_residual_zero_on_lie_positive_otherwise():
    assert jacobi_residual(sl2_compact().tensor) <= 1e-14
    assert jacobi_residual(mu_he(5).tensor) <= 1e-14
    # a generic antisymmetric tensor violates Jacobi
    assert jacobi_residual(random_tensor(4, seed=11)) > 1e-3


class TestAction:
    def test_identity(self):
        t = dim4_family("g6").tensor
        assert np.allclose(act(np.eye(4), t).coeff, t.coeff)

    def test_composition(self):
        rng = np.random.default_rng(5)
        t = random_tensor(3, seed=1)
        g, h = _rand_matrix(rng, 3), _rand_matrix(rng, 3)
        lhs = act(g @ h, t)
        rhs = act(g, act(h, t))
        assert np.allclose(lhs.coeff, rhs.coeff, atol=1e-10)

    def test_singular_rejected(self):
        t = random_tensor(3, seed=2)
        g = np.diag([1.0, 1.0, 0.0])
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            act(g, t)

    def test_jacobi_invariant(self):
        rng = np.random.default_rng(8)
        t = dim4_family("n4").tensor
        g = _rand_matrix(rng, 4)
        assert jacobi_residual(act(g, t)) <= 1e-10


def test_inner_product_sesquilinear():
    a, b = random_tensor(3, seed=4), random_tensor(3, seed=5)
    z = 0.3 - 1.7j
    za = StructureTensor(z * a.coeff)
    zb = StructureTensor(z * b.coeff)
    # linear in the first slot, conjugate-linear in the second
    assert inner_product(za, b) == pytest.approx(z * inner_product(a, b))
    assert inner_product(a, zb) == pytest.approx(np.conj(z) * inner_product(a, b))
    assert inner_product(a, a).imag == pytest.approx(0.0)
    assert inner_product(b, a) == pytest.approx(np.conj(inner_product(a, b)))


def test_delta_of_identity_is_mu():
    mu = random_tensor(4, seed=21)
    assert np.allclose(delta(mu, np.eye(4)).coeff, mu.coeff)


def _random_coeff(rng, n):
    """A seeded antisymmetric coefficient array, any n >= 1 (zero at n = 1)."""
    return StructureTensor(
        rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    ).coeff


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_delta_star_is_adjoint_of_delta(n, seed):
    # <lam, delta_mu(A)> = tr(delta*_mu(lam) A*)
    rng = np.random.default_rng(seed)
    mu, lam = (StructureTensor(_random_coeff(rng, n)) for _ in range(2))
    a = _rand_matrix(rng, n)
    lhs = inner_product(lam, delta(mu, a))
    rhs = np.trace(algebra._delta_star_coeff(mu.coeff, lam.coeff) @ a.conj().T)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def _matrix_units(n):
    return np.eye(n * n).reshape(n * n, n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_delta_operator_is_delta_on_upper_pairs(n):
    rng = np.random.default_rng(n)
    c = _random_coeff(rng, n)
    a = _rand_matrix(rng, n)
    iu, ju = np.triu_indices(n, k=1)
    m = algebra._delta_matrix(c)
    assert m.shape == (n * n * (n - 1) // 2, n * n)
    expected = _delta_reference(c, a)[iu, ju].ravel()
    assert np.allclose(m @ a.ravel(), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_hermitian_system_is_delta_on_the_orthonormal_basis(n):
    mu = random_tensor(n, seed=60 + n) if n > 1 else StructureTensor.zero(1)
    got = algebra._hermitian_delta_matrix(mu.coeff)
    rows = n * n * (n - 1) // 2
    assert got.shape == (2 * rows, n * n) and np.isrealobj(got)
    iu, ju = np.triu_indices(n, k=1)
    for k, e in enumerate(np.eye(n * n)):
        h = algebra._hermitian_from_coords(e, n)
        expected = delta(mu, h).coeff[iu, ju].ravel()
        # the isometric coordinates carry each i < j entry scaled by sqrt(2)
        column = (got[:rows, k] + 1j * got[rows:, k]) / np.sqrt(2.0)
        assert np.allclose(column, expected, rtol=0, atol=1e-13)


def _unit_basis_inputs():
    """Random tensors at n = 1..9, every catalog entry, the 29 partition
    normal forms up to n = 13 and a GL image of each form with n <= 9."""
    rng = np.random.default_rng(26)
    for n in range(1, 10):
        yield f"random({n})", _random_coeff(rng, n)
    for e in all_entries():
        yield e.name, e.tensor.coeff
    for p in _partitions_upto(6):
        mu = mu_A(nilpotent_normal_form(p)).tensor
        yield str(p), mu.coeff
        if mu.dim <= 9:
            g = np.eye(mu.dim) + 0.3 * _rand_matrix(rng, mu.dim)
            yield f"gl{p}", act(g, mu).coeff


def test_unit_basis_matrices_are_delta_coeff_bit_for_bit():
    # the gathered matrices are _delta_coeff on the stacks of unit matrices,
    # byte for byte and in the same memory layout, so every SVD, certificate
    # and flow downstream reads the same numbers
    names = []
    for name, c in _unit_basis_inputs():
        n = c.shape[0]
        iu, ju = np.triu_indices(n, k=1)
        references = (
            (algebra._hermitian_delta_matrix(c),
             algebra._to_coords(algebra._delta_coeff(c, algebra._hermitian_units(n))).T),
            (algebra._delta_matrix(c),
             algebra._delta_coeff(c, _matrix_units(n))[:, iu, ju].reshape(n * n, -1).T),
        )
        for got, ref in references:
            assert got.shape == ref.shape and got.dtype == ref.dtype, name
            assert got.flags.f_contiguous == ref.flags.f_contiguous, name
            assert got.tobytes() == ref.tobytes(), name
        names.append(name)
    assert len(names) == 9 + len(all_entries()) + 29 + 20  # 20 forms have n <= 9
    assert "(1, 1, 1, 1, 1, 1)" in names  # n = 13


@pytest.mark.parametrize("hermitian", [True, False])
def test_unit_maps_hold_order_n3_entries(hermitian):
    # the gather's per-n cache holds O(n^3) entries: indices of the n^5
    # gathered entries, cached per n, would outweigh the matrices they build
    for n in (1, 4, 13):
        maps = algebra._unit_maps(n, hermitian)
        assert sum(m.size for m in maps) <= 3 * n**3 + 5


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_hermitian_coordinates_are_an_exact_isometry(n, batch, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, *batch, n * n))
    a = algebra._hermitian_from_coords(x, n)
    b = algebra._hermitian_from_coords(y, n)
    assert a.shape == (*batch, n, n)
    assert np.array_equal(a, np.conj(np.swapaxes(a, -1, -2)))  # hermitian exactly
    assert np.allclose(algebra._hermitian_coords(a), x, rtol=0, atol=1e-14)
    # Frobenius isometry: Re tr(A B*) = x . y
    frob = np.einsum("...ij,...ij->...", a, np.conj(b)).real
    assert np.allclose(frob, np.einsum("...i,...i->...", x, y), rtol=0, atol=1e-12)
    h = hermitian_part(_rand_matrix(rng, n))
    assert np.allclose(algebra._hermitian_from_coords(algebra._hermitian_coords(h), n), h,
                       rtol=0, atol=1e-14)


def _delta_reference(c, a):
    """delta_c(A) term by term, as in its definition."""
    t1 = np.einsum("...pi,pjk->...ijk", a, c)
    t2 = np.einsum("...pj,ipk->...ijk", a, c)
    t3 = np.einsum("...kr,ijr->...ijk", a, c)
    return t1 + t2 - t3


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    batch=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_delta_kernel_matches_einsum_reference(n, batch, seed):
    rng = np.random.default_rng(seed)
    c = StructureTensor(rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)))
    c = c.normalized().coeff if not c.is_zero() else c.coeff
    a = rng.standard_normal((*batch, n, n)) + 1j * rng.standard_normal((*batch, n, n))
    got = algebra._delta_coeff(c, a)
    assert got.shape == (*batch, n, n, n)
    assert np.allclose(got, _delta_reference(c, a), rtol=0, atol=1e-13)
    assert np.array_equal(got, -np.swapaxes(got, -3, -2))  # antisymmetric exactly


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_delta_kernel_batched_over_the_tensor(n):
    # a batch of tensors against one matrix, and against a batch of matrices,
    # gives each item's own coboundary
    rng = np.random.default_rng(n)
    cs = rng.standard_normal((4, n, n, n)) + 1j * rng.standard_normal((4, n, n, n))
    cs -= cs.swapaxes(1, 2)
    a = _rand_matrix(rng, n)
    many = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    got = algebra._delta_coeff(cs, a)
    assert got.shape == (4, n, n, n)
    assert np.array_equal(got, [algebra._delta_coeff(c, a) for c in cs])
    pairs = algebra._delta_coeff(cs, many)
    assert np.array_equal(pairs, [algebra._delta_coeff(c, b) for c, b in zip(cs, many)])


def _delta_star_reference(c, lam):
    """delta*_c(lam) term by term: the adjoints of the three terms of delta."""
    cbar = np.conj(c)
    a1 = np.einsum("vjk,ujk->uv", lam, cbar)
    a2 = np.einsum("ivk,iuk->uv", lam, cbar)
    a3 = np.einsum("iju,ijv->uv", lam, cbar)
    return a1 + a2 - a3


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_delta_star_kernel_matches_einsum_reference(n, seed):
    rng = np.random.default_rng(seed)
    c, lam = (_random_coeff(rng, n) for _ in range(2))
    if n > 1:
        c, lam = c / np.linalg.norm(c), lam / np.linalg.norm(lam)
    got = algebra._delta_star_coeff(c, lam)
    assert got.shape == (n, n)
    assert np.allclose(got, _delta_star_reference(c, lam), rtol=0, atol=1e-13)


def _act_reference(g, c):
    """(g.c)[i, j, k] = sum h[p, i] h[q, j] g[k, r] c[p, q, r], h = g^-1, in one einsum."""
    h = np.linalg.inv(g)
    return np.einsum("pi,qj,kr,pqr->ijk", h, h, g, c)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_act_kernel_matches_einsum_reference(n, seed):
    # g = U diag(s) V with U, V unitary and s in [1/2, 2]: cond(g) <= 4
    rng = np.random.default_rng(seed)
    c = _random_coeff(rng, n)
    if n > 1:
        c = c / np.linalg.norm(c)
    u, _, v = np.linalg.svd(_rand_matrix(rng, n))
    g = (u * np.exp(rng.uniform(-np.log(2.0), np.log(2.0), n))) @ v
    got = act(g, StructureTensor(c)).coeff
    assert np.allclose(got, _act_reference(g, c), rtol=0, atol=1e-13)


class TestDerivations:
    def test_sl2_inner_derivations(self):
        ders = derivation_algebra(sl2_compact().tensor)
        assert ders.dim_complex == 3  # semisimple: all derivations inner

    def test_heisenberg(self):
        ders = derivation_algebra(mu_he(3).tensor)
        assert ders.dim_complex == 6
        mu = mu_he(3).tensor
        for dmat in ders.hermitian_basis:
            assert np.allclose(hermitian_part(dmat), dmat)
            assert delta(mu, dmat).norm() <= 1e-9

    def test_basis_annihilates(self):
        mu = dim4_family("g6").tensor
        ders = derivation_algebra(mu)
        for amat in ders.complex_basis:
            assert delta(mu, amat).norm() <= 1e-9 * mu.norm()


# (dim_complex, dim_hermitian) of the derivation algebra, recorded with the
# full-SVD scipy.linalg.null_space implementation at rcond 1e-9.
ENTRY_DIMS = {
    "C4": (16, 16), "n3+C": (10, 5), "r2+C2": (8, 5), "r3+C": (6, 2),
    "r3l+C": (6, 3), "r2+r2": (4, 2), "sl2+C": (4, 2), "n4": (7, 2),
    "g1": (8, 5), "g2": (6, 1), "g3": (6, 1), "g4": (6, 3), "g5": (8, 2),
    "g6": (7, 4), "g7": (5, 2), "g8": (5, 1),
    "mu_he": (10, 5), "mu_hy": (12, 9), "sl2_compact": (3, 3),
}
PARTITION_DIMS = {
    (1,): (6, 4), (1, 1): (13, 5), (1, 1, 1): (25, 10),
    (1, 1, 1, 1): (41, 17), (1, 1, 1, 1, 1): (61, 26),
    (1, 1, 1, 1, 1, 1): (85, 37), (2,): (7, 2), (2, 1): (15, 3),
    (2, 1, 1): (27, 6), (2, 1, 1, 1): (43, 11), (2, 1, 1, 1, 1): (63, 18),
    (2, 2): (19, 5), (2, 2, 1): (31, 6), (2, 2, 1, 1): (47, 9),
    (2, 2, 2): (37, 10), (3,): (9, 2), (3, 1): (17, 3), (3, 1, 1): (29, 6),
    (3, 1, 1, 1): (45, 11), (3, 2): (21, 3), (3, 2, 1): (33, 4),
    (3, 3): (25, 5), (4,): (11, 2), (4, 1): (19, 3), (4, 1, 1): (31, 6),
    (4, 2): (23, 3), (5,): (13, 2), (5, 1): (21, 3), (6,): (15, 2),
}
RANDOM_DIMS = {
    2: (2, 1), 3: (1, 0), 4: (0, 0), 5: (0, 0), 6: (0, 0), 7: (0, 0), 8: (0, 0),
}
# The smallest dimensions, where the i < j operator has no more rows than
# columns; recorded with the operator on all n^3 rows.
SMALL_DIMS = {
    "mu_hy(2)": (mu_hy(2).tensor, (2, 1)),
    "zero(1)": (StructureTensor.zero(1), (1, 1)),
    "zero(2)": (StructureTensor.zero(2), (4, 4)),
}


def _pinned_inputs():
    for e in all_entries():
        yield e.name, e.tensor, ENTRY_DIMS[e.name]
    for name, (mu, dims) in SMALL_DIMS.items():
        yield name, mu, dims
    for p, dims in PARTITION_DIMS.items():
        yield str(p), mu_A(nilpotent_normal_form(p)).tensor, dims
    for n, dims in RANDOM_DIMS.items():
        for seed in (0, 1):
            yield f"random({n},{seed})", random_tensor(n, seed), dims


NULLITY_INPUTS = [
    mu_A(nilpotent_normal_form((1, 1, 1, 1, 1, 1))).tensor,  # n = 13
    mu_A(nilpotent_normal_form((3, 2))).tensor,
    random_tensor(8, seed=0),
    random_tensor(2, seed=0),
]
NULLITY_IDS = ["partition-n13", "partition-n8", "random-n8", "random-n2"]


def _delta_systems(mu):
    """The complex and the hermitian real system whose kernels are Der(mu)."""
    return (
        algebra._delta_matrix(mu.coeff),
        algebra._hermitian_delta_matrix(mu.coeff),
    )


class TestDerivationDims:
    def test_tables_cover_every_input(self):
        assert set(ENTRY_DIMS) == {e.name for e in all_entries()}
        assert len(PARTITION_DIMS) == 29  # every partition of size <= 6

    def test_pinned_dimensions_and_bases(self):
        for name, mu, dims in _pinned_inputs():
            if not mu.is_zero():
                nu = derivation_algebra(mu.normalized())
                assert (nu.dim_complex, nu.dim_hermitian) == dims, name
            ders = derivation_algebra(mu)
            assert (ders.dim_complex, ders.dim_hermitian) == dims, name
            n = mu.dim
            for basis in (ders.complex_basis, ders.hermitian_basis):  # Frobenius-orthonormal
                flat = basis.reshape(-1, n * n)
                assert np.allclose(flat @ flat.conj().T, np.eye(len(flat)), atol=1e-12), name
            bound = 1e-12 * max(mu.norm(), 1.0)
            for dmat in (*ders.complex_basis, *ders.hermitian_basis):
                assert delta(mu, dmat).norm() <= bound, name
            for dmat in ders.hermitian_basis:
                assert np.array_equal(dmat, dmat.conj().T), name

    @pytest.mark.parametrize("mu", NULLITY_INPUTS, ids=NULLITY_IDS)
    def test_nullity_matches_null_space(self, mu):
        for system in _delta_systems(mu):
            nullity = algebra._null_rows(system).shape[0]
            assert nullity == null_space(system, rcond=1e-9).shape[1]

    @pytest.mark.parametrize("mu", NULLITY_INPUTS, ids=NULLITY_IDS)
    def test_zero_rows_change_no_kernel(self, mu):
        for system in _delta_systems(mu):
            ref = null_space(system, rcond=1e-9)
            ref_proj = ref @ ref.conj().T
            zeros = np.zeros_like(system)
            interleaved = np.stack([system, zeros], axis=1).reshape(-1, system.shape[1])
            for padded in (system, np.concatenate([system, zeros]), interleaved):
                rows = algebra._null_rows(padded)
                assert rows.shape[0] == ref.shape[1]
                assert np.abs(rows.T @ rows.conj() - ref_proj).max() <= 1e-12

    def test_null_rows_qr_reduction_is_bitwise(self):
        # Past gesdd's own QR crossover (rows >= 11/6 columns real, 17/9
        # complex), _null_rows takes the SVD of the triangular factor of
        # np.linalg.qr, which LAPACK's gesdd also does internally: the kernel
        # rows equal those of the plain SVD bit for bit.  This pins LAPACK
        # behaviour; below the crossover both run the same call.
        rng = np.random.default_rng(0)
        inputs = [e.tensor for e in all_entries()]
        inputs += [random_tensor(n, seed=0) for n in range(2, 9)]
        for p in PARTITION_DIMS:
            mu = mu_A(nilpotent_normal_form(p)).tensor
            if mu.dim <= 9:
                inputs += [mu, act(np.eye(mu.dim) + 0.3 * _rand_matrix(rng, mu.dim), mu)]
        reduced = 0
        for mu in inputs:
            for system in _delta_systems(mu):
                m = system[np.any(system != 0, axis=1)]
                wide = m.shape[0] < m.shape[1]
                _, s, vh = np.linalg.svd(m, full_matrices=wide)
                assert np.array_equal(algebra._null_rows(system), vh[algebra._rank(s):].conj())
                reduced += m.shape[0] >= 2 * m.shape[1]
        assert reduced >= 60

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_all_zero_matrix_has_full_kernel(self, dtype):
        for k, width in ((5, 3), (3, 5), (0, 4)):
            rows = algebra._null_rows(np.zeros((k, width), dtype))
            assert rows.shape == (width, width)
            assert np.allclose(rows @ rows.conj().T, np.eye(width), atol=1e-12)

    def test_bases_built_on_demand(self, monkeypatch):
        kinds = []
        real_null_rows = algebra._null_rows

        def counting(m):
            kinds.append("hermitian" if np.isrealobj(m) else "complex")
            return real_null_rows(m)

        mu = dim4_family("g6").tensor
        monkeypatch.setattr(algebra, "_null_rows", counting)
        criticality(mu)
        assert kinds == ["hermitian"]
        kinds.clear()
        structure_invariants(mu)
        assert kinds == []  # dim Der is read from derivation_algebra only
        kinds.clear()
        ders = derivation_algebra(mu)
        ders.dim_complex, ders.complex_basis, ders.dim_hermitian
        assert kinds == ["complex", "hermitian"]  # each basis computed once


def test_structure_invariants_flags():
    sl2 = structure_invariants(sl2_compact().tensor)
    assert sl2.is_lie and sl2.is_semisimple and not sl2.is_solvable
    he = structure_invariants(mu_he(3).tensor)
    assert he.is_nilpotent and he.is_solvable and not he.is_semisimple
    assert he.dim_center == 1
    r2 = structure_invariants(dim4_family("r2+C2").tensor)
    assert r2.is_solvable and not r2.is_nilpotent
    c4 = structure_invariants(StructureTensor.zero(4))
    assert c4.is_lie and c4.dim_center == 4
    non_lie = structure_invariants(random_tensor(3, seed=13))
    assert not non_lie.is_lie and non_lie.is_nilpotent is None


# every nonzero canonical entry, the sized families and the partition normal
# forms up to size 5: 49 Lie brackets
INVARIANT_INPUTS = {
    **{e.name: e.tensor for e in all_entries() if not e.tensor.is_zero()},
    **{f"mu_he({n})": mu_he(n).tensor for n in range(3, 9)},
    **{f"mu_hy({n})": mu_hy(n).tensor for n in range(2, 9)},
    **{f"nf{p}": mu_A(nilpotent_normal_form(p)).tensor for p in _partitions_upto(5)},
}


def _basis_changes(n):
    """Three seeded near-identity complex matrices, two seeded unitaries and
    a diagonal spread over two decades."""
    rng = np.random.default_rng(n)
    near = [np.eye(n) + 0.3 * _rand_matrix(rng, n) for _ in range(3)]
    unitary = [np.linalg.qr(_rand_matrix(rng, n))[0] for _ in range(2)]
    return [*near, *unitary, np.diag(np.logspace(0, -2, n))]


@pytest.mark.parametrize("name", list(INVARIANT_INPUTS))
def test_structure_invariants_do_not_depend_on_the_basis(name):
    # a series term or Killing form that vanishes for the algebra is only
    # rounding noise in another basis, and a complex basis must not conjugate
    # the series' subspaces
    mu = INVARIANT_INPUTS[name]
    expected = structure_invariants(mu)
    for g in _basis_changes(mu.dim):
        assert structure_invariants(act(g, mu)) == expected


SCALED_INPUTS = {
    **INVARIANT_INPUTS,
    **{f"random({n},{s})": random_tensor(n, s) for n in range(2, 7) for s in range(3)},
}


@pytest.mark.parametrize("name", list(SCALED_INPUTS))
def test_decisions_do_not_depend_on_the_scale(name):
    # F is scale-invariant, so no flag and no certificate may follow ||mu||;
    # an absolute Jacobi cut called small random tensors semisimple Lie algebras
    mu = SCALED_INPUTS[name]
    flags, report = structure_invariants(mu), criticality(mu)
    for e in range(-8, 9, 2):
        scaled = StructureTensor(10.0**e * mu.coeff)
        assert structure_invariants(scaled) == flags, e
        got = criticality(scaled)
        assert got.is_critical == report.is_critical, e
        assert got.F_value == pytest.approx(report.F_value, rel=1e-12), e


def test_semisimple_in_a_spread_basis():
    sl2 = sl2_compact().tensor
    g = np.diag([1.0, 1.0, 1 / 30, 1.0, 1.0, 1 / 30])
    flags = structure_invariants(act(g, direct_sum(sl2, sl2)))
    assert flags.is_semisimple and not flags.is_solvable


def test_direct_sum_blocks():
    a = sl2_compact().tensor
    b = mu_he(3).tensor
    s = direct_sum(a, b)
    assert s.dim == 6
    assert jacobi_residual(s) <= 1e-14
    assert np.allclose(s.coeff[:3, :3, :3], a.coeff)
    assert np.allclose(s.coeff[3:, 3:, 3:], b.coeff)
    # cross blocks vanish
    assert np.linalg.norm(s.coeff[:3, 3:, :]) == 0.0
    assert inner_product(s, s).real == pytest.approx(
        inner_product(a, a).real + inner_product(b, b).real
    )


def _semidirect_reference(lam, gens, c_lambda):
    """semidirect_extension pair by pair: ad matrices and the Gram matrix
    from matrix commutators, and each [B_i, B_j] solved for in the new basis."""
    m = lam.dim
    flat = np.array([np.ravel(g) for g in gens], dtype=complex)
    onb = algebra._row_span(flat).reshape(-1, m, m)
    d = len(onb)

    def coords(basis, k):
        return np.linalg.lstsq(basis.reshape(d, -1).T, k.ravel(), rcond=None)[0]

    ad = np.array([[coords(onb, commutator(a, b)) for b in onb] for a in onb])
    gram = -4.0 / c_lambda * np.array(
        [[0.5 * np.vdot(ad[b], ad[a]) + np.vdot(onb[b], onb[a]) for b in range(d)]
         for a in range(d)]
    )
    w, v = np.linalg.eigh(gram)
    new = np.einsum("aj,apq->jpq", (v * w**-0.5) @ v.conj().T, onb)
    out = np.zeros((d + m,) * 3, dtype=complex)
    for i in range(d):
        for j in range(d):
            out[i, j, :d] = coords(new, commutator(new[i], new[j]))
        out[i, d:, d:] = new[i].T
        out[d:, i, d:] = -new[i].T
    out[d:, d:, d:] = lam.coeff
    return out


class TestSemidirect:
    def test_rejects_zero_ideal(self):
        with pytest.raises(ValueError):
            semidirect_extension(StructureTensor.zero(3), [np.eye(3)], -6.0)

    def test_rejects_nonnegative_constant(self):
        he = mu_he(3).tensor.normalized()
        with pytest.raises(ValueError):
            semidirect_extension(he, [np.diag([1.0, 1.0, 2.0])], 1.0)

    def test_rejects_non_derivation(self):
        he = mu_he(3).tensor.normalized()
        with pytest.raises(ValueError):
            semidirect_extension(he, [np.diag([1.0, 1.0, 5.0])], -6.0)

    def test_extension_is_lie_and_contains_ideal(self):
        he = mu_he(3).tensor.normalized()
        ext = semidirect_extension(he, [np.diag([1.0, 1.0, 2.0]).astype(complex)], -6.0)
        assert ext.dim == 4
        assert jacobi_residual(ext) <= 1e-12
        # ideal slot keeps the heisenberg bracket (up to the ideal block)
        assert np.allclose(ext.coeff[1:, 1:, 1:], he.coeff)
        # the adjoined generator acts on the ideal, never lands outside it
        assert np.linalg.norm(ext.coeff[0, 1:, 0]) == 0.0

    @pytest.mark.parametrize("scale", [1e-9, 1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_generator_scale_decides_nothing(self, scale):
        # a small non-derivation has a small defect only because it is small
        he = mu_he(3).tensor.normalized()
        with pytest.raises(ValueError):
            semidirect_extension(he, [scale * np.diag([1.0, 1.0, 5.0])], -6.0)
        rep = criticality(semidirect_extension(he, [scale * np.diag([1.0, 1.0, 2.0])], -6.0))
        assert rep.is_critical
        assert str(extract_type(rep.D_mu)) == "(0<1<2;1,2,1)"
        assert rep.F_value == pytest.approx(3.0, abs=1e-12)

    def test_accepts_a_commuting_pair_with_a_rounding_commutator(self):
        # the closure residual is cut against the unit norms of the
        # orthonormal basis, not against the commutator's own rounding size
        he = mu_he(3).tensor.normalized()
        u = np.linalg.qr(_rand_matrix(np.random.default_rng(0), 2))[0]
        pair = [np.zeros((3, 3), dtype=complex) for _ in range(2)]
        for gen, weights in zip(pair, ([1.0, 0.0], [0.0, 1.0])):
            gen[:2, :2] = u @ np.diag(weights) @ u.conj().T
            gen[2, 2] = 1.0
        assert 0 < np.linalg.norm(commutator(*pair)) <= 1e-15
        ext = semidirect_extension(he, pair, -6.0)
        assert ext.dim == 5 and criticality(ext).is_critical

    @pytest.mark.parametrize("name, ctype, value", [
        ("torus", "(0<1<2;2,2,1)", 12 / 7),
        ("su(2)", "(0<1<2;3,2,1)", 6 / 5),
        ("u(2)", "(0<1<2;4,2,1)", 12 / 13),
    ])
    def test_extensions_by_nonabelian_and_higher_rank_algebras(self, name, ctype, value):
        # A on (x1, x2) is a derivation of mu_he(3) with tr A on x3
        def on_he(a):
            out = np.zeros((3, 3), dtype=complex)
            out[:2, :2] = a
            out[2, 2] = np.trace(a)
            return out

        pauli = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        gens = {
            "torus": [np.diag([1.0, 1.0, 2.0]), np.diag([1.0, -1.0, 0.0])],
            "su(2)": [on_he(1j * s) for s in pauli],
            "u(2)": [on_he(1j * s) for s in pauli] + [on_he(np.eye(2))],
        }[name]
        he = mu_he(3).tensor.normalized()
        ext = semidirect_extension(he, gens, criticality(he).c_mu)
        assert ext.dim == 3 + len(gens)
        reference = _semidirect_reference(he, gens, criticality(he).c_mu)
        assert np.allclose(ext.coeff, reference, rtol=0, atol=1e-13)
        assert jacobi_residual(ext) <= 1e-12
        rep = criticality(ext)
        assert rep.is_critical
        assert str(extract_type(rep.D_mu)) == ctype
        assert rep.F_value == pytest.approx(value, abs=1e-12)

    def test_complex_generator_acts_as_itself(self):
        # [B, e_p] = sum_k B[k, p] e_k, so ext.coeff[0, 1:, 1:] = B^T, with B
        # the generator up to a complex scale, never its conjugate
        he = mu_he(3).tensor.normalized()
        gen = np.diag([1.0, 1j, 1.0 + 1j])
        ext = semidirect_extension(he, [gen], -6.0)
        action = ext.coeff[0, 1:, 1:].T
        assert np.allclose(action / action[0, 0], gen, rtol=0, atol=1e-12)


def test_commutator_and_hermitian_part():
    rng = np.random.default_rng(1)
    a, b = _rand_matrix(rng, 4), _rand_matrix(rng, 4)
    assert np.allclose(commutator(a, b), a @ b - b @ a)
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)
