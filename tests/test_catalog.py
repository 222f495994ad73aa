from fractions import Fraction

import numpy as np
import pytest

from skewflow import (
    DEFAULT_PARAMS,
    DIM4_FAMILY_NAMES,
    EXCLUDED_ORBITS,
    CriticalType,
    StructureTensor,
    act,
    criticality,
    dim4_family,
    g2_curve_params,
    jacobi_residual,
    listing,
    mu_A,
    mu_he,
    mu_hy,
    nilpotent_normal_form,
    random_tensor,
    resolve,
    sl2_compact,
    structure_invariants,
)
from skewflow.algebra import commutator
from skewflow.catalog import DIM4_FAMILY_ARITY


def test_all_families_satisfy_jacobi():
    for name in DIM4_FAMILY_NAMES:
        e = dim4_family(name, DEFAULT_PARAMS.get(name, ()))
        assert jacobi_residual(e.tensor) <= 1e-12, name


def test_family_table_is_pinned():
    # the catalog derives these from its one table; these literals, with the
    # flow pins, are the tests' own record of them, order included
    assert DIM4_FAMILY_NAMES == (
        "C4", "n3+C", "r2+C2", "r3+C", "r3l+C", "r2+r2", "sl2+C", "n4",
        "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8",
    )
    assert list(DIM4_FAMILY_ARITY.items()) == [
        ("C4", 0), ("n3+C", 0), ("r2+C2", 0), ("r3+C", 0), ("r3l+C", 1), ("r2+r2", 0),
        ("sl2+C", 0), ("n4", 0), ("g1", 1), ("g2", 2), ("g3", 1), ("g4", 0), ("g5", 0),
        ("g6", 0), ("g7", 0), ("g8", 1),
    ]
    assert list(DEFAULT_PARAMS.items()) == [
        ("r3l+C", (0.5,)), ("g1", (2.0,)), ("g2", (2.0, 1.0)), ("g3", (2.0,)), ("g8", (2.0,)),
    ]


def test_family_count_and_dims():
    assert len(DIM4_FAMILY_NAMES) == 16
    for name in DIM4_FAMILY_NAMES:
        assert dim4_family(name, DEFAULT_PARAMS.get(name, ())).dim == 4


class TestDim4Family:
    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            dim4_family("g1")  # needs one parameter at this level
        with pytest.raises(ValueError):
            dim4_family("n4", (1.0,))
        with pytest.raises(ValueError):
            dim4_family("g2", (1.0,))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            dim4_family("g99")

    def test_domain_r3l(self):
        dim4_family("r3l+C", (1.0,))  # boundary of the domain is allowed
        with pytest.raises(ValueError):
            dim4_family("r3l+C", (0.0,))
        with pytest.raises(ValueError):
            dim4_family("r3l+C", (1.5,))

    def test_domain_g1_g3(self):
        with pytest.raises(ValueError):
            dim4_family("g1", (0.0,))
        with pytest.raises(ValueError):
            dim4_family("g3", (0.0,))

    def test_domain_g2(self):
        dim4_family("g2", (0.0, 0.0))  # both zero is fine
        with pytest.raises(ValueError):
            dim4_family("g2", (0.0, 1.0))

    def test_c4_is_zero(self):
        assert dim4_family("C4").tensor.is_zero()

    def test_structure_flags(self):
        flags = {row["name"]: row["flags"] for row in listing()}
        assert "nilpotent" in flags["n4"]
        assert "solvable" in flags["g6"] and "nilpotent" not in flags["g6"]
        assert flags["sl2+C"] == []  # neither solvable nor, as C is central, semisimple

    def test_complex_parameters_accepted(self):
        e = dim4_family("g1", (1.0 + 2.0j,))
        assert e.tensor.coeff[0, 3, 3] == 1.0 + 2.0j


class TestNamedBrackets:
    def test_mu_he_critical(self):
        for n in (3, 4, 6):
            e = mu_he(n)
            rep = criticality(e.tensor)
            assert rep.is_critical and rep.residual <= 1e-10
            assert rep.F_value == pytest.approx(float(e.expected_F), abs=1e-10)
        assert mu_he(3).expected_type == CriticalType((1, 2), (2, 1))
        assert mu_he(5).expected_type == CriticalType((2, 3, 4), (2, 2, 1))
        with pytest.raises(ValueError):
            mu_he(2)

    def test_mu_hy_critical(self):
        for n in (2, 4, 7):
            e = mu_hy(n)
            rep = criticality(e.tensor)
            assert rep.is_critical
            assert rep.F_value == pytest.approx(4.0, abs=1e-10)
            assert e.expected_type == CriticalType((0, 1), (1, n - 1))
        with pytest.raises(ValueError):
            mu_hy(1)

    def test_sl2_compact_is_minimum(self):
        e = sl2_compact()
        rep = criticality(e.tensor)
        assert rep.is_critical
        assert rep.F_value == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert e.expected_type == CriticalType((0,), (3,))
        assert structure_invariants(e.tensor).is_semisimple
        # the moment map of the normalized bracket is scalar
        from skewflow import moment_map

        r = moment_map(e.tensor.normalized())
        assert np.allclose(r, np.trace(r) / 3.0 * np.eye(3))


def test_sl2_compact_isomorphic_to_sl2_family():
    # explicit isomorphism onto the sl2 block of the sl2+C family:
    # y1 -> (x1 - x2)/2,  y2 -> -i(x1 + x2)/2,  y3 -> -i x3/2
    m = np.array(
        [
            [0.5, -0.5j, 0.0],
            [-0.5, -0.5j, 0.0],
            [0.0, 0.0, -0.5j],
        ]
    )
    pushed = act(m, sl2_compact().tensor)
    block = StructureTensor(dim4_family("sl2+C").tensor.coeff[:3, :3, :3])
    assert np.allclose(pushed.coeff, block.coeff, atol=1e-14)


class TestMuA:
    def test_normal_matrix_critical(self):
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        a = u @ np.diag([1.0, 2.0, -1.0 + 0.5j]) @ u.conj().T  # normal
        e = mu_A(a)
        assert e.expected_type == CriticalType((0, 1), (1, 3))
        assert e.expected_F == Fraction(4)
        rep = criticality(e.tensor)
        assert rep.is_critical and rep.F_value == pytest.approx(4.0, abs=1e-9)

    def test_non_normal_matrix_not_critical(self):
        a = np.array([[1.0, 5.0], [0.0, 2.0]], dtype=complex)
        e = mu_A(a)
        assert e.expected_type is None
        assert not criticality(e.tensor).is_critical

    def test_norm_relation(self):
        a = np.arange(9, dtype=float).reshape(3, 3) + 1.0
        t = mu_A(a).tensor
        assert t.norm() ** 2 == pytest.approx(2.0 * np.linalg.norm(a) ** 2)

    def test_zero_matrix_flagged(self):
        e = mu_A(np.zeros((2, 2)))
        assert e.tensor.is_zero() and "zero" in e.notes

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mu_A(np.zeros((2, 3)))


class TestNilpotentNormalForm:
    def test_single_block_entries(self):
        a = nilpotent_normal_form((2,))
        # subdiagonal sqrt(j*2 - j(j-1)) for j = 1, 2: sqrt(2), sqrt(2)
        assert a.shape == (3, 3)
        assert a[1, 0] == pytest.approx(np.sqrt(2.0))
        assert a[2, 1] == pytest.approx(np.sqrt(2.0))
        assert np.count_nonzero(a) == 2

    def test_commutator_is_integer_diagonal(self):
        for partition in ((2,), (1, 1), (3, 2), (2, 2, 1), (1, 0)):
            a = nilpotent_normal_form(partition)
            k = commutator(a, a.conj().T)
            assert np.allclose(k, np.diag(np.diag(k)))
            assert np.allclose(np.diag(k).real, np.round(np.diag(k).real), atol=1e-12)

    def test_zero_part_is_zero_block(self):
        a = nilpotent_normal_form((1, 0))
        assert a.shape == (3, 3)
        assert np.count_nonzero(a[2:, :]) == 0 and np.count_nonzero(a[:, 2:]) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            nilpotent_normal_form(())
        with pytest.raises(ValueError):
            nilpotent_normal_form((1, 2))
        with pytest.raises(ValueError):
            nilpotent_normal_form((2, -1))


def test_excluded_orbits_data():
    assert len(EXCLUDED_ORBITS) == 4
    names = [(o.name, o.params) for o in EXCLUDED_ORBITS]
    assert ("g8", (0.25,)) in names
    assert ("g5", ()) in names
    for o in EXCLUDED_ORBITS:
        # the start tensor exists and satisfies Jacobi
        e = dim4_family(o.name, o.params)
        assert jacobi_residual(e.tensor) <= 1e-12
        # target orbit carries the stated limit data
        t = dim4_family(o.target_name, o.target_params)
        assert t.expected_type == o.limit_type


def test_g2_curve_params():
    a, b = g2_curve_params(1.0)
    assert a == pytest.approx(1.0 / 27.0)
    assert b == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        g2_curve_params(-2.0)
    # the curve lands inside the g2 domain whenever alpha != 0
    a, b = g2_curve_params(0.5 + 0.1j)
    dim4_family("g2", (a, b))


def test_random_tensor_seeded():
    a = random_tensor(4, seed=42)
    b = random_tensor(4, seed=42)
    assert a == b
    assert a != random_tensor(4, seed=43)
    with pytest.raises(ValueError):
        random_tensor(1, seed=0)


class TestResolve:
    def test_dim4_defaults(self):
        e = resolve("g8")
        assert e.params == (2.0 + 0.0j,)
        e = resolve("g8", params=(0.25,))
        assert e.params == (0.25 + 0.0j,)

    def test_mu_he_default_dim(self):
        assert resolve("mu_he").dim == 4
        assert resolve("mu_he", dim=6).dim == 6

    def test_nilpotent(self):
        e = resolve("nilpotent", params=(2.0,))
        assert e.dim == 4
        assert e.expected_type == CriticalType((1, 2, 3, 4), (1, 1, 1, 1))
        assert e.expected_F == Fraction(6)
        with pytest.raises(ValueError):
            resolve("nilpotent")

    @pytest.mark.parametrize("params", [(2.7,), (1.5, 1.4), (1 + 1j,)])
    def test_partition_parts_must_be_nonnegative_integers(self, params):
        # none may be rounded or lose its imaginary part on the way to a
        # partition
        with pytest.raises(ValueError, match="nonnegative integers"):
            resolve("nilpotent", params=params)

    def test_random(self):
        e = resolve("random", dim=5, seed=7)
        assert e.dim == 5
        assert e.tensor == random_tensor(5, seed=7)
        assert e.expected_type is None

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve("so_very_unknown")

    @pytest.mark.parametrize("name", ["mu_he", "mu_hy", "random"])
    def test_dim_zero_is_not_the_default(self, name):
        with pytest.raises(ValueError, match="n >= "):
            resolve(name, dim=0)

    @pytest.mark.parametrize("name,given,extra", [
        ("g6", {"dim": 7}, "dim"),
        ("g6", {"seed": 1}, "seed"),
        ("mu_he", {"params": (1.0,)}, "params"),
        ("mu_he", {"seed": 3}, "seed"),
        ("mu_hy", {"params": (1.0,)}, "params"),
        ("sl2_compact", {"dim": 3}, "dim"),
        ("nilpotent", {"params": (2.0,), "dim": 4}, "dim"),
        ("random", {"params": (1.0,)}, "params"),
    ])
    def test_arguments_the_entry_does_not_take(self, name, given, extra):
        with pytest.raises(ValueError, match=f"does not take {extra}$"):
            resolve(name, **given)


def test_listing_shape():
    rows = listing()
    names = [r["name"] for r in rows]
    assert set(DIM4_FAMILY_NAMES) <= set(names)
    assert {"mu_he", "mu_hy", "sl2_compact", "nilpotent", "random"} <= set(names)
    for r in rows:
        assert set(r) == {"name", "param_arity", "dim", "flags"}
    byname = {r["name"]: r for r in rows}
    assert byname["g2"]["param_arity"] == 2
    assert byname["nilpotent"]["param_arity"] == -1
    assert byname["sl2_compact"]["dim"] == 3
    assert "nilpotent" in byname["n4"]["flags"]
    assert "semisimple" in byname["sl2_compact"]["flags"]


def test_expected_data_consistent_with_limits():
    # every family that names a flow limit pairs it with the right value
    from skewflow import critical_value

    for name in DIM4_FAMILY_NAMES:
        e = dim4_family(name, DEFAULT_PARAMS.get(name, ()))
        if e.expected_type is not None:
            assert critical_value(e.expected_type) == e.expected_F, name
