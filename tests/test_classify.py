from fractions import Fraction

import numpy as np
import pytest

from skewflow import (
    CriticalType,
    TypeExtractionError,
    abelian_sum_type,
    all_entries,
    criticality,
    critical_value,
    dim4_family,
    extract_type,
    nilpotent_partition_type,
    predicted_partition_ks,
)
from skewflow.verify import _partitions_upto


class TestCriticalType:
    def test_validation(self):
        with pytest.raises(ValueError):
            CriticalType((), ())
        with pytest.raises(ValueError):
            CriticalType((1, 2), (1,))  # length mismatch
        with pytest.raises(ValueError):
            CriticalType((2, 1), (1, 1))  # not increasing
        with pytest.raises(ValueError):
            CriticalType((-1, 0), (1, 1))
        with pytest.raises(ValueError):
            CriticalType((0, 1), (1, 0))  # zero multiplicity
        with pytest.raises(ValueError):
            CriticalType((2, 4), (1, 1))  # not coprime

    def test_zero_k_allowed_in_gcd(self):
        t = CriticalType((0, 1), (2, 1))
        assert t.n == 3 and t.r == 2

    def test_str_parse_roundtrip(self):
        for t in (
            CriticalType((0,), (5,)),
            CriticalType((1, 2, 3), (2, 1, 1)),
            CriticalType((0, 1, 2), (1, 2, 1)),
        ):
            assert CriticalType.parse(str(t)) == t
        assert str(CriticalType((1, 2), (2, 1))) == "(1<2;2,1)"
        assert CriticalType.parse("(2<3<4;2,1,1)") == CriticalType((2, 3, 4), (2, 1, 1))

    def test_weights(self):
        t = CriticalType((1, 2), (2, 1))
        assert np.array_equal(t.weights(), [1.0, 1.0, 2.0])


class TestExtractType:
    def test_exact_spectra(self):
        d = np.diag([1.0, 1.0, 2.0]).astype(complex)
        assert extract_type(d) == CriticalType((1, 2), (2, 1))
        d = np.diag([0.0, 0.0, 0.0, 0.0]).astype(complex)
        assert extract_type(d) == CriticalType((0,), (4,))

    def test_scaling_ignored(self):
        d = 0.037 * np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        assert extract_type(d) == CriticalType((1, 2, 3, 4), (1, 1, 1, 1))

    def test_noisy_unitarily_conjugated(self):
        rng = np.random.default_rng(0)
        w = np.repeat([2.0, 3.0, 4.0], [2, 1, 1])
        q, _ = np.linalg.qr(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        d = q @ np.diag(w).astype(complex) @ q.conj().T
        d += 1e-9 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert extract_type(d) == CriticalType((2, 3, 4), (2, 1, 1))

    def test_inconsistent_multiplicities_rejected(self):
        # spectrum {2,3,5} needs multiplicities (1,2,2); with unit
        # multiplicities the relation projection lands elsewhere
        with pytest.raises(TypeExtractionError):
            extract_type(np.diag([2.0, 3.0, 5.0]).astype(complex))

    def test_irrational_spectrum_rejected(self):
        # no additive relations tie 1 and sqrt(2), so the direction
        # rationalizes to something that is not parallel to the clusters
        with pytest.raises(TypeExtractionError):
            extract_type(np.diag([1.0, np.sqrt(2.0)]).astype(complex))

    def test_negative_direction_rejected(self):
        with pytest.raises(TypeExtractionError):
            extract_type(np.diag([-1.0, 1.0]).astype(complex))

    def test_from_critical_report(self):
        rep = criticality(dim4_family("n4").tensor)
        assert extract_type(rep.D_mu) == CriticalType((1, 2, 3, 4), (1, 1, 1, 1))


def test_extract_type_recovers_every_type_the_package_produces():
    # the 29 partition types of size <= 6, each with 1..3 abelian lines
    # adjoined, and the catalog's expected types: 134 types, each under
    # three seeded unitary conjugations and positive scales
    partition_types = [nilpotent_partition_type(p) for p in _partitions_upto(6)]
    types = [
        *partition_types,
        *(abelian_sum_type(t, m) for t in partition_types for m in (1, 2, 3)),
        *(e.expected_type for e in all_entries() if e.expected_type is not None),
    ]
    assert len(types) == 134
    rng = np.random.default_rng(14)
    wrong = []
    for t in types:
        for _ in range(3):
            q, _ = np.linalg.qr(
                rng.standard_normal((t.n, t.n)) + 1j * rng.standard_normal((t.n, t.n))
            )
            d = 10.0 ** rng.uniform(-2, 2) * (q * t.weights()) @ q.conj().T
            got = extract_type(d)
            if got != t:
                wrong.append((str(t), str(got)))
    assert wrong == []


class TestCriticalValue:
    def test_zero_type(self):
        assert critical_value(CriticalType((0,), (3,))) == Fraction(4, 3)
        assert critical_value(CriticalType((0,), (8,))) == Fraction(1, 2)

    def test_known_values(self):
        cases = [
            (((0, 1), (3, 1)), Fraction(4, 3)),
            (((0, 1), (2, 2)), Fraction(2)),
            (((0, 1, 2), (1, 2, 1)), Fraction(3)),
            (((0, 1), (1, 3)), Fraction(4)),
            (((1, 2, 3, 4), (1, 1, 1, 1)), Fraction(6)),
            (((2, 3, 4), (2, 1, 1)), Fraction(12)),
            (((1, 2), (2, 1)), Fraction(12)),  # heisenberg in dim 3
        ]
        for (ks, ds), expected in cases:
            assert critical_value(CriticalType(ks, ds)) == expected

    def test_degenerate_type_rejected(self):
        # all weight on one positive cluster: n*sk2d = skd^2, no finite value
        with pytest.raises(ValueError):
            critical_value(CriticalType((1,), (4,)))


class TestAbelianSum:
    def test_zero_type_gains_step(self):
        t = abelian_sum_type(CriticalType((0,), (3,)), 2)
        assert t == CriticalType((0, 1), (3, 2))

    def test_heisenberg_plus_line(self):
        # (1<2;2,1): sum kd = 4, sum k^2 d = 6, gcd 2 -> scale 2, new k = 3
        t = abelian_sum_type(CriticalType((1, 2), (2, 1)), 1)
        assert t == CriticalType((2, 3, 4), (2, 1, 1))

    def test_merge_with_existing_cluster(self):
        # (2<3<4;2,1,1): sum kd = 11, sum k^2 d = 33, new k = 3 merges
        t = abelian_sum_type(CriticalType((2, 3, 4), (2, 1, 1)), 5)
        assert t == CriticalType((2, 3, 4), (2, 6, 1))

    def test_value_unchanged(self):
        # adjoining abelian lines preserves the critical value
        for ks, ds in (((1, 2), (2, 1)), ((0, 1), (2, 2)), ((1, 2, 3, 4), (1,) * 4)):
            t = CriticalType(ks, ds)
            for m in (1, 2, 7):
                assert critical_value(abelian_sum_type(t, m)) == critical_value(t)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            abelian_sum_type(CriticalType((0,), (3,)), 0)


class TestPartitionRules:
    def test_single_jordan_block(self):
        assert predicted_partition_ks((2,)) == (1, 2, 3, 4)
        # one 2x2 Jordan block extends to the 3-dim heisenberg bracket
        assert predicted_partition_ks((1,)) == (1, 2)

    def test_zero_parts_adjoin_lines(self):
        assert predicted_partition_ks((1, 0, 0)) == (2, 3, 4)

    def test_two_blocks_same_parity(self):
        assert predicted_partition_ks((1, 1)) == (2, 3, 5)

    def test_mixed_parity(self):
        assert predicted_partition_ks((2, 1)) == (2, 5, 6, 7, 8, 9)
        assert predicted_partition_ks((3, 1)) == (1, 5, 6, 7, 8)

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            predicted_partition_ks((1, 2))  # increasing
        with pytest.raises(ValueError):
            predicted_partition_ks((0,))
        with pytest.raises(ValueError):
            predicted_partition_ks((2, -1))

    def test_nilpotent_partition_type_verifies(self):
        # partition (2,): one 3x3 block, tensor on C^4
        t = nilpotent_partition_type((2,))
        assert t == CriticalType((1, 2, 3, 4), (1, 1, 1, 1))
        # partition (1,1): two 2x2 blocks, tensor on C^5
        t = nilpotent_partition_type((1, 1))
        assert t.ks == (2, 3, 5)
        assert t.n == 5
