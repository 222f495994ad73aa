"""Named example brackets with known flow-limit metadata.

Covers the sixteen four-dimensional families (C4, n3+C, r2+C2, r3+C,
r3l+C, r2+r2, sl2+C, n4, g1..g8), the Heisenberg-type bracket mu_he and the
diagonal-action bracket mu_hy in any dimension, rank-one extensions mu_A of
a matrix acting on an abelian ideal, block normal forms of nilpotent
matrices indexed by partitions, the compact cyclic form of sl2, and seeded
random antisymmetric tensors.  Entries carry the expected limit type and
limit value of the gradient flow where these are known.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .algebra import StructureTensor, commutator, structure_invariants
from .classify import CriticalType, critical_value, nilpotent_partition_type

__all__ = [
    "CatalogEntry",
    "ExcludedOrbit",
    "DIM4_FAMILY_NAMES",
    "DIM4_FAMILY_ARITY",
    "DEFAULT_PARAMS",
    "EXCLUDED_ORBITS",
    "dim4_family",
    "mu_he",
    "mu_hy",
    "mu_A",
    "nilpotent_normal_form",
    "sl2_compact",
    "random_tensor",
    "resolve",
    "all_entries",
    "listing",
    "g2_curve_params",
]


@dataclass(frozen=True)
class CatalogEntry:
    """A named bracket plus the metadata the verification suite checks."""

    name: str
    params: tuple
    tensor: StructureTensor
    expected_type: CriticalType | None = None
    expected_F: Fraction | None = None
    is_nilpotent: bool = False
    is_solvable: bool = False
    is_semisimple: bool = False
    notes: str = ""

    @property
    def dim(self) -> int:
        return self.tensor.dim


def _entry(name, params, tensor, expected_type=None, expected_F=None, notes=""):
    inv = structure_invariants(tensor)
    return CatalogEntry(
        name=name,
        params=tuple(complex(p) for p in params),
        tensor=tensor,
        expected_type=expected_type,
        expected_F=expected_F,
        is_nilpotent=inv.is_nilpotent,
        is_solvable=inv.is_solvable,
        is_semisimple=inv.is_semisimple,
        notes=notes,
    )


DIM4_FAMILY_NAMES = (
    "C4", "n3+C", "r2+C2", "r3+C", "r3l+C", "r2+r2", "sl2+C", "n4",
    "g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8",
)

DIM4_FAMILY_ARITY = {
    "C4": 0, "n3+C": 0, "r2+C2": 0, "r3+C": 0, "r3l+C": 1, "r2+r2": 0,
    "sl2+C": 0, "n4": 0, "g1": 1, "g2": 2, "g3": 1, "g4": 0, "g5": 0,
    "g6": 0, "g7": 0, "g8": 1,
}

# representative parameters used by the verification suite and `catalog list`
DEFAULT_PARAMS = {
    "r3l+C": (0.5,),
    "g1": (2.0,),
    "g2": (2.0, 1.0),
    "g3": (2.0,),
    "g8": (2.0,),
}

_TYPE_013 = CriticalType((0, 1), (1, 3))
_TYPE_121 = CriticalType((0, 1, 2), (1, 2, 1))

# flow limit (type, value) for each family; C4 is the zero bracket
_DIM4_LIMITS = {
    "n3+C": (CriticalType((2, 3, 4), (2, 1, 1)), Fraction(12)),
    "r2+C2": (_TYPE_013, Fraction(4)),
    "r3+C": (_TYPE_013, Fraction(4)),
    "r3l+C": (_TYPE_013, Fraction(4)),
    "r2+r2": (CriticalType((0, 1), (2, 2)), Fraction(2)),
    "sl2+C": (CriticalType((0, 1), (3, 1)), Fraction(4, 3)),
    "n4": (CriticalType((1, 2, 3, 4), (1, 1, 1, 1)), Fraction(6)),
    "g1": (_TYPE_013, Fraction(4)),
    "g2": (_TYPE_013, Fraction(4)),
    "g3": (_TYPE_013, Fraction(4)),
    "g4": (_TYPE_013, Fraction(4)),
    "g5": (_TYPE_013, Fraction(4)),
    "g6": (_TYPE_121, Fraction(3)),
    "g7": (_TYPE_121, Fraction(3)),
    "g8": (_TYPE_121, Fraction(3)),
}


def _dim4_brackets(name, p):
    third = 1.0 / 3.0
    if name == "C4":
        return {}
    if name == "n3+C":
        return {(0, 1): {2: 1}}
    if name == "r2+C2":
        return {(0, 1): {0: 1}}
    if name == "r3+C":
        return {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}}
    if name == "r3l+C":
        return {(0, 1): {1: 1}, (0, 2): {2: p[0]}}
    if name == "r2+r2":
        return {(0, 1): {0: 1}, (2, 3): {2: 1}}
    if name == "sl2+C":
        return {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}
    if name == "n4":
        return {(0, 1): {2: 1}, (0, 2): {3: 1}}
    if name == "g1":
        return {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: p[0]}}
    if name == "g2":
        return {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {1: p[0], 2: -p[1], 3: 1}}
    if name == "g3":
        return {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {1: p[0], 2: p[0]}}
    if name == "g4":
        return {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {1: 1}}
    if name == "g5":
        return {(0, 1): {1: third, 2: 1}, (0, 2): {2: third}, (0, 3): {3: third}}
    if name == "g6":
        return {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}, (1, 2): {3: 1}}
    if name == "g7":
        return {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {3: 1}}
    if name == "g8":
        return {(0, 1): {2: 1}, (0, 2): {1: -p[0], 2: 1}, (0, 3): {3: 1}, (1, 2): {3: 1}}
    raise ValueError(f"unknown four-dimensional family {name!r}")


def _check_domain(name, p):
    if name == "r3l+C":
        lam = abs(p[0])
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"r3l+C needs 0 < |lambda| <= 1, got {p[0]}")
    elif name in ("g1", "g3"):
        if p[0] == 0:
            raise ValueError(f"{name} needs a nonzero parameter")
    elif name == "g2":
        if p[0] == 0 and p[1] != 0:
            raise ValueError("g2 needs alpha nonzero, or alpha = beta = 0")


def dim4_family(name: str, params=None) -> CatalogEntry:
    """One of the sixteen four-dimensional families, at the given parameters.

    Parameter domains are enforced as stated for each family: 0 < |lambda|
    <= 1 for r3l+C, nonzero alpha for g1 and g3, and for g2 either nonzero
    alpha or both parameters zero.
    """
    if name not in DIM4_FAMILY_ARITY:
        raise ValueError(f"unknown four-dimensional family {name!r}")
    p = tuple(complex(x) for x in (params if params is not None else ()))
    if len(p) != DIM4_FAMILY_ARITY[name]:
        raise ValueError(
            f"{name} takes {DIM4_FAMILY_ARITY[name]} parameter(s), got {len(p)}"
        )
    _check_domain(name, p)
    tensor = StructureTensor.from_brackets(4, _dim4_brackets(name, p))
    t, f = _DIM4_LIMITS.get(name, (None, None))
    return _entry(name, p, tensor, expected_type=t, expected_F=f)


def mu_he(n: int) -> CatalogEntry:
    """Heisenberg-type bracket [x1, x2] = x3 on C^n, zero otherwise (n >= 3)."""
    if n < 3:
        raise ValueError("mu_he needs n >= 3")
    tensor = StructureTensor.from_brackets(n, {(0, 1): {2: 1}})
    if n == 3:
        t = CriticalType((1, 2), (2, 1))
    else:
        t = CriticalType((2, 3, 4), (2, n - 3, 1))
    return _entry("mu_he", (), tensor, expected_type=t, expected_F=Fraction(12))


def mu_hy(n: int) -> CatalogEntry:
    """Diagonal-action bracket [x1, xi] = xi for i = 2..n on C^n (n >= 2)."""
    if n < 2:
        raise ValueError("mu_hy needs n >= 2")
    tensor = StructureTensor.from_brackets(
        n, {(0, i): {i: 1} for i in range(1, n)}
    )
    t = CriticalType((0, 1), (1, n - 1))
    return _entry("mu_hy", (), tensor, expected_type=t, expected_F=Fraction(4))


def mu_A(a) -> CatalogEntry:
    """Rank-one extension on C^(n+1): x0 acts by the matrix a on an abelian ideal.

    [x0, xj] = sum_k a[k-1, j-1] xk for j = 1..n; all other brackets vanish.
    The squared norm is 2 tr(a a*).  When a is normal and nonzero the bracket
    is already a critical point of type (0<1; 1, n).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("need a square matrix of size >= 1")
    n = a.shape[0]
    brackets = {}
    for j in range(1, n + 1):
        vec = np.zeros(n + 1, dtype=complex)
        vec[1:] = a[:, j - 1]
        brackets[(0, j)] = vec
    tensor = StructureTensor.from_brackets(n + 1, brackets)
    scale = np.linalg.norm(a)
    notes = ""
    expected_type = expected_F = None
    if scale == 0.0:
        notes = "zero matrix: the bracket vanishes identically"
    else:
        normal = np.linalg.norm(commutator(a, a.conj().T)) <= 1e-12 * scale**2
        if normal:
            expected_type = CriticalType((0, 1), (1, n))
            expected_F = Fraction(4)
    return _entry(
        "mu_A", tuple(a.ravel()), tensor,
        expected_type=expected_type, expected_F=expected_F, notes=notes,
    )


def nilpotent_normal_form(partition) -> np.ndarray:
    """Block nilpotent matrix attached to a nonincreasing integer partition.

    Block i has size n_i + 1 with subdiagonal entries sqrt(j*n_i - j(j-1))
    for j = 1..n_i; a zero part contributes a 1x1 zero block.  These scaled
    Jordan blocks make the commutator [A, A*] diagonal with integer entries.
    """
    parts = [int(x) for x in partition]
    if not parts:
        raise ValueError("partition must be nonempty")
    if any(x < 0 for x in parts):
        raise ValueError("partition entries must be nonnegative")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition must be nonincreasing")
    size = sum(x + 1 for x in parts)
    a = np.zeros((size, size), dtype=complex)
    offset = 0
    for m in parts:
        for j in range(1, m + 1):
            a[offset + j, offset + j - 1] = np.sqrt(j * m - j * (j - 1))
        offset += m + 1
    return a


def sl2_compact() -> CatalogEntry:
    """The cyclic bracket [x1,x2]=x3, [x2,x3]=x1, [x3,x1]=x2 on C^3.

    A critical representative of sl2: the moment map is -4I, the functional
    value 4/3, the type (0;3).
    """
    tensor = StructureTensor.from_brackets(
        3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
    )
    return _entry(
        "sl2_compact", (), tensor,
        expected_type=CriticalType((0,), (3,)), expected_F=Fraction(4, 3),
    )


def random_tensor(n: int, seed: int) -> StructureTensor:
    """Seeded antisymmetric tensor with standard-normal real/imaginary parts."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    coeff = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeff[i, j] = row
            coeff[j, i] = -row
    return StructureTensor(coeff)


@dataclass(frozen=True)
class ExcludedOrbit:
    """Family parameters whose orbit is not in the Kirwan-Ness quotient.

    The flow started at these parameters leaves the family: the limit lies
    in the orbit named by target_name/target_params, with the stated limit
    type and value.
    """

    name: str
    params: tuple
    target_name: str
    target_params: tuple
    limit_type: CriticalType
    limit_F: Fraction


EXCLUDED_ORBITS = (
    ExcludedOrbit("g8", (0.25,), "g6", (), _TYPE_121, Fraction(3)),
    ExcludedOrbit("g3", (6.75,), "g1", (-2.0,), _TYPE_013, Fraction(4)),
    ExcludedOrbit("g5", (), "g1", (1.0,), _TYPE_013, Fraction(4)),
    ExcludedOrbit("g2", (1.0 / 27.0, 1.0 / 3.0), "g1", (1.0,), _TYPE_013, Fraction(4)),
)


def g2_curve_params(gamma: complex) -> tuple:
    """The g2 parameter curve whose flow limit lands in the g1(gamma) orbit."""
    gamma = complex(gamma)
    if gamma == -2:
        raise ValueError("gamma = -2 is outside the curve's domain")
    return (gamma / (gamma + 2) ** 3, (2 * gamma + 1) / (gamma + 2) ** 2)


def resolve(name: str, params=None, dim=None, seed=None) -> CatalogEntry:
    """Look up a catalog entry by command-line style name.

    Four-dimensional families take --params (defaults exist for the
    parametric ones); mu_he/mu_hy take --dim (default 4); "nilpotent" reads
    a partition from params and wraps the normal form's rank-one extension;
    "random" wraps a seeded random tensor (no expectations attached, and in
    general not a Lie bracket).
    """
    if name in DIM4_FAMILY_ARITY:
        if params is None:
            params = DEFAULT_PARAMS.get(name, ())
        return dim4_family(name, params)
    if name == "mu_he":
        return mu_he(int(dim) if dim else 4)
    if name == "mu_hy":
        return mu_hy(int(dim) if dim else 4)
    if name == "sl2_compact":
        return sl2_compact()
    if name == "nilpotent":
        if not params:
            raise ValueError("catalog entry 'nilpotent' needs a partition in --params")
        partition = tuple(int(round(complex(x).real)) for x in params)
        t = nilpotent_partition_type(partition)
        return replace(
            mu_A(nilpotent_normal_form(partition)),
            name="nilpotent", params=tuple(map(complex, partition)),
            expected_type=t, expected_F=critical_value(t),
        )
    if name == "random":
        tensor = random_tensor(int(dim) if dim else 4, int(seed) if seed else 0)
        return CatalogEntry(
            name="random", params=(), tensor=tensor,
            notes="seeded random tensor; in general not a Lie bracket",
        )
    raise ValueError(f"unknown catalog name {name!r}")


def all_entries() -> list:
    """The canonical verified entries: all families at representative
    parameters, plus mu_he(4), mu_hy(4), and the compact sl2."""
    out = [dim4_family(name, DEFAULT_PARAMS.get(name, ())) for name in DIM4_FAMILY_NAMES]
    out.extend([mu_he(4), mu_hy(4), sl2_compact()])
    return out


def _flags(e: CatalogEntry) -> list:
    flags = []
    if e.is_nilpotent:
        flags.append("nilpotent")
    if e.is_solvable:
        flags.append("solvable")
    if e.is_semisimple:
        flags.append("semisimple")
    return flags


def listing() -> list:
    """Machine-readable catalog listing: name, param_arity, dim, flags.

    Variadic entries (nilpotent partitions, random tensors) report arity -1
    and the dim of their smallest instance.
    """
    rows = [
        {"name": e.name, "param_arity": DIM4_FAMILY_ARITY.get(e.name, 0), "dim": e.dim,
         "flags": _flags(e)}
        for e in all_entries()
    ]
    rows.append({"name": "nilpotent", "param_arity": -1, "dim": 3,
                 "flags": ["nilpotent", "solvable"]})
    rows.append({"name": "random", "param_arity": -1, "dim": 4, "flags": []})
    return rows
